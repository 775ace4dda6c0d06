"""Purity, Renyi and von Neumann entropies, and the dark-port purity polynomial.

Sending rho through a loss channel of transmissivity T multiplies the m-photon
sector of the dark port of a balanced two-copy interference by (1-2T)^m, so
Tr[rho_T^2] = sum_m p_m (1-2T)^m where p_m are the dark-port number populations
of rho x rho. The polynomial is entire in T, which is what the extended-range
checks evaluate; coefficients are populations, hence nonnegative for states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import gammaln

from .fock import DensityOperator, PureState, beam_splitter_block, block_indices
from .loss import apply_loss

EIG_FLOOR = 1e-14
NEGATIVE_EIG_LIMIT = -1e-8


def purity(rho: DensityOperator) -> float:
    return float(np.einsum("ij,ji->", rho.matrix, rho.matrix).real)


def _spectrum(rho: DensityOperator) -> np.ndarray:
    eigs = np.linalg.eigvalsh(rho.matrix)
    if eigs[0] < NEGATIVE_EIG_LIMIT:
        raise ValueError(f"operator has eigenvalue {eigs[0]:.3e}; not a state")
    return np.clip(eigs, 0.0, None)


def von_neumann(rho: DensityOperator) -> float:
    """H_1 in nats; eigenvalues below 1e-14 contribute 0 log 0 = 0."""
    eigs = _spectrum(rho)
    eigs = eigs[eigs > EIG_FLOOR]
    return float(-np.sum(eigs * np.log(eigs)))


def renyi_entropy(rho: DensityOperator, order: float) -> float:
    """H_alpha = log(Tr[rho^alpha]) / (1 - alpha) in nats; order 1 dispatches to H_1."""
    if order <= 0:
        raise ValueError("order must be positive")
    if order == 1:
        return von_neumann(rho)
    eigs = _spectrum(rho)
    eigs = eigs[eigs > EIG_FLOOR]
    return float(np.log(np.sum(eigs ** order)) / (1.0 - order))


@dataclass(frozen=True)
class PurityPolynomial:
    """Polynomial sum_m coefficients[m] * lambda^m with lambda = 1 - 2T."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def value_at_lambda(self, lam):
        return npoly.polyval(np.asarray(lam, dtype=float), self.coefficients)

    def value(self, transmissivity):
        return self.value_at_lambda(1.0 - 2.0 * np.asarray(transmissivity, dtype=float))

    def derivative(self, transmissivity, order: int = 1):
        """d^order / dT^order via the chain rule (dlambda/dT = -2)."""
        dcoeffs = npoly.polyder(self.coefficients, m=order)
        lam = 1.0 - 2.0 * np.asarray(transmissivity, dtype=float)
        return (-2.0) ** order * npoly.polyval(lam, dcoeffs)

    def degree(self) -> int:
        return len(self.coefficients) - 1


# ---------------------------------------------------------------------------
# dark-port population engine
# ---------------------------------------------------------------------------


def _signed_eigenpairs(rho: DensityOperator):
    w, v = np.linalg.eigh(rho.matrix)
    keep = np.abs(w) > 1e-15
    return w[keep], v[:, keep]


def pair_dark_populations(rho: DensityOperator, sigma: DensityOperator) -> np.ndarray:
    """Number populations of the difference mode of rho x sigma after balanced mixing.

    Spectral path: each eigenvector pair is sent through B(1/2)^dag as a state
    vector, one total-photon-number block at a time; the blocks are complete
    because the embedding ladder holds the total photon number. Signed
    eigenvalues are kept so indefinite operators work too.
    """
    cr, cs = rho.cutoff, sigma.cutoff
    wr, vr = _signed_eigenpairs(rho)
    ws, vs = _signed_eigenpairs(sigma)
    weights = np.outer(wr, ws).ravel()
    d = cr + cs - 1
    pops = np.zeros(d)
    for n in range(d):
        ks = block_indices(n, cr, cs)
        # amplitudes <k, n - k | v_i, v_j> of every eigenvector pair (i, j)
        amps = (vr[ks, :, None] * vs[n - ks, None, :]).reshape(ks.size, -1)
        out = beam_splitter_block(n, 0.5)[ks].conj().T @ amps  # rows |a, n - a>
        pops[n::-1] += np.abs(out) ** 2 @ weights
    return pops


def purity_polynomial(rho: DensityOperator) -> PurityPolynomial:
    return PurityPolynomial(pair_dark_populations(rho, rho))


def overlap_polynomial(rho: DensityOperator, sigma: DensityOperator) -> PurityPolynomial:
    return PurityPolynomial(pair_dark_populations(rho, sigma))


def min_purity_pure(psi: PureState) -> float:
    """Closed-form minimum purity of a pure state under loss (attained at T = 1/2)."""
    c = psi.cutoff
    amps = psi.amplitudes
    total = 0.0
    for n in range(2 * c - 1):
        s = 0.0 + 0.0j
        for k in range(max(0, n - c + 1), min(n, c - 1) + 1):
            log_binom = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
            s += amps[k] * amps[n - k] * np.exp(log_binom)
        total += abs(s) ** 2 / 2.0 ** n
    return float(total)


# ---------------------------------------------------------------------------
# overlaps, mutual information, closed forms
# ---------------------------------------------------------------------------


def hs_overlap(rho: DensityOperator, sigma: DensityOperator) -> float:
    if rho.cutoff != sigma.cutoff:
        d = max(rho.cutoff, sigma.cutoff)
        rho, sigma = rho.embedded(d), sigma.embedded(d)
    return float(np.einsum("ij,ji->", rho.matrix, sigma.matrix).real)


def lossy_overlap(rho: DensityOperator, sigma: DensityOperator, transmissivity: float) -> float:
    return hs_overlap(apply_loss(rho, transmissivity), apply_loss(sigma, transmissivity))


def mutual_information_bs(rho: DensityOperator, transmissivity: float) -> float:
    """I between the two outputs of B(T) fed with rho and vacuum.

    The marginals are the loss channel at T and 1-T; the joint entropy equals
    H_1(rho) because the dilation is unitary and the ancilla is pure.
    """
    h_a = von_neumann(apply_loss(rho, transmissivity))
    h_b = von_neumann(apply_loss(rho, 1.0 - transmissivity))
    return h_a + h_b - von_neumann(rho)


def fock_purity_closed_form(n: int, transmissivity):
    """Purity of a lossy number state, valid for any real transmissivity."""
    t = np.asarray(transmissivity, dtype=float)
    scalar = t.ndim == 0
    tt = np.atleast_1d(t)
    acc = np.zeros_like(tt)
    for k in range(n + 1):
        binom = np.exp(gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
        acc += (binom * tt ** k * (1.0 - tt) ** (n - k)) ** 2
    return float(acc[0]) if scalar else acc


def purity_derivative(rho: DensityOperator, transmissivity: float, order: int = 1) -> float:
    """d^order Tr[rho_T^2] / dT^order via the dark-port polynomial."""
    return float(purity_polynomial(rho).derivative(transmissivity, order))
