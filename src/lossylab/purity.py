"""Purity, Renyi and von Neumann entropies, and the dark-port purity polynomial.

Sending rho through a loss channel of transmissivity T multiplies the m-photon
sector of the dark port of a balanced two-copy interference by (1-2T)^m, so
Tr[rho_T^2] = sum_m p_m (1-2T)^m where p_m are the dark-port number populations
of rho x rho. The polynomial is entire in T, which is what the extended-range
checks evaluate; coefficients are populations, hence nonnegative for states.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fock import DensityOperator, PureState, block_indices, product_traces, splitter_blocks
from .loss import _binomial_table, apply_loss, loss_path

EIG_FLOOR = 1e-14
NEGATIVE_EIG_LIMIT = -1e-8


def purities(matrices: np.ndarray) -> np.ndarray:
    """Tr[m^2] of each matrix m of a (..., c, c) stack."""
    return product_traces(matrices, matrices)


def purity(rho: DensityOperator) -> float:
    return float(purities(rho.matrix))


def _spectrum(rho: DensityOperator) -> np.ndarray:
    """Clipped spectrum; a physical operator already holds its eigenvalues."""
    eigs = rho.eigenvalues if rho.physical else np.linalg.eigvalsh(rho.matrix)
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
    """Polynomial sum_m coefficients[m] * lambda^m with lambda = 1 - 2T.

    Each lambda-derivative's coefficients, as floats from the highest power
    down, are derived on first evaluation and kept with the polynomial."""

    coefficients: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        coeffs.flags.writeable = False
        object.__setattr__(self, "coefficients", coeffs)

    def derivative_coefficients(self, order: int) -> np.ndarray:
        """The order-th lambda-derivative's coefficients, derived as
        numpy.polynomial's polyder derives them: c[1:] * (1, ..., n - 1) per
        order, and c[:1] * 0 for an order past the degree."""
        if order < 0:
            raise ValueError("the order of derivation must be nonnegative")
        coeffs = self.coefficients
        if order >= coeffs.size:
            return coeffs[:1] * 0
        for _ in range(order):
            coeffs = coeffs[1:] * np.arange(1.0, coeffs.size)
        return coeffs

    def at_lambda(self, lam, order: int = 0):
        """d^order / dlambda^order of the polynomial at lam, by Horner's rule
        from c[-1] + lam * 0 down, step for step numpy.polynomial's polyval. A
        scalar lam runs in Python floats (no numpy floating-point warning on
        overflow or inf * 0) and comes back as np.float64."""
        top_down = self._derived.get(order)
        if top_down is None:
            top_down = self._derived[order] = self.derivative_coefficients(order)[::-1].tolist()
        x = np.asarray(lam, dtype=float) if np.ndim(lam) else float(lam)
        acc = top_down[0] + x * 0
        for c in top_down[1:]:
            acc = c + acc * x
        return acc if np.ndim(lam) else np.float64(acc)

    def value(self, transmissivity):
        return self.at_lambda(1.0 - 2.0 * np.asarray(transmissivity, dtype=float))

    def derivative(self, transmissivity, order: int = 1):
        """d^order / dT^order via the chain rule (dlambda/dT = -2)."""
        lam = 1.0 - 2.0 * np.asarray(transmissivity, dtype=float)
        return (-2.0) ** order * self.at_lambda(lam, order)


# ---------------------------------------------------------------------------
# dark-port population engine
# ---------------------------------------------------------------------------


def pair_dark_populations(rho: DensityOperator, sigma: DensityOperator) -> np.ndarray:
    """Number populations of the difference mode of rho x sigma after balanced mixing.

    B(1/2) conserves total photon number, so the diagonal of B_n^T (rho x sigma)_n B_n,
    with (rho x sigma)_n[k, l] = rho[k, l] sigma[n - k, n - l] and B_n its splitter
    block, holds the populations of |a, n - a>: n - a photons in the difference mode.
    B_n is real and the block Hermitian, so only the block's real part counts.
    Nothing is diagonalized, so indefinite operators work too.
    """
    cr, cs = rho.cutoff, sigma.cutoff
    # sigma[n - k, n - l] = flipped[k + s, l + s] with s = cs - 1 - n
    flipped = sigma.matrix[::-1, ::-1]
    pops = np.zeros(cr + cs - 1)
    for n, block in enumerate(splitter_blocks(pops.size)):
        ks = block_indices(n, cr, cs)
        k, j = slice(ks.start, ks.stop), slice(ks.start + cs - 1 - n, ks.stop + cs - 1 - n)
        pair = (rho.matrix[k, k] * flipped[j, j]).real
        b = block[k]
        pops[n::-1] += (b * (pair @ b)).sum(axis=0)
    return pops


def purity_polynomial(rho: DensityOperator) -> PurityPolynomial:
    return PurityPolynomial(pair_dark_populations(rho, rho))


def overlap_polynomial(rho: DensityOperator, sigma: DensityOperator) -> PurityPolynomial:
    return PurityPolynomial(pair_dark_populations(rho, sigma))


class StateRecord:
    """One state's inputs to the verify checks, each derived once: its
    density operator ``rho1``, whether it is ``pure`` and, if so, its
    PureState ``psi``; the purity
    polynomial ``poly`` of rho1, built on first use; and E_T[rho1] at each
    of the few fixed T that ``lossy`` is asked for, kept by T.
    ``lossy_path`` walks a grid of any length through the kept states and
    keeps none of its own."""

    def __init__(self, state_id: str, state: PureState | DensityOperator):
        self.state_id = state_id
        self.psi = state if isinstance(state, PureState) else None
        self.pure = self.psi is not None
        self.rho1 = state.density() if self.pure else state
        self._lossy: dict[float, DensityOperator] = {}

    @cached_property
    def poly(self) -> PurityPolynomial:
        return purity_polynomial(self.rho1)

    def lossy(self, transmissivities) -> list[DensityOperator]:
        """E_T[rho1] for each T, in order; one ``loss_path`` call adds the T not kept yet."""
        ts = [float(t) for t in transmissivities]
        missing = [t for t in dict.fromkeys(ts) if t not in self._lossy]
        self._lossy.update(zip(missing, loss_path(self.rho1, missing)))
        return [self._lossy[t] for t in ts]

    def lossy_path(self, transmissivities) -> Iterator[DensityOperator]:
        """E_T[rho1] for each T, in order: the kept state where there is one,
        else the next of one ``loss_path`` call, which holds one block at a time."""
        ts = [float(t) for t in transmissivities]
        kept = [self._lossy.get(t) for t in ts]
        fresh = loss_path(self.rho1, [t for t, rho in zip(ts, kept) if rho is None])
        return (next(fresh) if rho is None else rho for rho in kept)


def min_purity_pure(psi: PureState) -> float:
    """Closed-form minimum purity of a pure state under loss (attained at T = 1/2):
    sum_n |sum_k a_k a_{n-k} sqrt(C(n, k) / 2^n)|^2, with C(n, k) / 2^n the
    T = 1/2 row n of the Pascal-rule binomial table."""
    c = psi.cutoff
    amps = psi.amplitudes
    root_pmf = np.sqrt(_binomial_table(0.5, 2 * c - 1))
    total = 0.0
    for n in range(2 * c - 1):
        k = np.arange(max(0, n - c + 1), min(n, c - 1) + 1)
        total += abs(np.sum(amps[k] * amps[n - k] * root_pmf[n, k])) ** 2
    return float(total)


# ---------------------------------------------------------------------------
# overlaps and mutual information
# ---------------------------------------------------------------------------


def hs_overlap(rho: DensityOperator, sigma: DensityOperator) -> float:
    if rho.cutoff != sigma.cutoff:
        d = max(rho.cutoff, sigma.cutoff)
        rho, sigma = rho.embedded(d), sigma.embedded(d)
    return float(product_traces(rho.matrix, sigma.matrix))


def lossy_overlap(rho: DensityOperator, sigma: DensityOperator, transmissivity: float) -> float:
    return hs_overlap(apply_loss(rho, transmissivity), apply_loss(sigma, transmissivity))


def mutual_information_bs(rho: DensityOperator, transmissivity: float) -> float:
    """I between the two outputs of B(T) fed with rho and vacuum.

    The marginals are the loss channel at T and 1-T; the joint entropy equals
    H_1(rho) because the dilation is unitary and the ancilla is pure.
    """
    t = float(transmissivity)
    h_a, h_b = (von_neumann(out) for out in loss_path(rho, [t, 1.0 - t]))
    return h_a + h_b - von_neumann(rho)
