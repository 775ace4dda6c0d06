"""Quadrature coherence scale C^2 of a state, by four independent routes.

C^2 is the mean-square quadrature commutator normalized by purity. Routes: commutator
(definition), purity-rate (response of Tr[rho_T^2] to loss), two-copy (swap expectation per
total-photon-number block), and a Lindblad moment form; the first and third are exact on the
zero-padded state, as a and a1 - a2 lower the photon number by one. All four agree to ~1e-8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, ladder_traces
from .purity import PurityPolynomial, purity


@dataclass(frozen=True)
class QcsResult:
    c_squared: float

    def __post_init__(self):
        if self.c_squared < -1e-9:
            raise ValueError(f"C^2 must be nonnegative, got {self.c_squared}")


def commutator_norms(matrices: np.ndarray) -> np.ndarray:
    """||[a, m]||_F^2 of each matrix m of a (..., c, c) stack. A box of c + 1
    levels holds all of [a, m]."""
    c = matrices.shape[-1]
    ladder = np.sqrt(np.arange(1, c + 1))
    comm = np.zeros(matrices.shape[:-2] + (c + 1, c + 1), dtype=complex)
    # (a m)[i, j] = sqrt(i+1) m[i+1, j]
    comm[..., : c - 1, :c] = ladder[: c - 1, None] * matrices[..., 1:, :]
    comm[..., :c, 1 : c + 1] -= matrices * ladder[:c]  # (m a)[i, j] = m[i, j-1] sqrt(j)
    return np.sum(np.abs(comm) ** 2, axis=(-2, -1))


def qcs_commutator(rho: DensityOperator) -> QcsResult:
    """C^2 = ||[a, rho]||_F^2 / Tr[rho^2] = (Tr[rho,X][X,rho] + Tr[rho,P][P,rho]) / (2 Tr[rho^2]),
    as [a^dag, rho] = -[a, rho]^dag."""
    return QcsResult(float(commutator_norms(rho.matrix)) / purity(rho))


def qcs_purity_rate(poly: PurityPolynomial, transmissivity: float) -> QcsResult:
    """C^2 of rho_T from the loss response of the purity polynomial P of rho_1:
    C^2 = (T / P(T)) dP/dT + 1. The caller builds P once per input state.
    At T = 0 this is exactly 1, the vacuum's scale."""
    t = float(transmissivity)
    p = float(poly.value(t))
    rate = float(poly.derivative(t, 1))
    return QcsResult(t * rate / p + 1.0)


def qcs_two_copy(rho: DensityOperator) -> QcsResult:
    """C^2 = Tr[(rho x rho) Nhat] / Tr[(rho x rho) Shat], Shat the swap and Nhat =
    ((a1^dag - a2^dag)(a1 - a2) + 1) Shat, per block |k, n-k> of rho zero-padded to 2c - 1
    levels: (rho x rho)_n[k, l] = rho[k, l] rho[n-k, n-l], Shat_n is the anti-identity J,
    and a1 - a2 maps block n to n - 1 by D_n[i, i+1] = sqrt(i+1), D_n[i, i] = -sqrt(n-i).
    Tr[(rho x rho)_n J] and Tr[D_n J (rho x rho)_n D_n^T] read 3 diagonals of J (rho x rho)_n."""
    d = 2 * rho.cutoff - 1
    m = np.zeros((d, d), dtype=complex)
    m[: rho.cutoff, : rho.cutoff] = rho.matrix
    n, k = np.tril_indices(d)  # block n, diagonal entry (k, k)
    diag = m[n - k, k] * m[k, n - k]
    n1, i = np.tril_indices(d, -1)  # block n1, off-diagonal entries (i, i+1) and (i+1, i)
    cross = m[n1 - i, i + 1] * m[i, n1 - i - 1] + m[n1 - i - 1, i] * m[i + 1, n1 - i]
    den = float(np.sum(diag).real)
    # D_n weighs diagonal entry k by k + (n - k) = n, and off-diagonals by -sqrt((i+1)(n-i))
    lowered = np.sum(n * diag) - np.sum(np.sqrt((i + 1.0) * (n1 - i)) * cross)
    return QcsResult(float(lowered.real) / den + 1.0)


def qcs_lindblad(rho_t: DensityOperator) -> QcsResult:
    """C^2 of a (lossy) state rho_T from dissipator moments:
    C^2 = (2 / Tr[rho_T^2]) (Tr[N rho_T rho_T] - Tr[a rho_T a^dag rho_T]) + 1.
    """
    term_n, term_a = map(float, ladder_traces(rho_t.matrix))
    return QcsResult(2.0 / purity(rho_t) * (term_n - term_a) + 1.0)
