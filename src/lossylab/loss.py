"""Pure-loss channel on the truncated ladder: binomial kernel, generator, composition.

The channel with transmissivity T keeps each photon with probability T, so
a matrix element moves down its diagonal by the number j of photons lost:

    E_T[rho]_mn = sum_j v_j[m] v_j[n] rho_{m+j,n+j},
    v_j[m]^2 = w_j[m] = C(m+j, j) T^m (1-T)^j,

the standard matrix-element form of binomial loss (Leonhardt, *Measuring
the Quantum State of Light*). The sum is exact at finite cutoff because
loss only lowers the photon number. w_j[m] is a polynomial in T, so on
diagonal operators the same kernel continues the channel to any real T.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityOperator, mode_operators
from .reports import CheckReport, equality_report


def _binomial_table(t: float, cutoff: int) -> np.ndarray:
    """pmf[n, m] = C(n, m) T^m (1-T)^(n-m), so w_j[m] = pmf[m+j, m].

    Built row by row with Pascal's rule, which holds for any real T; each
    step adds two terms of one sign, so no entry cancels, and on [0, 1]
    no entry exceeds 1."""
    pmf = np.zeros((cutoff, cutoff))
    pmf[0, 0] = 1.0
    for n in range(1, cutoff):
        pmf[n, :n] = (1.0 - t) * pmf[n - 1, :n]
        pmf[n, 1 : n + 1] += t * pmf[n - 1, :n]
    return pmf


def apply_loss(rho: DensityOperator, transmissivity: float) -> DensityOperator:
    """E_T[rho] by the binomial kernel: one rank-1 elementwise term per
    number j of lost photons. Outside 0 <= T <= 1 only diagonal operators
    are accepted, and the result is marked unphysical."""
    t = float(transmissivity)
    if not np.isfinite(t):
        raise ValueError("transmissivity must be finite")
    c = rho.cutoff
    m = rho.matrix
    in_range = 0.0 <= t <= 1.0
    if not in_range:
        m = np.diag(np.diag(m))
        if np.max(np.abs(rho.matrix - m)) > 1e-12:
            raise ValueError("transmissivity outside [0, 1] is only defined for diagonal operators")
    # complex so that v_j[m]^2 = w_j[m] also where w is negative (T outside
    # [0, 1]); there m is diagonal and only those squares enter
    v = np.sqrt(_binomial_table(t, c).astype(complex))
    out = np.zeros((c, c), dtype=complex)
    for j in range(c):
        vj = np.diagonal(v, -j)
        out[: c - j, : c - j] += np.outer(vj, vj) * m[j:, j:]
    return DensityOperator(out, c, rho.physical and in_range)


def loss_generator(rho_t: DensityOperator, transmissivity: float) -> np.ndarray:
    """d(rho_T)/dT = -(1/2T)(2 a rho a^dag - a^dag a rho - rho a^dag a)."""
    t = float(transmissivity)
    if t <= 0.0:
        raise ValueError("the generator is singular at T = 0")
    ops = mode_operators(rho_t.cutoff)
    m = rho_t.matrix
    lind = 2.0 * (ops.annihilate @ m @ ops.create) - ops.number @ m - m @ ops.number
    return -lind / (2.0 * t)


def multiplicativity_check(rho: DensityOperator, t1: float, t2: float) -> CheckReport:
    """E_{t1} after E_{t2} equals E_{t1 t2}; deviation in max norm."""
    lhs = apply_loss(apply_loss(rho, t2), t1)
    rhs = apply_loss(rho, t1 * t2)
    dev = float(np.max(np.abs(lhs.matrix - rhs.matrix)))
    return equality_report(
        "loss_multiplicativity", "", {"t1": t1, "t2": t2}, dev, 0.0, 1e-10,
        claim="max |E_t1[E_t2[rho]] - E_{t1 t2}[rho]| = 0",
    )


def transmission_from_decay(gamma_t: float) -> float:
    """T = exp(-gamma t) for exponential amplitude decay."""
    if gamma_t < 0:
        raise ValueError("decay exponent must be nonnegative")
    return float(np.exp(-gamma_t))


def transmission_from_angle(theta: float) -> float:
    """T = cos(theta/2)^2 for a beam-splitter mixing angle."""
    return float(np.cos(theta / 2.0) ** 2)


def transmission_from_efficiency(eta: float) -> float:
    """Detector efficiency is already a transmissivity."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("efficiency must lie in [0, 1]")
    return float(eta)
