"""Pure-loss channel on the truncated ladder: one binomial kernel over a grid of T.

The channel with transmissivity T keeps each photon with probability T, so
a matrix element moves down its diagonal by the number j of photons lost:

    E_T[rho]_mn = sum_j v_j[m] v_j[n] rho_{m+j,n+j},
    v_j[m]^2 = w_j[m] = C(m+j, j) T^m (1-T)^j,

the standard matrix-element form of binomial loss (Leonhardt, *Measuring
the Quantum State of Light*), for 0 <= T <= 1. The sum is exact at finite
cutoff because loss only lowers the photon number.

One kernel serves a whole grid of T: ``loss_blocks`` runs Pascal's rule and
the sum over j with T as a leading axis, one block of at most
``BLOCK_ENTRIES`` matrix entries at a time, and validates each block as one
stack; ``loss_path`` yields its states one by one, and ``apply_loss`` is
the one-T call.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .fock import DensityOperator

# matrix entries per block of T: bounds the kernel's working set at
# 128 KiB per complex stack, whatever the grid length
BLOCK_ENTRIES = 2 ** 13


def _t_blocks(size: int, cutoff: int) -> Iterator[slice]:
    """Consecutive slices of a T grid of ``size`` points, each holding at
    most BLOCK_ENTRIES entries of cutoff x cutoff matrices (at least one T)."""
    step = max(1, BLOCK_ENTRIES // cutoff ** 2)
    return (slice(i, i + step) for i in range(0, size, step))


def _binomial_table(t, cutoff: int) -> np.ndarray:
    """pmf[..., n, m] = C(n, m) T^m (1-T)^(n-m), so w_j[m] = pmf[..., m+j, m];
    the leading axes are those of t.

    Built row by row with Pascal's rule, which holds for any real T; each
    step adds two terms of one sign, so no entry cancels, and on [0, 1]
    no entry exceeds 1."""
    t = np.asarray(t, dtype=float)[..., None]
    pmf = np.zeros(t.shape[:-1] + (cutoff, cutoff))
    pmf[..., 0, 0] = 1.0
    for n in range(1, cutoff):
        pmf[..., n, :n] = (1.0 - t) * pmf[..., n - 1, :n]
        pmf[..., n, 1 : n + 1] += t * pmf[..., n - 1, :n]
    return pmf


def loss_blocks(rho: DensityOperator, transmissivities) -> Iterator[
        tuple[np.ndarray, list[DensityOperator]]]:
    """E_T[rho] for every T of a grid, in grid order, one block of T at a
    time, by the binomial kernel: one rank-1 elementwise term per number j
    of lost photons.

    The whole grid is checked before this returns: every T must be finite
    and lie in 0 <= T <= 1. Each block comes as its read-only (k, c, c)
    stack of matrices and the k states that view it. The block is validated
    as one stack, with one batched eigvalsh for a physical input, so every
    state carries the spectrum that checked it."""
    grid = np.asarray(transmissivities, dtype=float).ravel()
    if not np.all(np.isfinite(grid)):
        raise ValueError("transmissivity must be finite")
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("transmissivity must lie in [0, 1]")
    return _loss_blocks(rho, grid)


def _loss_blocks(rho, grid):
    c, m = rho.cutoff, rho.matrix
    for block in _t_blocks(grid.size, c):
        v = np.sqrt(_binomial_table(grid[block], c))
        out = np.zeros(v.shape, dtype=complex)
        for j in range(c):
            vj = np.diagonal(v, -j, axis1=1, axis2=2)
            out[:, : c - j, : c - j] += vj[:, :, None] * vj[:, None, :] * m[j:, j:]
        yield out, DensityOperator._from_stack(out, rho.physical)


def loss_path(rho: DensityOperator, transmissivities) -> Iterator[DensityOperator]:
    """E_T[rho] for every T of a grid, in grid order: the states of
    ``loss_blocks``, whose grid checks run before this returns."""
    return (state for _, states in loss_blocks(rho, transmissivities) for state in states)


def apply_loss(rho: DensityOperator, transmissivity: float) -> DensityOperator:
    """E_T[rho] at one T: the one-point ``loss_path``."""
    return next(loss_path(rho, [transmissivity]))
