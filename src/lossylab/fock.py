"""Truncated Fock-space states and operators for one bosonic mode, plus
the beam splitter that couples two.

Everything lives on a finite photon-number ladder |0>, ..., |cutoff-1>. The
ladder operators are never built: ``lowered`` applies a m a^dag and
``lowering_trace`` takes Tr[a^k m] by index shifts, and N weighs level n by
n. Both are exact on the same ladder, because a only lowers the photon
number (the dense a, a^dag and N live in the tests as their oracle); every
Re Tr[x y] of the package is ``product_traces``. The
beam splitter conserves total photon number, so it is kept only as its
blocks, one per total photon number n, over the two-mode states |k, n - k>;
circuits on finite-support inputs are exact whenever the ladders hold the
total photon number; the balanced blocks B(1/2), which the dark-port engine
reads on every call, are kept for the process up to a fixed budget.
Displacement matrices come from one associated-Laguerre ladder
(``laguerre_ladder``) started at the elements' outer factor
(``ladder_start``), which the phase-space kernel shares.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_TOL = 1e-10
TAIL_WARN = 1e-6
_LN2 = math.log(2.0)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on a truncated number ladder.

    ``tail_weight`` records the probability lost to truncation by the
    constructor that produced the state (0 for exact finite states).
    """

    amplitudes: np.ndarray
    cutoff: int
    tail_weight: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if self.cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        if amps.shape != (self.cutoff,):
            raise ValueError(f"amplitude vector must have shape ({self.cutoff},)")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        norm = float(np.linalg.norm(amps))
        if not norm >= 1e-12:
            raise ValueError("cannot normalize a (near-)zero vector")
        object.__setattr__(self, "amplitudes", _readonly(amps / norm))

    @property
    def truncation_warning(self) -> bool:
        return self.tail_weight > TAIL_WARN

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.cutoff)


def _validate_stack(matrices: np.ndarray, physical: bool) -> np.ndarray | None:
    """Check every member of a (..., c, c) complex stack as a density
    operator: finite entries, Hermitian within HERMITICITY_TOL, unit trace
    within TRACE_TOL and, when ``physical``, no eigenvalue below
    -POSITIVITY_TOL by one batched eigvalsh. Raises the message one
    DensityOperator gives for the first member that fails; returns the
    ascending spectra, shape (..., c), or None when not ``physical``.

    Each check runs only on the members before the first failure found so
    far, so the last failure found is the first failing member's first
    failing check."""
    flat = matrices.reshape((-1,) + matrices.shape[-2:])
    failure = None

    def check(ok, message, values=()):
        nonlocal flat, failure
        if not np.all(ok):
            k = int(np.argmin(ok))
            failure = message.format(*(v[k] for v in values))
            flat = flat[:k]

    check(np.all(np.isfinite(flat), axis=(1, 2)), "matrix entries must be finite")
    herm_dev = np.max(np.abs(flat - flat.conj().swapaxes(1, 2)), axis=(1, 2))
    check(herm_dev <= HERMITICITY_TOL,
          "matrix is not Hermitian (deviation {:.3e})", (herm_dev,))
    trace = np.trace(flat, axis1=1, axis2=2)
    trace_dev = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    check(trace_dev <= TRACE_TOL, "trace deviates from 1 by {:.3e}", (trace_dev,))
    eigs = None
    if physical:
        eigs = np.linalg.eigvalsh(flat)
        check(eigs[:, 0] >= -POSITIVITY_TOL,
              "matrix has negative eigenvalue {:.3e}", (eigs[:, 0],))
    if failure is not None:
        raise ValueError(failure)
    return None if eigs is None else eigs.reshape(matrices.shape[:-1])


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian unit-trace operator on the truncated ladder.

    ``physical=False`` skips the positivity check; Hermiticity and unit trace
    are always enforced. That flag exists for deliberately indefinite
    operators used by the convexity counterexample scans. ``eigenvalues``
    keeps the ascending spectrum of the positivity check, read-only; it is
    None when ``physical=False``.
    """

    matrix: np.ndarray
    cutoff: int
    physical: bool = True
    eigenvalues: np.ndarray | None = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (self.cutoff, self.cutoff):
            raise ValueError(f"matrix must have shape ({self.cutoff}, {self.cutoff})")
        eigs = _validate_stack(m[None], self.physical)
        if eigs is not None:
            object.__setattr__(self, "eigenvalues", _readonly(eigs[0]))
        object.__setattr__(self, "matrix", _readonly(m))

    @classmethod
    def _from_stack(cls, matrices: np.ndarray, physical: bool) -> list["DensityOperator"]:
        """One state per member of a (k, c, c) complex stack, validated as
        one stack; the states hold read-only views of the stack and of its
        spectra, and the per-state checks are not run again."""
        eigs = _validate_stack(matrices, physical)
        spectra = [None] * len(matrices) if eigs is None else _readonly(eigs)
        states = []
        for m, spectrum in zip(_readonly(matrices), spectra):
            rho = object.__new__(cls)
            object.__setattr__(rho, "matrix", m)
            object.__setattr__(rho, "cutoff", m.shape[0])
            object.__setattr__(rho, "physical", physical)
            object.__setattr__(rho, "eigenvalues", spectrum)
            states.append(rho)
        return states

    def embedded(self, cutoff: int) -> "DensityOperator":
        if cutoff < self.cutoff:
            raise ValueError("embedding cutoff must not shrink the ladder")
        m = np.zeros((cutoff, cutoff), dtype=complex)
        m[: self.cutoff, : self.cutoff] = self.matrix
        return DensityOperator(m, cutoff, self.physical)

    def support(self) -> int:
        """Highest level with population above 1e-14, as an index."""
        pops = np.abs(np.diag(self.matrix).real)
        nz = np.nonzero(pops > 1e-14)[0]
        return int(nz[-1]) if nz.size else 0


def lowered(matrices: np.ndarray) -> np.ndarray:
    """a m a^dag of each matrix m of a (..., c, c) stack, on the same ladder:
    (a m a^dag)[i, j] = sqrt((i+1)(j+1)) m[i+1, j+1]. Exact, as a lowers the
    photon number; the top row and column are zero."""
    root = np.sqrt(np.arange(1.0, matrices.shape[-1]))
    out = np.zeros(matrices.shape, dtype=np.result_type(matrices, 1.0))
    out[..., :-1, :-1] = root[:, None] * matrices[..., 1:, 1:] * root
    return out


def product_traces(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Re Tr[x y] of each pair of matrices of two (..., c, c) stacks."""
    return np.einsum("...ij,...ji->...", x, y).real


def ladder_traces(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Tr[N m m], Tr[a m a^dag m]) of each matrix m of a (..., c, c) stack."""
    n = np.arange(matrices.shape[-1])[:, None]
    return product_traces(n * matrices, matrices), product_traces(lowered(matrices), matrices)


def lowering_trace(matrices: np.ndarray, power: int = 1) -> np.ndarray:
    """Tr[a^k m] = sum_j sqrt((j+1) ... (j+k)) m[j+k, j], k = power, of each
    matrix m of a (..., c, c) stack; a^k m is exact on the same ladder."""
    j = np.arange(matrices.shape[-1] - power, dtype=float)
    rising = np.prod(j[:, None] + np.arange(1.0, power + 1.0), axis=1)
    return np.diagonal(matrices, -power, axis1=-2, axis2=-1) @ np.sqrt(rising)


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------


def make_fock(n: int, cutoff: int) -> PureState:
    if not 0 <= n < cutoff:
        raise ValueError(f"photon number {n} outside ladder of cutoff {cutoff}")
    amps = np.zeros(cutoff, dtype=complex)
    amps[n] = 1.0
    return PureState(amps, cutoff)


def make_coherent(alpha: complex, cutoff: int) -> PureState:
    """Truncated coherent state; tail weight beyond the cutoff is recorded."""
    amps = np.empty(cutoff, dtype=complex)
    amps[0] = np.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, cutoff):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    return PureState(amps, cutoff, tail_weight=tail)


def make_squeezed_vacuum(r: float, cutoff: int) -> PureState:
    """Truncated squeezed vacuum with even-only support and <N> = sinh(r)^2."""
    amps = np.zeros(cutoff, dtype=complex)
    amps[0] = 1.0 / np.sqrt(np.cosh(r))
    m = 1
    while 2 * m < cutoff:
        ratio = -np.tanh(r) * np.sqrt((2 * m - 1) * (2 * m)) / (2 * m)
        amps[2 * m] = amps[2 * m - 2] * ratio
        m += 1
    tail = max(0.0, 1.0 - float(np.sum(np.abs(amps) ** 2)))
    return PureState(amps, cutoff, tail_weight=tail)


def random_pure(seed: int, cutoff: int) -> PureState:
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(cutoff) + 1j * rng.standard_normal(cutoff)
    return PureState(amps, cutoff)


def random_mixed(seed: int, cutoff: int, rank: int) -> DensityOperator:
    if not 1 <= rank <= cutoff:
        raise ValueError("rank must lie in [1, cutoff]")
    rng = np.random.default_rng(seed)
    weights = rng.random(rank)
    weights = weights / weights.sum()
    m = np.zeros((cutoff, cutoff), dtype=complex)
    for w in weights:
        v = rng.standard_normal(cutoff) + 1j * rng.standard_normal(cutoff)
        v = v / np.linalg.norm(v)
        m += w * np.outer(v, v.conj())
    return DensityOperator(m, cutoff)


# ---------------------------------------------------------------------------
# displacement
# ---------------------------------------------------------------------------


def ladder_start(x: np.ndarray, count: int, decay: float, gain: float):
    """e^{decay x} (gain sqrt(x))^k / sqrt(k!) for k = 0, ..., count - 1 as
    (mantissa, exponent), rows k and columns the entries of the 1-D ``x``:
    the exponential splits off its power of two first (representable for
    |decay x| up to 2^29; beyond that the mantissa is 0 or inf), and each
    further row is the last times gain sqrt(x) / sqrt(k), rescaled by a power
    of two at every step."""
    mant = np.empty((count, x.size))
    exponent = np.empty(mant.shape, dtype=np.int32)
    exponent[0] = np.clip(np.floor(decay * x / _LN2), -2.0 ** 30, 2.0 ** 30)
    mant[0] = np.exp(decay * x - _LN2 * exponent[0])
    root = gain * np.sqrt(x)
    for j in range(1, count):
        mant[j], shift = np.frexp(mant[j - 1] * root / math.sqrt(j))
        exponent[j] = exponent[j - 1] + shift
    return mant, exponent


def laguerre_ladder(k, z, stop, start, w: float = 1.0):
    """``start`` times sqrt(n! k! / (n+k)!) w^n L_n^(k)(z / w) for n = 0, 1,
    ..., one level per step, by the three-term recurrence
        L_{n+1} = ((2n+1+k - y) L_n - (n+k) L_{n-1}) / (n+1)
    at y = z / w, carried in its forward-difference form, as the level L_n
    and its step D_n = L_n - L_{n-1}, which keeps it accurate where y is
    small:
        D_{n+1} = ((n+k) D_n - y L_n) / (n+1),  L_{n+1} = L_n + D_{n+1};
    both are carried times w^n, so that w = 0 gives the limit (-z)^n / n!,
    times sqrt(n! k! / (n+k)!), the ratio of the matrix elements that the
    kernels built on it need (1 at k = 0), and times the kernel's outer
    factor ``start``, a (mantissa, exponent) pair shaped (rows, columns) such
    as ``ladder_start`` gives, which is level 0. Rows are the orders ``k``
    (1-D), columns the arguments ``z`` (1-D); row i is wanted for
    n < stop[i], and stop must not increase along the rows, so step n
    yields the first #{stop > n} rows only.

    Each step yields (mantissa, exponent), the level being
    mantissa * 2**exponent entry by entry: after every step both carried
    numbers are rescaled by the power of two that brings the level into
    [1/2, 1), which adds no rounding, so no level overflows at any ladder
    length the package accepts. (A computed level is 0 or within about
    2^53 of the step it was summed from, so the step stays in range too.)"""
    k = np.asarray(k, dtype=float)[:, None]
    z = np.asarray(z, dtype=float)[None, :]
    stop = np.asarray(stop)
    counts = np.searchsorted(-stop, -np.arange(stop[0] if stop.size else 0))
    level, exponent = start
    diff = level
    kw = k * w
    for n, rows in enumerate(counts.tolist()):
        if rows < k.shape[0]:
            level, diff, exponent = level[:rows], diff[:rows], exponent[:rows]
            k, kw = k[:rows], kw[:rows]
        yield level, exponent
        # sqrt(n! k! / (n+k)!) at n + 1 over its value at n
        ratio = np.sqrt((n + 1.0) / (k + (n + 1.0)))
        diff = (ratio / (n + 1)) * ((kw + n * w) * diff - z * level)
        level, shift = np.frexp((ratio * w) * level + diff)
        diff = np.ldexp(diff, -shift)
        exponent = exponent + shift


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Matrix of D(alpha) on the truncated ladder.

    Every element is exact up to rounding, so inner products against
    finite-support states carry no truncation error; unitarity of the
    truncated matrix itself degrades as |alpha| approaches sqrt(cutoff).
    Diagonal k below the main one holds, for m = n + k,
        <m|D(alpha)|n> = e^{-x/2} sqrt(n!/m!) alpha^k L_n^(k)(x),  x = |alpha|^2,
    and diagonal k above it is conj of the same with -alpha, as
    D(alpha)^dag = D(-alpha). One Laguerre ladder over all diagonals serves
    both triangles: started at e^{-x/2} |alpha|^k / sqrt(k!), it yields each
    element but its phase^k as a mantissa and a power of two.
    """
    x = abs(alpha) ** 2
    if x == 0.0:
        return np.eye(cutoff, dtype=complex)
    k = np.arange(cutoff)
    start = ladder_start(np.array([x]), cutoff, -0.5, 1.0)
    phase_k = (alpha / abs(alpha)) ** k
    flip_k = (-1.0) ** k
    d = np.empty((cutoff, cutoff), dtype=complex)
    for n, (mant, exponent) in enumerate(laguerre_ladder(k, [x], cutoff - k, start)):
        live = cutoff - n  # diagonals k = 0, ..., live - 1 reach level n
        elem = phase_k[:live] * np.ldexp(mant[:, 0], exponent[:, 0])
        d[n:, n] = elem
        d[n, n + 1:] = np.conj(flip_k[1:live] * elem[1:])
    return d


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------


def block_indices(n: int, c1: int, c2: int) -> range:
    """Mode-1 counts k of the states |k, n - k> that a c1 x c2 box holds."""
    return range(max(0, n - c2 + 1), min(n, c1 - 1) + 1)


# B(1/2) blocks n = 0, 1, ... kept for the process once built, in order, up
# to BALANCED_ENTRIES matrix entries in all (2 MiB: blocks 0 to 90, which
# the dark-port engine reads up to cutoff 46); every later block streams
BALANCED_ENTRIES = 2 ** 18
_balanced_prefix: list[np.ndarray] = []
_prefix_lock = threading.Lock()


def splitter_blocks(count: int):
    """Blocks n = 0, ..., count - 1 of the balanced splitter
    B = exp(pi/4 (a1 a2^dag - a1^dag a2)) over |k, n - k>, k = 0, ..., n: real,
    read-only, exact on any ladder that holds n photons in each mode. With
    X1 = B a1^dag B^dag = (a1^dag + a2^dag)/sqrt(2) and
    X2 = B a2^dag B^dag = (a2^dag - a1^dag)/sqrt(2), column K of block n is
    [sqrt(K) X1 (column K-1) + sqrt(n-K) X2 (column K)] / n of block n - 1; either
    term alone is unstable (error 5e-3 at n = 100).

    The blocks kept so far come first, and the recurrence goes on from the
    last of them, keeping each new block while the kept ones hold at most
    BALANCED_ENTRIES entries."""
    kept = _balanced_prefix
    head = kept[:count]
    yield from head
    root = np.sqrt(np.arange(count + 1.0))
    half = np.sqrt(0.5) * root
    block = head[-1] if head else np.ones((1, 1))
    for n in range(len(head), count):
        if n:
            pad = np.zeros((n + 2, n + 2))  # block n - 1 inside a border of zeros
            pad[1:-1, 1:-1] = block
            # sqrt(K) times column K - 1, and sqrt(n - K) times column K
            left, right = pad[:, :-1] * root[: n + 1], pad[:, 1:] * root[n::-1]
            # a1^dag takes row j - 1 to row j with sqrt(j); a2^dag keeps row j with sqrt(n - j)
            block = (half[: n + 1, None] * left[:-1] + half[n::-1, None] * left[1:]
                     + half[n::-1, None] * right[1:] - half[: n + 1, None] * right[:-1])
            block /= n
        block = _readonly(block)
        # blocks 0, ..., n hold (n + 1)(n + 2)(2n + 3) / 6 entries
        if n == len(kept) and (n + 1) * (n + 2) * (2 * n + 3) // 6 <= BALANCED_ENTRIES:
            with _prefix_lock:  # another walk may have kept block n since
                if n == len(kept):
                    kept.append(block)
        yield block
