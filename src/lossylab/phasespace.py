"""Phase-space representations: characteristic functions, s-ordered
quasiprobabilities, grids and their CSV export, and the purity by two
independent quadratures, each exact on the state's rule (exact_rule):
laplace_purity from the characteristic function, after loss to
transmissivity T, and overlap_from_quasi from the quasiprobabilities of
orders s and -s.

Conventions. chi_rho(alpha, s) = Tr[rho D(alpha)] exp(s|alpha|^2 / 2). The
s-ordered quasiprobability is P(alpha, s) = (2 / (pi (1-s))) Tr[rho X] with
X = D(alpha) u^N D(alpha)^dag and u = (s+1)/(s-1). Both traces run over the
finite support of rho, every nonzero element of rho counting however small,
and every matrix element of D(alpha) and of X is an associated-Laguerre
closed form, exact up to rounding, so neither has a truncation knob or a
threshold; each real factor is one level of a recurrence in n started at
its part outside the Laguerre polynomial (fock.laguerre_ladder and
fock.ladder_start), numpy alone. s = -1 gives the Husimi function
<alpha|rho|alpha>/pi, s = 0 the Wigner function, and s >= 1 pointwise is
rejected (singular order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock import (DensityOperator, displacement_matrix, ladder_start, laguerre_ladder,
                   product_traces)

IMAG_TOL = 1e-9
DEFAULT_GRID_POINTS = 121


# ---------------------------------------------------------------------------
# exact matrix elements, one Laguerre ladder per block of distinct radii
# ---------------------------------------------------------------------------

# (diagonal, distinct radius) entries per ladder block, counting diagonals
# 0, ..., max k: bounds the kernel's per-block arrays (512 KiB for the
# complex upper and lower sums, as much for their rows by k), whatever the
# number of points
LADDER_ENTRIES = 2 ** 14


def _diagonal_rows(mat: np.ndarray):
    """The diagonals k that hold a nonzero element pair (rho_{n, n+k},
    rho_{n+k, n}), ordered by their last such level n, highest first, then
    by k. Returns (k, stop, levels): diagonal k is wanted for n < stop, and
    levels[n] says whether any diagonal holds such a pair at level n."""
    n, m = np.nonzero(np.triu((mat != 0.0) | (mat.T != 0.0)))
    last = np.full(mat.shape[0], -1)
    np.maximum.at(last, m - n, n)
    k = np.flatnonzero(last >= 0)
    k = k[np.argsort(-last[k], kind="stable")]
    return k, last[k] + 1, (np.bincount(n, minlength=mat.shape[0]) > 0).tolist()


def _radial_sums(mat: np.ndarray, x: np.ndarray, rows, decay: float, gain: float,
                 w: float, c: float):
    """For each diagonal k = 0, ..., max k of ``rows`` (from _diagonal_rows)
    and each x, the sums over n of rho_{n, n+k} and of rho_{n+k, n} times
    the real factor
        e^{decay x} sqrt(n!/(n+k)!) (gain sqrt(x))^k w^n L_n^(k)(-c x / w),
    as an array shaped (max k + 1, 2, x): zero on the diagonals that rows
    leaves out, and for the lower sum of k = 0, which is the upper one. The
    factor is the Laguerre ladder started at e^{decay x} (gain sqrt(x))^k /
    sqrt(k!), so each level is the whole factor as a mantissa and a power of
    two, and neither overflows nor underflows."""
    k, stop, levels = rows
    start = ladder_start(x, int(k.max()) + 1, decay, gain)
    sums = np.zeros((k.size, 2, x.size), dtype=complex)
    ladder = laguerre_ladder(k, -c * x, stop, (start[0][k], start[1][k]), w)
    for n, (mant, exponent) in enumerate(ladder):
        if not levels[n]:
            continue
        live = mant.shape[0]
        term = np.ldexp(mant, exponent)
        sums[:live, 0] += mat[n, n + k[:live], None] * term
        sums[:live, 1] += mat[n + k[:live], n, None] * term
    out = np.zeros((start[0].shape[0], 2, x.size), dtype=complex)
    out[k] = sums
    out[0, 1] = 0.0
    return out


def _pair_trace(rho: DensityOperator, alpha, decay: float, gain: float, w: float,
                c: float, flip: float) -> np.ndarray:
    """Tr[rho K] at every alpha, for a kernel K given by its lower triangle.

    For m = n + k >= n the element is
        <m|K|n> = e^{decay x} sqrt(n!/m!) (gain alpha)^k w^n L_n^(k)(-c x / w)
    with x = |alpha|^2 and gain > 0; the upper triangle is
    <n|K|m> = flip^k conj(<m|K|n>), flip = +-1. Write alpha^k =
    |alpha|^k phase^k: all but phase^k is a real factor of (x, n, k) alone.
    The distinct x are cut into blocks of at most LADDER_ENTRIES (diagonal,
    x) pairs, counting diagonals 0, ..., max k; in each, one Laguerre ladder,
    started at the factor's part outside it, runs up n over every diagonal
    of rho at once and sums the real factor against rho's elements
    (_radial_sums), and only then are the sums spread back to the points, as
    polynomials in phase and in flip conj(phase) evaluated by Horner's rule.
    At w = 0 (which needs c > 0) the ladder gives the limit (c x)^n / n! of
    w^n L_n^(k)(-c x / w), and at alpha = 0 the kernel is diagonal with
    entries w^n. Every step is elementwise per x or per point, so a point's
    value does not depend on the other points of the call. Raises ValueError
    where |alpha|^2 is not finite; returns an array shaped like ``alpha``.
    """
    al = np.asarray(alpha, dtype=complex)
    shape = al.shape
    al = al.ravel()
    with np.errstate(over="ignore"):
        x_point = np.abs(al) ** 2
    if not np.all(np.isfinite(x_point)):
        raise ValueError("alpha and |alpha|^2 must be finite")
    # the points in order of x; each one's phase (1 at the origin), and the
    # index of its x among the distinct ones
    by_radius = np.argsort(x_point)
    x_sorted = x_point[by_radius]
    phase = np.divide(al[by_radius], np.sqrt(x_sorted), out=np.ones(al.shape, dtype=complex),
                      where=x_sorted > 0.0)
    new_x = np.diff(x_sorted, prepend=-1.0) != 0.0
    x, which = x_sorted[new_x], np.cumsum(new_x) - 1
    rows = _diagonal_rows(rho.matrix)
    acc = np.zeros(al.shape, dtype=complex)
    top = int(rows[0].max())
    step = max(1, LADDER_ENTRIES // (top + 1))
    starts = range(0, x.size, step)
    bounds = np.searchsorted(which, [*starts, x.size])
    for block, start in enumerate(starts):
        sums = _radial_sums(rho.matrix, x[start:start + step], rows, decay, gain, w, c)
        span = slice(bounds[block], bounds[block + 1])
        local = which[span] - start
        # Horner's rule in phase (upper triangle), then in flip conj(phase) (lower)
        for side, ph in enumerate((phase[span], flip * np.conj(phase[span]))):
            total = np.take(sums[top, side], local)
            for kk in range(top - 1, -1, -1):
                # out of place: numpy's in-place complex product rounds a
                # one-element array differently from a longer one
                total = total * ph
                total += np.take(sums[kk, side], local)
            acc[by_radius[span]] += total
    return acc.reshape(shape)


# ---------------------------------------------------------------------------
# characteristic function
# ---------------------------------------------------------------------------


def char_fn(rho: DensityOperator, alpha, s: float):
    """s-ordered characteristic function; exact for finite-support states.

    <m|D(alpha)|n> = e^{-x/2} sqrt(n!/m!) alpha^(m-n) L_n^(m-n)(x) for m >= n,
    and <n|D(alpha)|m> = (-1)^(m-n) conj(<m|D(alpha)|n>); the ordering factor
    e^{s x / 2} rides in the exponent. Raises ValueError for a non-finite s.
    """
    if not math.isfinite(s):
        raise ValueError(f"characteristic-function order s must be finite, got {s!r}")
    out = _pair_trace(rho, alpha, decay=(s - 1.0) / 2.0, gain=1.0, w=1.0, c=-1.0,
                      flip=-1.0)
    return complex(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# quasiprobabilities
# ---------------------------------------------------------------------------


def quasi_prob(rho: DensityOperator, alpha, s: float):
    """P_rho(alpha, s) for s < 1; vectorized over alpha.

    One exact route for every order (Cahill & Glauber, Phys. Rev. 177, 1882
    (1969)): for m >= n,
        <m|D(alpha) u^N D(alpha)^dag|n>
            = e^{-(1-u) x} sqrt(n!/m!) (alpha (1-u))^(m-n) u^n
              L_n^(m-n)(-x (1-u)^2 / u),
    the other triangle being its conjugate. Raises ValueError for a
    non-finite s, s >= 1, non-finite alpha, or an imaginary residue above
    IMAG_TOL (a non-finite value or a rho that is not Hermitian).
    """
    if not -math.inf < s < 1.0:
        raise ValueError(f"quasiprobability order s must be finite and below 1, got {s!r}")
    u = (s + 1.0) / (s - 1.0)
    vals = 2.0 / (np.pi * (1.0 - s)) * _pair_trace(
        rho, alpha, decay=-(1.0 - u), gain=1.0 - u, w=u, c=(1.0 - u) ** 2, flip=1.0)
    worst = float(np.max(np.abs(vals.imag)))
    if not worst <= IMAG_TOL:
        raise ValueError(f"quasiprobability has imaginary residue {worst:.3e}")
    out = vals.real
    return float(out) if out.ndim == 0 else out


def wigner_from_parity(rho: DensityOperator, alpha: complex, working_cutoff: int) -> float:
    """Wigner value by the displaced-parity formula at an explicit cutoff.

    Independent of the Laguerre pair kernel of quasi_prob: uses the square
    truncated displacement matrix, so the caller must supply a cutoff generous
    for |alpha|.
    """
    emb = rho.embedded(working_cutoff)
    d = displacement_matrix(alpha, working_cutoff)
    parity = (-1.0) ** np.arange(working_cutoff)
    return float(2.0 / np.pi * product_traces(emb.matrix, (d * parity) @ d.conj().T))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Square grid centered at the origin: n x n points spanning +-half_width."""

    half_width: float
    n: int

    def __post_init__(self):
        if not self.n >= 2:
            raise ValueError(f"grid needs at least 2 points per axis, got {self.n}")
        if not (math.isfinite(self.half_width) and self.half_width > 0.0):
            raise ValueError(f"grid half-width must be finite and positive, "
                             f"got {self.half_width}")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.n)

    def alphas(self) -> np.ndarray:
        return np.add.outer(self.axis(), 1j * self.axis()).ravel()

    @property
    def cell_area(self) -> float:
        step = 2.0 * self.half_width / (self.n - 1)
        return step * step


def default_grid(rho: DensityOperator) -> GridSpec:
    return GridSpec(6.0 + np.sqrt(rho.support() + 0.0), DEFAULT_GRID_POINTS)


@dataclass(frozen=True)
class QuasiProbGrid:
    grid: GridSpec
    order: float
    values: np.ndarray  # (n, n), values[i, j] at axis[i] + 1j axis[j]

    def __post_init__(self):
        vals = np.array(self.values)
        if vals.shape != (self.grid.n, self.grid.n):
            raise ValueError("values must be an n x n array matching the grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def integral(self) -> float:
        return math.fsum(self.values.real.ravel()) * self.grid.cell_area

    def min_value(self) -> float:
        return float(np.min(self.values.real))


def quasi_prob_grid(rho: DensityOperator, s: float, grid: GridSpec) -> QuasiProbGrid:
    values = quasi_prob(rho, grid.alphas(), s)
    return QuasiProbGrid(grid, s, values.reshape(grid.n, grid.n))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _laguerre_pair(n: int, t: np.ndarray):
    """e^{-t/2} (L_{n-1}(t), L_n(t)) / 2^e and the exponent e, entry by entry."""
    start = ladder_start(t, 1, -0.5, 1.0)
    *_, (before, e_before), (last, e_last) = laguerre_ladder([0], t, [n + 1], start)
    return np.ldexp(before, e_before - e_last)[0], last[0], e_last[0]


@lru_cache(maxsize=16)
def _laguerre_rule(n: int):
    """Gauss-Laguerre nodes t and scaled weights W = w e^t, by Golub-Welsch:
    the eigenvalues of the Jacobi matrix of the Laguerre recurrence (diagonal
    2i + 1, off-diagonal i), polished by one Newton step on L_n, and
    W = e^t / (t L_n'^2) = t / (n e^{-t/2} (L_n - L_{n-1}))^2 with the ladder
    carrying e^{-t/2}, scaled to sum W e^{-t} = 0! = 1. The dense Jacobi
    matrix costs O(n^2) memory and O(n^3) time."""
    if n < 1:
        raise ValueError("the radial rule needs at least one node")
    jacobi = np.zeros((n, n))
    jacobi.flat[::n + 1] = 2.0 * np.arange(n) + 1.0
    jacobi.flat[1::n + 1] = jacobi.flat[n::n + 1] = np.arange(1.0, n)
    t = np.linalg.eigvalsh(jacobi)
    before, last, _ = _laguerre_pair(n, t)
    t = t - t * last / (n * (last - before))
    before, last, exponent = _laguerre_pair(n, t)
    scaled = np.ldexp(t / (n * (last - before)) ** 2, -2 * exponent)
    scaled = scaled / np.sum(scaled * np.exp(-t))
    t.flags.writeable = scaled.flags.writeable = False
    return t, scaled


@dataclass(frozen=True)
class Quadrature2D:
    """Gauss-Laguerre radial rule (in |alpha|^2) times angular trapezoid.

    nodes_weights(radial_scale) integrates f over the plane as
    sum w_i f(alpha_i); radial_scale stretches the radial nodes so integrands
    decaying like exp(-|alpha|^2 / radial_scale) are captured at full order.
    """

    n_radial: int
    n_angular: int

    def nodes_weights(self, radial_scale: float = 1.0):
        if radial_scale <= 0:
            raise ValueError("radial_scale must be positive")
        t, scaled = _laguerre_rule(self.n_radial)
        radial_w = 0.5 * radial_scale * scaled * (2.0 * np.pi / self.n_angular)
        thetas = 2.0 * np.pi * np.arange(self.n_angular) / self.n_angular
        alphas = np.outer(np.sqrt(radial_scale * t), np.exp(1j * thetas)).ravel()
        return alphas, np.repeat(radial_w, self.n_angular)


def exact_rule(*states) -> Quadrature2D:
    """(c, 2c - 1) for states on at most c levels: both purity integrands are
    e^{-t} times a polynomial of degree <= 2(c - 1) in each of alpha and
    conj(alpha), so of degree <= 2(c - 1) in t once averaged over the angle,
    which c Gauss-Laguerre nodes integrate, with harmonics e^{ih theta} of
    |h| <= 2(c - 1), which a trapezoid of 2c - 1 angles averages to zero."""
    c = max(state.cutoff for state in states)
    return Quadrature2D(c, 2 * c - 1)


def _exact(quad: Quadrature2D | None, *states) -> Quadrature2D:
    """quad, by default exact_rule(*states); ValueError if shorter than that."""
    need = exact_rule(*states)
    if quad is not None and (quad.n_radial < need.n_radial or quad.n_angular < need.n_angular):
        raise ValueError(f"quadrature {quad.n_radial}:{quad.n_angular} is not exact for a state "
                         f"on {need.n_radial} levels; it needs at least "
                         f"{need.n_radial}:{need.n_angular}")
    return quad or need


def laplace_purity(rho1: DensityOperator, transmissivity: float,
                   quad: Quadrature2D | None = None) -> float:
    """Purity Tr[rho_T^2] of the lossy state from the input's characteristic
    function alone (Tr[rho1^2] at T = 1): (1 / (pi T)) times the integral of
    |chi(alpha, 1 - 1/T)|^2 = e^{-|alpha|^2 / T} |chi(alpha, 1)|^2, one char_fn
    call over quad's nodes at radial scale T. Raises ValueError for T outside
    (0, 1] or with 1/T not finite, and, like overlap_from_quasi, for a rule
    shorter than exact_rule."""
    t = float(transmissivity)
    if not (0.0 < t <= 1.0 and math.isfinite(1.0 / t)):
        raise ValueError("transmissivity must lie in (0, 1], with 1/T finite")
    alphas, weights = _exact(quad, rho1).nodes_weights(t)
    chi = char_fn(rho1, alphas, 1.0 - 1.0 / t)
    return math.fsum(weights * np.abs(chi) ** 2) / (np.pi * t)


def overlap_from_quasi(rho: DensityOperator, sigma: DensityOperator, s: float,
                       quad: Quadrature2D | None = None) -> float:
    """Tr[rho sigma] = pi int P_rho(alpha, s) P_sigma(alpha, -s) d^2 alpha."""
    if abs(s) >= 1.0:
        raise ValueError("overlap pairing needs |s| < 1")
    alphas, weights = _exact(quad, rho, sigma).nodes_weights((1.0 - s * s) / 4.0)
    return np.pi * math.fsum(weights * quasi_prob(rho, alphas, s) * quasi_prob(sigma, alphas, -s))


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------


def write_grid_csv(path, qgrid: QuasiProbGrid, state_label: str,
                   transmissivity: float | None = None) -> None:
    """Row-major grid dump with a descriptor line ahead of the column header.

    Rows end in \\r\\n as csv.writer's default dialect writes them; no cell
    needs quoting, since repr of a float holds no comma, quote or newline.
    One grid row is formatted and written at a time.
    """
    cells = [repr(x) for x in qgrid.grid.axis().tolist()]
    t_part = repr(float(transmissivity)) if transmissivity is not None else "none"
    with open(path, "w", newline="") as fh:
        fh.write(f"# s={qgrid.order!r},T={t_part},state={state_label}\n")
        fh.write("re_alpha,im_alpha,value\r\n")
        for re_cell, row in zip(cells, qgrid.values.real):
            fh.write("".join(f"{re_cell},{im_cell},{v!r}\r\n"
                             for im_cell, v in zip(cells, row.tolist())))
