import cmath
import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import expm
from scipy.ndimage import convolve1d
from scipy.special import eval_genlaguerre, gammaln, hyp2f1

from lossylab.conjectures import MEAN_N_FLOOR
from lossylab.fock import DensityOperator, PureState, random_mixed, random_pure
from lossylab.inequalities import EXACT_TOL
from lossylab.loss import _binomial_table, _t_blocks, apply_loss, loss_path
from lossylab.phasespace import QuasiProbGrid, char_fn, quasi_prob
from lossylab.purity import purity
from lossylab.qcs import QcsResult
from lossylab.reports import CheckReport, equality_report

# CI selects this with --hypothesis-profile=ci: a failure prints the blob
# that replays it with @reproduce_failure, and a slow runner cannot trip a
# deadline
settings.register_profile("ci", print_blob=True, deadline=None)


@dataclass(frozen=True)
class ModeOperatorSet:
    """Dense ladder operators a, a^dag, N, X, P at a fixed cutoff."""

    annihilate: np.ndarray
    create: np.ndarray
    number: np.ndarray
    x: np.ndarray
    p: np.ndarray
    cutoff: int


@lru_cache(maxsize=64)
def mode_operators(cutoff: int) -> ModeOperatorSet:
    """Oracle for the index-shift ladder operators of ``lossylab.fock``:
    the truncated dense matrices, with every product formed in full."""
    a = np.diag(np.sqrt(np.arange(1, cutoff, dtype=float)), 1).astype(complex)
    adag = a.conj().T
    num = adag @ a
    x = (adag + a) / np.sqrt(2.0)
    p = 1j * (adag - a) / np.sqrt(2.0)
    for arr in (a, adag, num, x, p):
        arr.flags.writeable = False
    return ModeOperatorSet(a, adag, num, x, p, cutoff)


@pytest.fixture
def pure_corpus():
    def build(count, cutoff=8, seed0=100):
        return [(f"pure:{seed0 + i}", random_pure(seed0 + i, cutoff))
                for i in range(count)]
    return build


@pytest.fixture
def mixed_corpus():
    def build(count, cutoff=8, rank=3, seed0=300):
        return [(f"mixed:{seed0 + i}", random_mixed(seed0 + i, cutoff, rank))
                for i in range(count)]
    return build


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def dense_splitter():
    """Oracle for the beam splitter: expm of theta (a1 a2^dag - a1^dag a2)
    on a c x c box, theta = arccos(sqrt(T)).

    The truncated generator still conserves total photon number, so every
    block with n < c is exact and every clipped block is the exponential of
    the clipped generator.
    """
    def build(c, transmissivity):
        a = mode_operators(c).annihilate
        eye = np.eye(c)
        a1, a2 = np.kron(a, eye), np.kron(eye, a)
        generator = a1 @ a2.conj().T - a1.conj().T @ a2
        return expm(np.arccos(np.sqrt(transmissivity)) * generator)
    return build


def eigh_splitter_block(n: int, transmissivity: float) -> np.ndarray:
    """Oracle for ``fock.splitter_blocks``: block n of
    B(T) = exp(theta (a1 a2^dag - a1^dag a2)), theta = arccos(sqrt(T)), on
    |k, n - k> for k = 0, ..., n, by diagonalizing the Hermitian tridiagonal
    H = i (a1 a2^dag - a1^dag a2), so B = exp(-i theta H). Complex, and
    exact to eigensolver precision."""
    theta = np.arccos(np.sqrt(transmissivity))
    k = np.arange(1, n + 1)
    hop = 1j * np.sqrt(k * (n - k + 1))
    h = np.diag(hop, 1) + np.diag(-hop, -1)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * theta * w)) @ v.conj().T


@pytest.fixture(name="eigh_splitter_block", scope="session")
def eigh_splitter_block_fixture():
    return eigh_splitter_block


def _box_indices(n, c1, c2):
    # mode-1 counts k of the states |k, n - k> in a c1 x c2 box
    return np.arange(max(0, n - c2 + 1), min(n, c1 - 1) + 1)


def spectral_dark_populations(rho: DensityOperator, sigma: DensityOperator) -> np.ndarray:
    """Oracle for ``purity.pair_dark_populations``: the spectral route.

    Every pair of eigenvectors of rho and sigma is sent through B(1/2)^dag
    as a state vector, one total-photon-number block at a time, with the
    eigh oracle blocks, and weighted by its product of signed eigenvalues,
    so indefinite operators work too; eigenvalues with |w| <= 1e-15 are
    dropped. O(rank^2) vectors per block.
    """
    def eigenpairs(m):
        w, v = np.linalg.eigh(m)
        keep = np.abs(w) > 1e-15
        return w[keep], v[:, keep]

    cr, cs = rho.cutoff, sigma.cutoff
    wr, vr = eigenpairs(rho.matrix)
    ws, vs = eigenpairs(sigma.matrix)
    weights = np.outer(wr, ws).ravel()
    d = cr + cs - 1
    pops = np.zeros(d)
    for n in range(d):
        ks = _box_indices(n, cr, cs)
        # amplitudes <k, n - k | v_i, v_j> of every eigenvector pair (i, j)
        amps = (vr[ks, :, None] * vs[n - ks, None, :]).reshape(ks.size, -1)
        out = eigh_splitter_block(n, 0.5)[ks].conj().T @ amps  # rows |a, n - a>
        pops[n::-1] += np.abs(out) ** 2 @ weights
    return pops


@pytest.fixture(name="spectral_dark_populations", scope="session")
def spectral_dark_populations_fixture():
    return spectral_dark_populations


@pytest.fixture
def dark_port_distribution():
    """Oracle for the dark-port engine: difference-mode number populations
    of a dense two-mode operator phi with row index n1 * c2 + n2, for
    (c1, c2) = cutoffs.

    B(1/2) conserves total photon number, so only the diagonal blocks
    Phi[n, n] reach the diagonal of B^dag Phi B; each is rotated by its
    own eigh oracle block.
    """
    def rotate(phi, cutoffs):
        c1, c2 = cutoffs
        d = c1 + c2 - 1
        pops = np.zeros(d)
        for n in range(d):
            ks = _box_indices(n, c1, c2)
            rows = ks * c2 + (n - ks)
            b = eigh_splitter_block(n, 0.5)[ks]
            diag = np.einsum("ka,kl,la->a", b.conj(), phi[np.ix_(rows, rows)], b)
            pops[n::-1] += diag.real
        return pops
    return rotate


@pytest.fixture
def dense_dark_port(dense_splitter):
    """Oracle for the dark-port g2 scan: the difference-port state of two
    copies of rho at transmissivity T, as a DensityOperator.

    The pair is embedded in a box of d = 2c - 1 levels per mode, which holds
    its total photon number, conjugated by the dense balanced splitter,
    reweighted by sqrt(1 - 2T) per difference-port photon, and traced over
    the sum port. O(d^6) time: keep c <= 6.
    """
    def build(rho, t):
        c = rho.cutoff
        d = 2 * c - 1
        big = np.zeros((d, d), dtype=complex)
        big[:c, :c] = rho.matrix
        u = dense_splitter(d, 0.5)
        phi = u.conj().T @ np.kron(big, big) @ u
        w = np.tile(np.sqrt((1.0 - 2.0 * t) ** np.arange(d)), d)
        weighted = (w[:, None] * phi * w[None, :]).reshape(d, d, d, d)
        reduced = np.einsum("ijil->jl", weighted)
        reduced /= np.trace(reduced).real
        return DensityOperator((reduced + reduced.conj().T) / 2.0, d)
    return build


class KrausLoss:
    """Oracle for the binomial loss kernel: the Kraus sum
    E_T[rho] = sum_n K_n rho K_n^dag with
    K_n = sqrt(T)^(a^dag a) (sqrt(1-T) a)^n / sqrt(n!), built from dense
    ladder-operator products, O(c^4).

    The sum is exact at finite cutoff because a only lowers the photon
    number; completeness_deviation checks sum_n K_n^dag K_n = 1.
    """

    @staticmethod
    def operators(transmissivity, cutoff):
        t = transmissivity
        a = mode_operators(cutoff).annihilate
        root_t_pow = np.diag(np.sqrt(t) ** np.arange(cutoff)).astype(complex)
        kraus = []
        a_power = np.eye(cutoff, dtype=complex)
        for n in range(cutoff):
            if n > 0:
                a_power = a @ a_power
            coeff = np.sqrt(1.0 - t) ** n * np.exp(-0.5 * gammaln(n + 1))
            kraus.append(root_t_pow @ (coeff * a_power))
        return kraus

    def completeness_deviation(self, transmissivity, cutoff):
        acc = sum(k.conj().T @ k for k in self.operators(transmissivity, cutoff))
        return float(np.max(np.abs(acc - np.eye(cutoff))))

    def __call__(self, matrix, transmissivity):
        kraus = self.operators(transmissivity, matrix.shape[0])
        return sum(k @ matrix @ k.conj().T for k in kraus)


@pytest.fixture
def kraus_loss():
    return KrausLoss()


def per_t_loss_oracle(rho, transmissivity):
    """Oracle for ``loss_path``: the binomial kernel at one T, with its own
    Pascal-rule table and sum over the number j of lost photons. The float
    operations and their order per element are the kernel's (its weights
    are complex where the kernel's are real, which on 0 <= T <= 1 gives the
    same bits), so every result must be bit-equal."""
    t = float(transmissivity)
    if not np.isfinite(t):
        raise ValueError("transmissivity must be finite")
    c = rho.cutoff
    m = rho.matrix
    pmf = np.zeros((c, c))
    pmf[0, 0] = 1.0
    for n in range(1, c):
        pmf[n, :n] = (1.0 - t) * pmf[n - 1, :n]
        pmf[n, 1 : n + 1] += t * pmf[n - 1, :n]
    v = np.sqrt(pmf.astype(complex))
    out = np.zeros((c, c), dtype=complex)
    for j in range(c):
        vj = np.diagonal(v, -j)
        out[: c - j, : c - j] += np.outer(vj, vj) * m[j:, j:]
    return DensityOperator(out, c, rho.physical)


@pytest.fixture(scope="session")
def per_t_loss():
    # stateless, so the Hypothesis tests may share one across inputs
    return per_t_loss_oracle


class DenseTwoCopy:
    """Oracle for the two-copy coherence-scale route: dense kron products on
    a two-mode box of (c + 2)^2 levels, with the swap Shat and
    Nhat = ((X1-X2)^2 + (P1-P2)^2)/2 Shat, so
    C^2 = Tr[(rho x rho) Nhat] / Tr[(rho x rho) Shat]. O(c^6) time and O(c^4)
    memory: keep c <= 12.

    The quadratures are truncated ladders, so a product of two is wrong only
    where it passes through the top level; PAD = 2 levels above rho keep
    every entry the traces read exact.
    """

    PAD = 2

    @staticmethod
    def operators(c):
        ops = mode_operators(c)
        eye = np.eye(c)
        x1, x2 = np.kron(ops.x, eye), np.kron(eye, ops.x)
        p1, p2 = np.kron(ops.p, eye), np.kron(eye, ops.p)
        # |i, j> -> |j, i>
        swap = np.eye(c * c)[np.arange(c * c).reshape(c, c).T.ravel()]
        nhat = 0.5 * ((x1 - x2) @ (x1 - x2) + (p1 - p2) @ (p1 - p2)) @ swap
        return ops, swap, nhat

    def __call__(self, matrix):
        c = matrix.shape[0] + self.PAD
        m = np.zeros((c, c), dtype=complex)
        m[: -self.PAD, : -self.PAD] = matrix
        _, swap, nhat = self.operators(c)
        pair = np.kron(m, m)
        num = np.einsum("ij,ji->", pair, nhat).real
        return float(num / np.einsum("ij,ji->", pair, swap).real)

    def swap_identity_deviation(self, cutoff):
        """Max deviation of (a1^dag - a2^dag)(a1 - a2) Shat from Nhat - Shat,
        on the levels below cutoff - PAD of each mode: the identity is exact
        there, away from the clipped corner of the truncated products."""
        ops, swap, nhat = self.operators(cutoff)
        eye = np.eye(cutoff)
        diff = np.kron(ops.annihilate, eye) - np.kron(eye, ops.annihilate)
        lhs = diff.conj().T @ diff @ swap
        inner = cutoff - self.PAD
        keep = (np.arange(cutoff)[:, None] < inner) & (np.arange(cutoff)[None, :] < inner)
        return float(np.max(np.abs((lhs - (nhat - swap))[np.ix_(keep.ravel(), keep.ravel())])))


@pytest.fixture(scope="session")
def dense_two_copy():
    # stateless, so the Hypothesis tests may share one across inputs
    return DenseTwoCopy()


class DenseCommutator:
    """Oracle for the commutator coherence-scale route:
    C^2 = (||[X, rho]||_F^2 + ||[P, rho]||_F^2) / (2 Tr[rho^2]) with dense
    truncated quadratures on a box of c + PAD levels.

    X and P move the photon number by one, so a box of c + 1 levels already
    holds [X, rho] and [P, rho] exactly; PAD = 2 adds a level above that, so
    the oracle does not share the route's box size.
    """

    PAD = 2

    def __call__(self, matrix):
        c = matrix.shape[0] + self.PAD
        m = np.zeros((c, c), dtype=complex)
        m[: -self.PAD, : -self.PAD] = matrix
        ops = mode_operators(c)
        spread = sum(np.sum(np.abs(q @ m - m @ q) ** 2) for q in (ops.x, ops.p))
        return float(spread / (2.0 * np.einsum("ij,ji->", m, m).real))


@pytest.fixture(scope="session")
def dense_commutator():
    # stateless, so the Hypothesis tests may share one across inputs
    return DenseCommutator()


# Oracle for ``phasespace._pair_trace``: the same closed form, with every
# element formed at every point instead of once per distinct |alpha|^2.
def per_point_pair_trace(rho: DensityOperator, alpha, decay: float, gain: float, w: float,
                c: float, flip: float) -> np.ndarray:
    """Tr[rho K] at every alpha, for a kernel K given by its lower triangle.

    For m = n + k >= n the element is
        <m|K|n> = e^{decay x} sqrt(n!/m!) (gain alpha)^k w^n L_n^(k)(-c x / w)
    with x = |alpha|^2 and gain > 0; the upper triangle is
    <n|K|m> = flip^k conj(<m|K|n>). The magnitude is formed in the log domain
    so large powers and Laguerre values never overflow on their own. At w = 0
    (which needs c > 0) the factor w^n L_n^(k)(-c x / w) takes its limit
    (c x)^n / n!, and at alpha = 0 the kernel is diagonal with entries w^n.
    Returns an array shaped like ``alpha``.
    """
    al = np.asarray(alpha, dtype=complex)
    if not np.all(np.isfinite(al)):
        raise ValueError("alpha must be finite")
    shape = al.shape
    al = al.ravel()
    x = np.abs(al) ** 2
    nz = x > 0.0
    phase = np.ones_like(al)
    phase[nz] = al[nz] / np.sqrt(x[nz])
    cutoff = rho.cutoff
    lg = gammaln(np.arange(cutoff + 1) + 1.0)
    mat = rho.matrix
    acc = np.zeros(al.shape, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        log_gain_r = np.log(gain) + 0.5 * np.log(x)
        for k in range(cutoff):
            upper = np.diagonal(mat, k)    # rho_{n, n+k}
            lower = np.diagonal(mat, -k)   # rho_{n+k, n}
            n = np.nonzero((upper != 0.0) | (lower != 0.0))[0]
            if n.size == 0:
                continue
            col = n[:, None]
            logmag = decay * x + 0.5 * (lg[col] - lg[col + k]) + k * log_gain_r
            if w == 0.0:
                logmag = logmag + col * np.log(c * x) - lg[col]
                sign = 1.0
            else:
                lag = eval_genlaguerre(col, k, (-c / w) * x)
                logmag = logmag + col * np.log(abs(w)) + np.log(np.abs(lag))
                sign = np.sign(lag) * np.sign(w) ** col
            elem = sign * np.exp(logmag) * phase ** k
            elem[:, ~nz] = (w ** n)[:, None] if k == 0 else 0.0
            acc += np.einsum("n,nP->P", upper[n], elem)
            if k > 0:
                acc += np.einsum("n,nP->P", flip ** k * lower[n], np.conj(elem))
    return acc.reshape(shape)


def fock_quasi_exact(n: int, alpha, s: float) -> np.ndarray:
    """P(alpha, s) of |n><n| from exact rationals: at x = |alpha|^2 and s as
    the floats they are, (2 / (pi (1-s))) e^{-(1-u) x} u^n L_n(-x (1-u)^2 / u)
    with u = (s+1)/(s-1), the part u^n L_n(.) taken exactly from the
    explicit sum L_n(y) = sum_j C(n, j) (-y)^j / j!, and only the prefactor
    in floating point. Needs s != -1."""
    s_q = Fraction(s)
    u = (s_q + 1) / (s_q - 1)
    coefficients = [Fraction(math.comb(n, j) * (-1) ** j, math.factorial(j))
                    for j in range(n + 1)]
    out = []
    for x in (np.abs(np.asarray(alpha, dtype=complex)) ** 2).tolist():
        x_q = Fraction(x)
        y = -x_q * (1 - u) ** 2 / u
        lag = Fraction(0)
        for coefficient in reversed(coefficients):
            lag = lag * y + coefficient
        prefactor = 2.0 / (math.pi * float(1 - s_q)) * math.exp(-float((1 - u) * x_q))
        out.append(prefactor * float(u ** n * lag))
    return np.array(out)


@pytest.fixture(name="fock_quasi_exact", scope="session")
def fock_quasi_exact_fixture():
    return fock_quasi_exact


def decimal_pair_trace(rho: DensityOperator, alpha, decay: float, gain: float, w: float,
                       c: float, flip: float, digits: int = 40) -> np.ndarray:
    """Tr[rho K] for the kernel of ``per_point_pair_trace``, in decimal
    arithmetic at ``digits`` significant digits from the exact values of the
    float inputs: x = re^2 + im^2, sqrt(x) and the phase alpha / sqrt(x) are
    formed at that precision, L_n^(k)(-c x / w) comes from its three-term
    recurrence, and only the result is rounded to double. Where the trace's
    terms cancel a thousandfold, routes in double are off by more than 1e-13
    of the value; this one is not. Needs w != 0 and flip = +-1. Returns an
    array shaped like ``alpha``."""
    al = np.asarray(alpha, dtype=complex)
    cutoff, mat = rho.cutoff, rho.matrix
    with localcontext() as ctx:
        ctx.prec = digits
        decay, gain, w, c = map(Decimal, (decay, gain, w, c))
        to_decimal = np.frompyfunc(Decimal, 1, 1)
        re, im = to_decimal(al.real.ravel()), to_decimal(al.imag.ravel())
        x_point = re * re + im * im
        x, which = np.unique(x_point, return_inverse=True)
        r = np.frompyfunc(Decimal.sqrt, 1, 1)(x)
        y = -c * x / w
        # per k and distinct x, the sums over n of rho_{n, n+k} (row 0) and of
        # flip^k rho_{n+k, n} (row 1, none on the main diagonal) times
        # e^{decay x} sqrt(n!/(n+k)!) (gain sqrt(x))^k w^n L_n^(k)(y), as re, im
        sums = np.full((cutoff, 2, 2, x.size), Decimal(0), dtype=object)
        outer = np.frompyfunc(Decimal.exp, 1, 1)(decay * x)
        for k in range(cutoff):
            before, level = np.full(x.size, Decimal(0)), np.full(x.size, Decimal(1))
            for n in range(cutoff - k):
                if n:
                    before, level = level, ((2 * n - 1 + k - y) * level
                                            - (n - 1 + k) * before) / n
                f = (Decimal(math.factorial(n)) / math.factorial(n + k)).sqrt() * w ** n * level
                pair = (mat[n, n + k], flip ** k * mat[n + k, n] if k else 0.0)
                for row, z in enumerate(pair):
                    sums[k, row, 0] += Decimal(z.real) * f
                    sums[k, row, 1] += Decimal(z.imag) * f
            sums[k] *= outer
            outer = outer * gain * r
        # per point, sum_k row0_k phase^k + row1_k conj(phase)^k
        nz = x_point != 0
        p_re, p_im = np.full(re.size, Decimal(1)), np.full(re.size, Decimal(0))
        p_re[nz], p_im[nz] = re[nz] / r[which][nz], im[nz] / r[which][nz]
        q_re, q_im = np.full(re.size, Decimal(1)), np.full(re.size, Decimal(0))
        t_re, t_im = q_im, q_im
        for k in range(cutoff):
            (a_re, a_im), (b_re, b_im) = sums[k, 0][:, which], sums[k, 1][:, which]
            t_re = t_re + (a_re + b_re) * q_re + (b_im - a_im) * q_im
            t_im = t_im + (a_im + b_im) * q_re + (a_re - b_re) * q_im
            q_re, q_im = q_re * p_re - q_im * p_im, q_re * p_im + q_im * p_re
        out = t_re.astype(float) + 1j * t_im.astype(float)
    return out.reshape(al.shape)


@pytest.fixture(scope="session")
def exact_kernel():
    return decimal_pair_trace


@pytest.fixture(scope="session")
def per_point_kernel():
    return per_point_pair_trace


def convolve_quasi(src: QuasiProbGrid, delta_s: float) -> QuasiProbGrid:
    """Lower the order by Gaussian convolution; only delta_s < 0 is defined."""
    if delta_s >= 0.0:
        raise ValueError("order can only be lowered (delta_s < 0)")
    n = src.grid.n
    step = 2.0 * src.grid.half_width / (n - 1)
    offsets = step * np.arange(-(n - 1), n)
    kernel = np.exp(2.0 * offsets ** 2 / delta_s)
    smoothed = convolve1d(src.values, kernel, axis=0, mode="constant")
    smoothed = convolve1d(smoothed, kernel, axis=1, mode="constant")
    prefactor = 2.0 / (np.pi * abs(delta_s)) * src.grid.cell_area
    return QuasiProbGrid(src.grid, src.order + delta_s, prefactor * smoothed)


@pytest.fixture(name="convolve_quasi")
def convolve_quasi_fixture():
    # a test helper only: the library has no Gaussian order conversion, and
    # scipy.ndimage stays out of every CLI process
    return convolve_quasi


# Oracle for ``fock.displacement_matrix``: the same closed form, one scalar
# scipy call per element.
def _displacement_element(m: int, n: int, alpha: complex) -> complex:
    # <m|D(alpha)|n> for m >= n; the m < n case is handled by the caller.
    x = abs(alpha) ** 2
    log_coef = 0.5 * (gammaln(n + 1) - gammaln(m + 1))
    lag = eval_genlaguerre(n, m - n, x)
    return np.exp(log_coef - x / 2.0) * alpha ** (m - n) * lag


def per_element_displacement(alpha: complex, cutoff: int) -> np.ndarray:
    d = np.empty((cutoff, cutoff), dtype=complex)
    for m in range(cutoff):
        for n in range(cutoff):
            if m >= n:
                d[m, n] = _displacement_element(m, n, alpha)
            else:
                # D(alpha)^dag = D(-alpha)
                d[m, n] = np.conj(_displacement_element(n, m, -alpha))
    return d


@pytest.fixture(scope="session")
def displacement_oracle():
    return per_element_displacement


def fock_purity_closed_form(n: int, transmissivity):
    """Purity of a lossy number state, sum_k (C(n, k) T^k (1-T)^(n-k))^2, valid
    for any real transmissivity; each binomial row comes from Pascal's rule."""
    t = np.asarray(transmissivity, dtype=float)
    flat = t.ravel()
    acc = np.empty(flat.size)
    for block in _t_blocks(flat.size, n + 1):
        acc[block] = np.sum(_binomial_table(flat[block], n + 1)[:, n] ** 2, axis=-1)
    return float(acc[0]) if t.ndim == 0 else acc.reshape(t.shape)


@pytest.fixture(name="fock_purity_closed_form", scope="session")
def fock_purity_closed_form_fixture():
    return fock_purity_closed_form


def squeezed_dark_populations(r: float, size: int) -> np.ndarray:
    """Dark-port populations q_0, ..., q_(size-1) of the untruncated squeezed
    vacuum at r != 0: q_2j = sech r C(2j, j) (tanh^2 r / 4)^j and 0 at odd m,
    each built in log space with math.lgamma, so no factor overflows."""
    q = np.zeros(size)
    for j in range((size + 1) // 2):
        q[2 * j] = math.exp(math.lgamma(2 * j + 1) - 2.0 * math.lgamma(j + 1)
                            + j * math.log(math.tanh(r) ** 2 / 4.0) - math.log(math.cosh(r)))
    return q


def squeezed_purity_lambda(r: float, lam, order: int = 0):
    """d^order / dlambda^order of the squeezed vacuum's P(lambda) =
    sech r (1 - a lambda^2)^(-1/2), a = tanh^2 r, for order 0, 1 or 2."""
    lam = np.asarray(lam, dtype=float)
    a, sech = math.tanh(r) ** 2, 1.0 / math.cosh(r)
    base = 1.0 - a * lam ** 2
    return sech * (base ** -0.5, a * lam * base ** -1.5,
                   a * (1.0 + 2.0 * a * lam ** 2) * base ** -2.5)[order]


@pytest.fixture(name="squeezed_dark_populations", scope="session")
def squeezed_dark_populations_fixture():
    return squeezed_dark_populations


@pytest.fixture(name="squeezed_purity_lambda", scope="session")
def squeezed_purity_lambda_fixture():
    return squeezed_purity_lambda


def thermal_dark_populations(nbar: float, size: int) -> np.ndarray:
    """Dark-port populations q_0, ..., q_(size-1) of the untruncated thermal
    state of mean nbar > 0: q_m = (1 - x) x^m with x = nbar / (1 + nbar),
    as P(lambda) = 1 / (1 + nbar (1 - lambda)). Each is built in log space
    with math.log1p, so no power underflows before its value does."""
    log_x = math.log(nbar) - math.log1p(nbar)
    return np.array([math.exp(m * log_x - math.log1p(nbar)) for m in range(size)])


def thermal_c_squared(nbar: float, transmissivity: float) -> float:
    """C^2 of the thermal state of mean nbar after loss to T, itself thermal
    of mean nbar T: 1 / (1 + 2 nbar T)."""
    return 1.0 / (1.0 + 2.0 * nbar * transmissivity)


def coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    """<n|alpha> = e^(-|alpha|^2/2) alpha^n / sqrt(n!) for n < cutoff and
    alpha != 0, each magnitude built in log space with math.lgamma. Its
    dark-port populations are q = (1, 0, 0, ...) and its C^2 is 1, before
    and after loss."""
    log_r, phase = math.log(abs(alpha)), cmath.phase(alpha)
    return np.array([cmath.exp(n * (log_r + 1j * phase) - abs(alpha) ** 2 / 2.0
                               - math.lgamma(n + 1) / 2.0) for n in range(cutoff)])


@pytest.fixture(name="thermal_dark_populations", scope="session")
def thermal_dark_populations_fixture():
    return thermal_dark_populations


@pytest.fixture(name="thermal_c_squared", scope="session")
def thermal_c_squared_fixture():
    return thermal_c_squared


@pytest.fixture(name="coherent_amplitudes", scope="session")
def coherent_amplitudes_fixture():
    return coherent_amplitudes


# A second closed form for the lossy Fock purity, checked against the first.
def fock_hypergeometric_identity(n: int, t_grid=None, state_id: str = "") -> CheckReport:
    """Lossy Fock purity equals (1-T)^(2n) 2F1(-n, -n; 1; T^2/(T-1)^2), a
    function convex in T and symmetric about T = 1/2."""
    if t_grid is None:
        t_grid = np.linspace(0.0, 0.99, 100)
    grid = np.asarray(t_grid, dtype=float)
    if np.any(np.abs(grid - 1.0) < 1e-9):
        raise ValueError("the hypergeometric argument is singular at T = 1")
    direct = fock_purity_closed_form(n, grid)
    z = grid ** 2 / (grid - 1.0) ** 2
    hyper = (1.0 - grid) ** (2 * n) * hyp2f1(-n, -n, 1.0, z)
    deviation = float(np.max(np.abs(direct - hyper)))
    return equality_report(
        "fock_hypergeometric", state_id, {"n": n, "points": grid.size},
        deviation, 0.0, EXACT_TOL,
        claim="binomial-square Fock purity = (1-T)^(2n) 2F1(-n,-n;1;T^2/(T-1)^2)",
    )


def loss_generator(rho_t: DensityOperator, transmissivity: float) -> np.ndarray:
    """d(rho_T)/dT = -(1/2T)(2 a rho a^dag - a^dag a rho - rho a^dag a)."""
    t = float(transmissivity)
    if t <= 0.0:
        raise ValueError("the generator is singular at T = 0")
    ops = mode_operators(rho_t.cutoff)
    m = rho_t.matrix
    lind = 2.0 * (ops.annihilate @ m @ ops.create) - ops.number @ m - m @ ops.number
    return -lind / (2.0 * t)


@pytest.fixture(name="loss_generator", scope="session")
def loss_generator_fixture():
    return loss_generator


def multiplicativity_check(rho: DensityOperator, t1: float, t2: float) -> CheckReport:
    """E_{t1} after E_{t2} equals E_{t1 t2}; deviation in max norm."""
    lhs = apply_loss(apply_loss(rho, t2), t1)
    rhs = apply_loss(rho, t1 * t2)
    dev = float(np.max(np.abs(lhs.matrix - rhs.matrix)))
    return equality_report(
        "loss_multiplicativity", "", {"t1": t1, "t2": t2}, dev, 0.0, 1e-10,
        claim="max |E_t1[E_t2[rho]] - E_{t1 t2}[rho]| = 0",
    )


@pytest.fixture(name="multiplicativity_check", scope="session")
def multiplicativity_check_fixture():
    return multiplicativity_check


def loss_identity_quasi(rho1: DensityOperator, transmissivity: float, alpha: complex,
                        s: float) -> CheckReport:
    """P of the lossy state equals a rescaled P of the input at a shifted order."""
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    s_shift = (s + t - 1.0) / t
    if s >= 1.0 or s_shift >= 1.0:
        raise ValueError("both orders must stay below 1")
    lhs = quasi_prob(apply_loss(rho1, t), alpha, s)
    rhs = quasi_prob(rho1, alpha / np.sqrt(t), s_shift) / t
    return equality_report(
        "loss_identity_quasiprob", "", {"T": t, "s": s, "alpha": str(alpha)},
        lhs, rhs, 1e-9,
        claim="P_lossy(alpha, s) = P_in(alpha/sqrt(T), (s+T-1)/T) / T",
    )


@pytest.fixture(name="loss_identity_quasi", scope="session")
def loss_identity_quasi_fixture():
    return loss_identity_quasi


def loss_identity_chi(rho1: DensityOperator, transmissivity: float, alpha: complex,
                      s: float) -> CheckReport:
    t = float(transmissivity)
    if not 0.0 < t <= 1.0:
        raise ValueError("transmissivity must lie in (0, 1]")
    lhs = char_fn(apply_loss(rho1, t), alpha, s)
    rhs = char_fn(rho1, np.sqrt(t) * alpha, (s + t - 1.0) / t)
    dev = abs(lhs - rhs)
    return equality_report(
        "loss_identity_charfn", "", {"T": t, "s": s, "alpha": str(alpha)},
        dev, 0.0, 1e-9,
        claim="chi_lossy(alpha, s) = chi_in(sqrt(T) alpha, (s+T-1)/T); deviation reported",
    )


@pytest.fixture(name="loss_identity_chi", scope="session")
def loss_identity_chi_fixture():
    return loss_identity_chi


def qcs_kernel_form(rho: DensityOperator, x_max: float | None = None,
                    n_points: int = 401) -> QcsResult:
    """C^2 from position/momentum kernels on a trapezoid grid:
    (1/2P) [ iint (x-x')^2 |rho(x,x')|^2 + iint (p-p')^2 |rho(p,p')|^2 ].
    """
    c = rho.cutoff
    if x_max is None:
        x_max = 6.0 + np.sqrt(rho.support() + 1.0)
    xs = np.linspace(-x_max, x_max, n_points)
    dx = xs[1] - xs[0]
    # Hermite functions phi_n(x) by the stable two-term recurrence
    phi = np.zeros((n_points, c))
    phi[:, 0] = np.pi ** (-0.25) * np.exp(-xs ** 2 / 2.0)
    if c > 1:
        phi[:, 1] = np.sqrt(2.0) * xs * phi[:, 0]
    for n in range(2, c):
        phi[:, n] = (np.sqrt(2.0 / n) * xs * phi[:, n - 1]
                     - np.sqrt((n - 1.0) / n) * phi[:, n - 2])
    w = np.full(n_points, dx)
    w[0] = w[-1] = dx / 2.0
    diff_sq = (xs[:, None] - xs[None, :]) ** 2
    total = 0.0
    for momentum in (False, True):
        m = rho.matrix
        if momentum:
            phase = (-1j) ** np.arange(c)
            m = (phase[:, None] * m) * phase.conj()[None, :]
        kernel = phi @ m @ phi.T
        total += float(np.sum((w[:, None] * w[None, :]) * diff_sq * np.abs(kernel) ** 2))
    p = purity(rho)
    return QcsResult(total / (2.0 * p))


@pytest.fixture(name="qcs_kernel_form", scope="session")
def qcs_kernel_form_fixture():
    return qcs_kernel_form


def qcs_lindblad_pure_variant(psi: PureState, transmissivity: float) -> QcsResult:
    """For a pure input: C^2 = (2T/P)(Tr[N rho_T^2]/T - Tr[N rho_{1-T}^2]/(1-T)) + 1.

    Valid only when the unlossed state is pure; the complementary-output
    moment replaces the sandwiched ladder term of the general route.
    """
    t = float(transmissivity)
    if not 0.0 < t < 1.0:
        raise ValueError("the pure-input variant needs T strictly inside (0, 1)")
    rho1 = psi.density()
    ops = mode_operators(rho1.cutoff)
    m_t, m_r = (rho.matrix for rho in loss_path(rho1, [t, 1.0 - t]))
    p = float(np.einsum("ij,ji->", m_t, m_t).real)
    mom_t = float(np.einsum("ij,ji->", ops.number @ m_t, m_t).real)
    mom_r = float(np.einsum("ij,ji->", ops.number @ m_r, m_r).real)
    val = 2.0 * t / p * (mom_t / t - mom_r / (1.0 - t)) + 1.0
    return QcsResult(val)


@pytest.fixture(name="qcs_lindblad_pure_variant", scope="session")
def qcs_lindblad_pure_variant_fixture():
    return qcs_lindblad_pure_variant


def g_factorial(rho: DensityOperator, order: int):
    """Normalized factorial moment Tr[rho N(N-1)...(N-order+1)] / <N>^order,
    or None when the mean photon number is numerically zero."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    n_diag = np.arange(rho.cutoff, dtype=float)
    pops = np.diag(rho.matrix).real
    mean_n = float(pops @ n_diag)
    if mean_n <= MEAN_N_FLOOR:
        return None
    fact = np.ones_like(n_diag)
    for j in range(order):
        fact *= np.clip(n_diag - j, 0.0, None)
    return float(pops @ fact) / mean_n ** order


@pytest.fixture(name="g_factorial", scope="session")
def g_factorial_fixture():
    return g_factorial


def indefinite_convex_operator(cutoff: int = 4) -> DensityOperator:
    """diag(2/3, -1/3, 2/3, 0, ...): unit trace but not positive, yet it
    passes every convexity and log-convexity scan on (0, 1). It shows the
    scans cannot certify positivity."""
    if cutoff < 3:
        raise ValueError("need at least three levels")
    diag = np.zeros(cutoff)
    diag[:3] = [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]
    return DensityOperator(np.diag(diag).astype(complex), cutoff, physical=False)


@pytest.fixture(name="indefinite_convex_operator", scope="session")
def indefinite_convex_operator_fixture():
    return indefinite_convex_operator


# The tilted-moment route of the dark-port scans: each moment of q summed
# with its own powers of lam, one point at a time. It is the oracle of the
# scans' (P, P_lam, P_lamlam) route through the dark-port polynomial.


def _ell_sides(q: np.ndarray, transmissivity: float) -> tuple:
    t = float(transmissivity)
    if not t < 0.5:
        raise ValueError("the tilt base needs T < 1/2")
    m = np.arange(q.size, dtype=float)
    w = (1.0 - 2.0 * t) ** m
    # NumPy scalars, so an overflow gives inf (and a NaN margin), not OverflowError
    first = q @ (m * w)
    return float(first ** 2), float((q @ w) * (q @ (m * m * w)))


def _witness_sides(q: np.ndarray, lam: float) -> tuple:
    zeroth, first, second = _tilted_moments(q, lam)
    return first ** 2, zeroth * second


def _tilted_moments(q: np.ndarray, lam: float) -> tuple:
    """(sum q_m lam^m, sum q_m m lam^(m-1), sum q_m m(m-1) lam^(m-2)), with the
    powers factored through the m and m(m-1) weights, so lam = 0 is safe."""
    if not abs(lam) <= 1.0:
        raise ValueError("the tilt parameter must satisfy |lam| <= 1")
    m = np.arange(q.size, dtype=float)
    zeroth = float(q @ np.power(lam, m))
    first = float(q[1]) if q.size > 1 else 0.0
    second = 0.0
    if q.size > 2:
        powers = np.power(lam, m[:-2])
        first += float(q[2:] @ (m[2:] * powers * lam))
        second = float(q[2:] @ (m[2:] * (m[2:] - 1.0) * powers))
    return zeroth, first, second


def _g2_margin(q: np.ndarray, transmissivity: float):
    """g2 - 1 of the dark port: loss weights its m-photon population by
    lam^m, lam = 1 - 2T, so g2 = zeroth second / first^2 in the tilted
    moments of q. None where the mean lam first / zeroth is numerically
    zero; a NaN mean gives a NaN margin."""
    lam = 1.0 - 2.0 * float(transmissivity)
    zeroth, first, second = _tilted_moments(q, lam)
    if lam * first / zeroth <= MEAN_N_FLOOR:
        return None
    return zeroth * second / first ** 2 - 1.0


def moment_margin(conjecture: str, q: np.ndarray, x: float):
    """The margin of the row of scan ``conjecture`` (its ScanResult name) at
    grid value x for difference-port distribution q, by tilted moments;
    None where the scan writes no row."""
    if conjecture == "log_convexity":
        lhs, rhs = _witness_sides(q, 1.0 - 2.0 * x)
        return 4.0 * (rhs - lhs)
    if conjecture == "unfairness_witness":
        lhs, rhs = _witness_sides(q, x)
        return rhs - lhs
    if conjecture == "ell_log_convexity":
        lhs, rhs = _ell_sides(q, x)
        return rhs - lhs
    if conjecture == "dark_port_g2":
        return _g2_margin(q, x)
    raise ValueError(f"no moment route for {conjecture!r}")


@pytest.fixture(name="moment_margin", scope="session")
def moment_margin_fixture():
    return moment_margin
