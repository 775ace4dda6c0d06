import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import gammaln

from lossylab.fock import (DensityOperator, beam_splitter_block, block_indices,
                           mode_operators, random_mixed, random_pure)


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


@pytest.fixture
def dark_port_distribution():
    """Oracle for the spectral dark-port engine: difference-mode number
    populations of a dense two-mode operator phi with row index
    n1 * c2 + n2, for (c1, c2) = cutoffs.

    B(1/2) conserves total photon number, so only the diagonal blocks
    Phi[n, n] reach the diagonal of B^dag Phi B; each is rotated by its
    own splitter block.
    """
    def rotate(phi, cutoffs):
        c1, c2 = cutoffs
        d = c1 + c2 - 1
        pops = np.zeros(d)
        for n in range(d):
            ks = block_indices(n, c1, c2)
            rows = ks * c2 + (n - ks)
            b = beam_splitter_block(n, 0.5)[ks]
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
