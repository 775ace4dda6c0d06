import numpy as np
import pytest
from scipy.linalg import expm

from lossylab.fock import (beam_splitter_block, block_indices, mode_operators,
                           random_mixed, random_pure)


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
