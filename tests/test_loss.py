"""Loss channel: binomial kernel against the Kraus oracle, the per-T oracle
and closed forms, semigroup structure."""

import tracemalloc
import warnings
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import mode_operators
from lossylab.fock import (DensityOperator, make_coherent, make_fock, random_mixed,
                           random_pure)
from lossylab.loss import apply_loss, loss_path
from lossylab.purity import purity, purity_polynomial
from strategies import density_operators


def test_kraus_completeness_is_exact(kraus_loss):
    for t in (0.0, 0.17, 0.5, 0.93, 1.0):
        assert kraus_loss.completeness_deviation(t, 10) < 1e-12


@pytest.mark.parametrize("cutoff", [7, 32, 128])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.97, 1.0])
def test_kernel_matches_kraus_oracle(kraus_loss, cutoff, t):
    rho = random_mixed(cutoff, cutoff, rank=min(cutoff, 5))
    np.testing.assert_allclose(apply_loss(rho, t).matrix, kraus_loss(rho.matrix, t),
                               rtol=0, atol=1e-13)


def test_fock_120_loses_binomially():
    n = 120
    for t in (0.05, 0.5, 0.93):
        pops = np.diag(apply_loss(make_fock(n, n + 1).density(), t).matrix)
        np.testing.assert_allclose(pops.real, binom.pmf(np.arange(n + 1), n, t),
                                   rtol=0, atol=1e-14)
        assert np.all(pops.imag == 0.0)


def test_coherent_state_stays_coherent():
    # E_T[|alpha><alpha|] = |sqrt(T) alpha><sqrt(T) alpha|; at cutoff 60 the
    # tail of |alpha|^2 = 5 beyond the ladder is below 1e-30
    alpha, cutoff = 2.0 - 1.0j, 60
    for t in (0.1, 0.45, 0.8):
        lossy = apply_loss(make_coherent(alpha, cutoff).density(), t)
        expected = make_coherent(np.sqrt(t) * alpha, cutoff).density()
        np.testing.assert_allclose(lossy.matrix, expected.matrix, rtol=0, atol=1e-14)


def test_endpoints_raise_no_warning():
    rho = random_mixed(4, 9, rank=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        identity = apply_loss(rho, 1.0).matrix
        vacuum = apply_loss(rho, 0.0).matrix
    np.testing.assert_array_equal(identity, rho.matrix)
    expected = np.zeros_like(vacuum)
    expected[0, 0] = np.trace(rho.matrix)
    np.testing.assert_allclose(vacuum, expected, rtol=0, atol=1e-15)


def test_non_finite_transmissivity_raises():
    rho = make_fock(1, 3).density()
    for t in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            apply_loss(rho, t)


@settings(max_examples=60, deadline=None)
@given(rho=density_operators(max_cutoff=8), t1=st.floats(0.0, 1.0),
       t2=st.floats(0.0, 1.0))
def test_composition_is_multiplicative(rho, t1, t2):
    chained = apply_loss(apply_loss(rho, t2), t1).matrix
    np.testing.assert_allclose(chained, apply_loss(rho, t1 * t2).matrix,
                               rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(rho=density_operators(max_cutoff=8), t=st.floats(0.0, 1.0))
def test_polynomial_purity_matches_trace_purity(rho, t):
    assert purity_polynomial(rho).value(t) == pytest.approx(
        purity(apply_loss(rho, t)), abs=1e-12)


def test_single_photon_half_loss():
    rho = apply_loss(make_fock(1, 2).density(), 0.5)
    np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-14)


def test_fock_state_loses_binomially():
    n, cutoff, t = 4, 6, 0.3
    rho = apply_loss(make_fock(n, cutoff).density(), t)
    pops = np.diag(rho.matrix).real
    np.testing.assert_allclose(pops[: n + 1], binom.pmf(np.arange(n + 1), n, t),
                               atol=1e-12)
    assert np.all(np.abs(pops[n + 1:]) < 1e-14)


def test_identity_and_full_loss():
    rho = random_mixed(2, 6, rank=3)
    np.testing.assert_allclose(apply_loss(rho, 1.0).matrix, rho.matrix, atol=1e-12)
    vac = apply_loss(rho, 0.0)
    assert vac.matrix[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_multiplicativity(multiplicativity_check):
    rho = random_mixed(7, 7, rank=4)
    rep = multiplicativity_check(rho, 0.6, 0.7)
    assert rep.passed
    direct = apply_loss(rho, 0.42).matrix
    chained = apply_loss(apply_loss(rho, 0.6), 0.7).matrix
    np.testing.assert_allclose(direct, chained, atol=1e-12)


def test_extended_transmissivity_is_rejected_for_every_operator():
    # the channel is defined on 0 <= T <= 1 only, diagonal input or not
    diagonal = DensityOperator(np.diag([0.5, 0.3, 0.2]).astype(complex), 3)
    for rho in (diagonal, random_pure(3, 4).density()):
        for t in (-0.4, -1e-300, 1.0000000000000002, 1.2):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                apply_loss(rho, t)


def test_extended_range_matches_binomial_continuation():
    # the extended range is the purity polynomial's, which is entire: the
    # lossy single photon's purity continues to (1-T)^2 + T^2, while the
    # kernel itself refuses those T
    rho = make_fock(1, 3).density()
    for t in (-0.4, 1.2, 1.5):
        np.testing.assert_allclose(purity_polynomial(rho).value(t),
                                   (1 - t) ** 2 + t ** 2, atol=1e-12)
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            apply_loss(rho, t)


def test_loss_generator_matches_finite_difference(loss_generator):
    rho1 = random_mixed(5, 6, rank=3)
    t, h = 0.62, 1e-6
    gen = loss_generator(apply_loss(rho1, t), t)
    fd = (apply_loss(rho1, t + h).matrix - apply_loss(rho1, t - h).matrix) / (2 * h)
    np.testing.assert_allclose(gen, fd, atol=1e-6)


def test_generator_is_number_conserving_on_diagonals(loss_generator):
    # the generator of the loss semigroup annihilates the vacuum
    vac = make_fock(0, 4).density()
    gen = loss_generator(apply_loss(vac, 0.5), 0.5)
    np.testing.assert_allclose(gen, 0.0, atol=1e-14)


def test_kraus_route_matches_diagonal_route(kraus_loss):
    rho = random_mixed(8, 7, rank=5)
    t = 0.44
    np.testing.assert_allclose(kraus_loss(rho.matrix, t), apply_loss(rho, t).matrix,
                               atol=1e-12)


def test_mean_photon_number_scales_linearly():
    rho = random_mixed(13, 8, rank=4)
    ops = mode_operators(8)
    mean0 = np.trace(ops.number @ rho.matrix).real
    for t in (0.2, 0.5, 0.9):
        mean_t = np.trace(ops.number @ apply_loss(rho, t).matrix).real
        assert mean_t == pytest.approx(t * mean0, abs=1e-12)


def assert_path_matches_oracle(rho, grid, per_t_loss):
    path = list(loss_path(rho, grid))
    assert len(path) == len(grid)
    for t, out in zip(grid, path):
        ref = per_t_loss(rho, t)
        assert np.all(out.matrix == ref.matrix)
        assert out.physical == ref.physical


@settings(max_examples=60, deadline=None)
@given(rho=density_operators(max_cutoff=12),
       inner=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
       order=st.randoms(use_true_random=False))
def test_path_is_bit_equal_to_per_t_kernel(per_t_loss, rho, inner, order):
    # the endpoints and a repeated T, in any order
    grid = inner + [0.0, 1.0, inner[0]]
    order.shuffle(grid)
    assert_path_matches_oracle(rho, grid, per_t_loss)


@settings(max_examples=10, deadline=None)
@given(rho=density_operators(max_cutoff=8, min_cutoff=8))
def test_path_spanning_several_blocks_is_bit_equal(per_t_loss, rho):
    # 600 T at cutoff 8 fill 5 blocks of 2^13 / 8^2 = 128 T
    assert_path_matches_oracle(rho, np.linspace(0.0, 1.0, 600), per_t_loss)


@settings(max_examples=40, deadline=None)
@given(rho=density_operators(max_cutoff=12),
       grid=st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=12))
def test_path_rejects_diagonal_operators_outside_the_unit_interval(per_t_loss, rho, grid):
    # one T outside [0, 1] anywhere in the grid refuses the whole path
    diagonal = DensityOperator(np.diag(np.diag(rho.matrix)), rho.cutoff)
    if all(0.0 <= t <= 1.0 for t in grid):
        assert_path_matches_oracle(diagonal, grid, per_t_loss)
    else:
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            loss_path(diagonal, grid)


def test_path_keeps_small_coherences_and_rejects_outside_the_unit_interval(per_t_loss):
    m = np.diag([0.5, 0.3, 0.2]).astype(complex)
    m[0, 1] = m[1, 0] = 1e-13
    m[1, 2], m[2, 1] = 1e-13j, -1e-13j
    rho = DensityOperator(m, 3)
    grid = [0.4, 1.0, 0.7]
    assert_path_matches_oracle(rho, grid, per_t_loss)
    assert all(out.matrix[0, 1] != 0 for out in loss_path(rho, grid))
    for bad in (1.3, -0.2):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            loss_path(rho, grid + [bad])


@pytest.mark.parametrize("where", [0, 3, 6])
def test_non_finite_grid_raises_before_any_state(where):
    grid = list(np.linspace(0.0, 1.0, 7))
    grid[where] = np.nan
    with pytest.raises(ValueError, match="finite"):
        loss_path(random_mixed(1, 5, rank=2), grid)


def test_coherences_outside_the_unit_interval_raise_before_any_state():
    # raised by the call itself, before the first state is asked for
    grid = [0.2, 0.5, 1.0001, 0.8]
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        loss_path(random_pure(3, 4).density(), grid)


@pytest.mark.parametrize("cutoff", [8, 25, 64])
@pytest.mark.parametrize("physical", [True, False])
def test_path_states_carry_the_spectrum_of_their_matrix(cutoff, physical):
    # each block is decomposed as one stack; 2 blocks and 3 T more cross
    # two block boundaries
    rho = random_mixed(cutoff, cutoff, rank=3)
    if not physical:
        # Hermitian with unit trace, and indefinite
        m = 2.0 * rho.matrix - random_mixed(cutoff + 1, cutoff, rank=1).matrix
        rho = DensityOperator(m, cutoff, physical=False)
    grid = np.linspace(0.0, 1.0, 2 * (2 ** 13 // cutoff ** 2) + 3)
    count = 0
    for out in loss_path(rho, grid):
        count += 1
        assert out.physical == physical
        assert not out.matrix.flags.writeable
        if physical:
            assert np.array_equal(out.eigenvalues, np.linalg.eigvalsh(out.matrix))
            assert not out.eigenvalues.flags.writeable
        else:
            assert out.eigenvalues is None
    assert count == grid.size


def test_fock_120_path_matches_exact_binomial():
    # dyadic T keep the Fraction reference exact; Pascal's rule adds two
    # terms of one sign per row, so the relative error stays near n ulp
    n, cutoff = 120, 128
    grid = [k / 8 for k in range(9)]
    for t, out in zip(grid, loss_path(make_fock(n, cutoff).density(), grid)):
        tf = Fraction(t)
        exact = [float(comb(n, k) * tf ** k * (1 - tf) ** (n - k)) for k in range(n + 1)]
        pops = np.diag(out.matrix)
        np.testing.assert_allclose(pops.real, exact + [0.0] * (cutoff - n - 1),
                                   rtol=1e-13, atol=0)
        assert np.all(pops.imag == 0.0)


def test_coherent_path_matches_closed_form_within_tail():
    # E_T[|alpha><alpha|] = |sqrt(T) alpha><sqrt(T) alpha|; the kernel is
    # exact on the ladder, so only the input's tail beyond it and rounding
    # separate the two truncated states
    alpha, cutoff = 3.0 - 2.0j, 96
    psi = make_coherent(alpha, cutoff)
    grid = np.linspace(0.0, 1.0, 9)
    for t, out in zip(grid, loss_path(psi.density(), grid)):
        expected = make_coherent(np.sqrt(t) * alpha, cutoff).density()
        np.testing.assert_allclose(out.matrix, expected.matrix, rtol=0,
                                   atol=psi.tail_weight + 8 * np.finfo(float).eps)


def test_path_memory_stays_bounded():
    # 401 T at cutoff 25 stacked at once would hold about 15 MB of tables;
    # blocks of 2^13 entries keep the traced peak far below that
    rho = random_mixed(3, 25, rank=3)
    grid = np.linspace(0.0, 1.0, 401)
    tracemalloc.start()
    try:
        count = sum(1 for _ in loss_path(rho, grid))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == grid.size
    assert peak < 2 * 2 ** 20
