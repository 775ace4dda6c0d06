"""Ladder-space plumbing: states, operators, and the beam splitter."""

import math
import re
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from conftest import mode_operators, thermal_state
from lossylab import fock
from lossylab.fock import (DensityOperator, PureState, _validate_stack,
                           block_indices, displacement_matrix, ladder_start,
                           ladder_traces, laguerre_ladder, lowered, lowering_trace,
                           make_coherent, make_fock, product_traces,
                           make_squeezed_vacuum, random_mixed, random_pure,
                           splitter_blocks)


def test_pure_state_normalizes_and_records_tail():
    psi = PureState(np.array([3.0, 4.0]), 2)
    np.testing.assert_allclose(np.linalg.norm(psi.amplitudes), 1.0, atol=1e-15)
    assert psi.tail_weight == 0.0

    chopped = make_coherent(2.0, 4)
    assert chopped.tail_weight > 1e-6
    assert chopped.truncation_warning
    assert not make_coherent(0.5, 30).truncation_warning


def test_pure_state_shape_and_zero_vector_rejected():
    with pytest.raises(ValueError):
        PureState(np.zeros(3), 3)
    with pytest.raises(ValueError):
        PureState(np.ones(4), 3)


def test_density_validation():
    good = np.diag([0.25, 0.75]).astype(complex)
    DensityOperator(good, 2)
    with pytest.raises(ValueError):
        DensityOperator(good * 2.0, 2)
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.3
    with pytest.raises(ValueError):
        DensityOperator(bad_herm, 2)
    indefinite = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        DensityOperator(indefinite, 2)
    DensityOperator(indefinite, 2, physical=False)


@settings(max_examples=60, deadline=None)
@given(cutoff=st.integers(1, 6), data=st.data(), physical=st.booleans(),
       bad=st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                            complex(0.5, -np.inf)]))
def test_non_finite_entries_are_rejected(cutoff, data, physical, bad):
    i = data.draw(st.integers(0, cutoff - 1))
    j = data.draw(st.integers(0, cutoff - 1))
    amps = np.ones(cutoff, dtype=complex)
    amps[i] = bad
    with pytest.raises(ValueError, match="finite"):
        PureState(amps, cutoff)
    m = np.eye(cutoff, dtype=complex) / cutoff
    m[i, j] = bad
    m[j, i] = np.conj(bad)
    with pytest.raises(ValueError, match="finite"):
        DensityOperator(m, cutoff, physical)


def _fail(m, check):
    """A copy of the state matrix m that fails the named check of a
    DensityOperator and passes every check before it."""
    m = m.copy()
    if check == "finite":
        m[1, 2] = m[2, 1] = np.nan
    elif check == "hermitian":
        m[0, 1] += 0.3
    elif check == "trace":
        m *= 1.5
    else:
        m = np.diag([1.5, -0.5] + [0.0] * (m.shape[0] - 2)).astype(complex)
    return m


CHECKS = ["finite", "hermitian", "trace", "positivity"]


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("k", [0, 2, 4])
def test_stack_validator_raises_for_the_first_failing_member(check, k):
    # a later member failing an earlier check must not be the one reported
    c = 4
    stack = np.array([random_mixed(seed, c, rank=2).matrix for seed in range(6)])
    stack[k] = _fail(stack[k], check)
    stack[5] = _fail(stack[5], "hermitian" if check == "finite" else "finite")
    with pytest.raises(ValueError) as single:
        DensityOperator(stack[k], c)
    with pytest.raises(ValueError, match=f"^{re.escape(str(single.value))}$"):
        _validate_stack(stack, physical=True)


def test_stack_validator_skips_only_positivity_when_unphysical():
    c = 4
    stack = np.array([random_mixed(seed, c, rank=2).matrix for seed in range(3)])
    stack[1] = _fail(stack[1], "positivity")
    assert _validate_stack(stack, physical=False) is None
    stack[2] = _fail(stack[2], "trace")
    with pytest.raises(ValueError, match="^trace deviates"):
        _validate_stack(stack, physical=False)


def test_stack_validator_returns_each_members_spectrum():
    stack = np.array([random_mixed(seed, 25, rank=4).matrix for seed in range(7)])
    eigs = _validate_stack(stack.reshape(7, 1, 25, 25), physical=True)
    assert eigs.shape == (7, 1, 25)
    for m, e in zip(stack, eigs[:, 0]):
        assert np.array_equal(e, np.linalg.eigvalsh(m))
        assert np.array_equal(e, DensityOperator(m, 25).eigenvalues)


def test_embedding_grows_but_never_shrinks():
    rho = make_fock(1, 3).density()
    big = rho.embedded(6)
    assert big.cutoff == 6
    np.testing.assert_allclose(big.matrix[:3, :3], rho.matrix, atol=0)
    assert np.all(big.matrix[3:, :] == 0)
    with pytest.raises(ValueError):
        rho.embedded(2)


def test_mode_operator_algebra():
    c = 9
    ops = mode_operators(c)
    comm = ops.annihilate @ ops.create - ops.create @ ops.annihilate
    np.testing.assert_allclose(comm[: c - 1, : c - 1], np.eye(c - 1), atol=1e-14)
    np.testing.assert_allclose(ops.number, ops.create @ ops.annihilate, atol=1e-14)
    x_from_ladder = (ops.create + ops.annihilate) / np.sqrt(2.0)
    p_from_ladder = 1j * (ops.create - ops.annihilate) / np.sqrt(2.0)
    np.testing.assert_allclose(ops.x, x_from_ladder, atol=1e-14)
    np.testing.assert_allclose(ops.p, p_from_ladder, atol=1e-14)


def _shift_inputs(c):
    # a Hermitian state, a general complex matrix and a stack of three
    rng = np.random.default_rng(c)
    general = rng.standard_normal((4, c, c)) + 1j * rng.standard_normal((4, c, c))
    return random_mixed(c, c, rank=min(3, c)).matrix, general[0], general[1:]


@pytest.mark.parametrize("c", [1, 2, 8, 64])
def test_lowered_matches_dense_oracle(c):
    ops = mode_operators(c)
    for m in _shift_inputs(c):
        dense = ops.annihilate @ m @ ops.create
        np.testing.assert_allclose(lowered(m), dense, rtol=0, atol=1e-13)


@pytest.mark.parametrize("c", [1, 2, 8, 64])
def test_ladder_traces_match_dense_oracle(c):
    ops = mode_operators(c)
    for m in _shift_inputs(c):
        number, sandwiched = ladder_traces(m)
        np.testing.assert_allclose(number, np.trace(ops.number @ m @ m, axis1=-2, axis2=-1).real,
                                   rtol=1e-13, atol=1e-13)
        dense = np.trace(ops.annihilate @ m @ ops.create @ m, axis1=-2, axis2=-1).real
        np.testing.assert_allclose(sandwiched, dense, rtol=1e-13, atol=1e-13)
        # the same expressions as the callers wrote before: bit for bit
        n = np.arange(c)[:, None]
        assert np.array_equal(number, product_traces(n * m, m))
        assert np.array_equal(sandwiched, product_traces(lowered(m), m))


@pytest.mark.parametrize("c", [1, 2, 8, 64])
def test_lowering_trace_matches_dense_oracle(c):
    ops = mode_operators(c)
    for m in _shift_inputs(c):
        for power in (1, 2):
            ladder = np.linalg.matrix_power(ops.annihilate, power)
            dense = np.trace(ladder @ m, axis1=-2, axis2=-1)
            np.testing.assert_allclose(lowering_trace(m, power), dense,
                                       rtol=1e-13, atol=1e-13)


def test_state_factories_match_closed_forms():
    n2 = make_fock(2, 5)
    assert n2.amplitudes[2] == 1.0 and np.count_nonzero(n2.amplitudes) == 1

    alpha = 0.7 - 0.2j
    coh = make_coherent(alpha, 40)
    n = np.arange(40)
    from scipy.special import gammaln
    expected = np.exp(-abs(alpha) ** 2 / 2
                      + n * np.log(complex(alpha)) - gammaln(n + 1) / 2)
    np.testing.assert_allclose(coh.amplitudes, expected, atol=1e-12)
    mean_n = np.diag(coh.density().matrix).real @ n
    np.testing.assert_allclose(mean_n, abs(alpha) ** 2, atol=1e-12)

    sq = make_squeezed_vacuum(0.5, 40)
    assert np.all(np.abs(sq.amplitudes[1::2]) < 1e-15)
    mean_n = np.diag(sq.density().matrix).real @ n
    np.testing.assert_allclose(mean_n, np.sinh(0.5) ** 2, atol=1e-10)

    th = thermal_state(0.8, 60)
    pops = np.diag(th.matrix).real
    ratio = pops[1:6] / pops[:5]
    np.testing.assert_allclose(ratio, 0.8 / 1.8, atol=1e-12)


def test_random_states_are_reproducible_and_valid():
    a = random_pure(5, 7)
    b = random_pure(5, 7)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    rho = random_mixed(9, 6, rank=3)
    again = random_mixed(9, 6, rank=3)
    np.testing.assert_array_equal(rho.matrix, again.matrix)
    eig = np.linalg.eigvalsh(rho.matrix)
    assert eig.min() >= -1e-12
    assert np.sum(eig > 1e-10) == 3


def test_displacement_is_unitary_on_interior():
    c = 30
    d = displacement_matrix(0.6 + 0.3j, c)
    inner = 12
    product = (d.conj().T @ d)[:inner, :inner]
    np.testing.assert_allclose(product, np.eye(inner), atol=1e-10)


@pytest.mark.parametrize("cutoff", [1, 8, 50, 60])
@pytest.mark.parametrize("alpha", [0.3 + 0.2j, 1.7 - 0.4j, 2.4j, 0.0])
def test_displacement_matrix_matches_per_element_oracle(alpha, cutoff,
                                                        displacement_oracle):
    # the oracle forms each element in the log domain, which costs it up to
    # 9.5e-15 against a 40-digit evaluation at cutoff 60; the ladder's
    # elements are within 4e-16 of it there
    got = displacement_matrix(alpha, cutoff)
    ref = displacement_oracle(alpha, cutoff)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def _ratio(n: int, k: int) -> float:
    """sqrt(n! k! / (n+k)!), the ladder's ratio of matrix elements."""
    return math.sqrt(Fraction(math.factorial(n) * math.factorial(k), math.factorial(n + k)))


def test_laguerre_ladder_matches_scipy_at_unit_w():
    # rows drop out as their stop passes, and each row's start exponent rides
    # along unchanged
    k, stop = np.array([0, 1, 4, 12]), np.array([31, 25, 18, 9])
    z = np.array([0.05, 0.7, 3.0, 9.5, 22.0])
    start_exp = np.repeat(np.array([[0], [3], [-5], [40]], dtype=np.int32), z.size, axis=1)
    levels = list(laguerre_ladder(k, z, stop, (np.ones(start_exp.shape), start_exp)))
    assert len(levels) == stop[0]
    for n, (mant, exponent) in enumerate(levels):
        rows = int(np.sum(stop > n))
        assert mant.shape == exponent.shape == (rows, z.size)
        got = np.ldexp(mant, exponent - start_exp[:rows])
        ref = np.array([[_ratio(n, kk) * eval_genlaguerre(n, kk, zz) for zz in z]
                        for kk in k[:rows].tolist()])
        assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12, n


def test_laguerre_ladder_limit_at_zero_w_is_exact_power_series():
    # w^n L_n^(k)(z / w) -> (-z)^n / n! as w -> 0
    k, stop = np.array([0, 2, 7]), np.array([41, 30, 12])
    z = np.array([0.5, -3.0, 17.25])
    start = (np.ones((k.size, z.size)), np.zeros((k.size, z.size), dtype=np.int32))
    for n, (mant, exponent) in enumerate(laguerre_ladder(k, z, stop, start, 0.0)):
        got = np.ldexp(mant, exponent)
        ref = np.array([[float((-Fraction(zz)) ** n / math.factorial(n)) * _ratio(n, kk)
                         for zz in z.tolist()] for kk in k[:got.shape[0]].tolist()])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14, n


@pytest.mark.parametrize("decay", [-4.0, 4.0])
@pytest.mark.parametrize("x", [500.0, 1e8])
def test_ladder_start_holds_factors_beyond_the_float_range(decay, x):
    # e^{decay x} alone under- or overflows, and (4 sqrt(x))^k alone
    # overflows, long before k = 300
    mant, exponent = ladder_start(np.array([x]), 301, decay, 4.0)
    got = np.log2(mant[:, 0]) + exponent[:, 0]
    ref = np.array([(decay * x + k * math.log(4.0 * math.sqrt(x)) - math.lgamma(k + 1.0) / 2.0)
                    / math.log(2.0) for k in range(301)])
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-15


def _dense_block(u, n, c):
    rows = [k * c + (n - k) for k in range(n + 1)]
    return u[np.ix_(rows, rows)]


@pytest.mark.parametrize("t", [0.5])  # the dense oracle's T: the blocks are B(1/2)
def test_beam_splitter_blocks_match_dense_exponential(t, dense_splitter):
    c = 21
    u = dense_splitter(c, t)
    for n, block in enumerate(splitter_blocks(c)):
        np.testing.assert_allclose(block, _dense_block(u, n, c), atol=1e-12)


def test_beam_splitter_blocks_and_single_photon_rule():
    t = 0.5
    blocks = list(splitter_blocks(6))
    for n, block in enumerate(blocks):
        assert block.shape == (n + 1, n + 1)
        np.testing.assert_allclose(block.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(block.T @ block, np.eye(n + 1), atol=1e-12)
    # |1,0> -> sqrt(T)|1,0> + sqrt(1-T)|0,1>; block 1 runs over |0,1>, |1,0>
    out = blocks[1] @ np.array([0.0, 1.0])
    np.testing.assert_allclose(out[1], np.sqrt(t), atol=1e-12)
    np.testing.assert_allclose(out[0], np.sqrt(1 - t), atol=1e-12)
    assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
    # a 4 x 3 box holds |2, 2> and |3, 1> of the four-photon block
    np.testing.assert_array_equal(block_indices(4, 4, 3), [2, 3])


@pytest.mark.parametrize("n, t", [(382, 0.5)])  # the eigh oracle's T: the blocks are B(1/2)
def test_splitter_blocks_match_eigh_oracle_at_large_photon_number(n, t, eigh_splitter_block):
    *_, block = splitter_blocks(n + 1)
    assert block.dtype == float and not block.flags.writeable
    np.testing.assert_allclose(block, eigh_splitter_block(n, t), rtol=0, atol=1e-13)
    np.testing.assert_allclose(block.T @ block, np.eye(n + 1), rtol=0, atol=1e-12)


def test_balanced_blocks_come_from_a_bounded_prefix(monkeypatch):
    monkeypatch.setattr(fock, "_balanced_prefix", [])

    def cold(count):
        with monkeypatch.context() as patch:
            patch.setattr(fock, "_balanced_prefix", [])
            return list(splitter_blocks(count))

    kept = fock._balanced_prefix
    fits = 91  # blocks 0 to 90 hold 255346 entries, with block 91 263810
    for count in (3, 47, 15, fits + 9, 20):
        before = list(kept)
        warm = list(splitter_blocks(count))
        assert len(warm) == count
        assert all(a is b for a, b in zip(warm, before))
        for got, ref in zip(warm, cold(count)):
            assert np.array_equal(got, ref) and not got.flags.writeable
        assert len(kept) == min(max(count, len(before)), fits)
        assert sum(block.size for block in kept) <= fock.BALANCED_ENTRIES
    # two walks interleaved keep one copy of each block, in order
    monkeypatch.setattr(fock, "_balanced_prefix", [])
    longer = splitter_blocks(40)
    for a, b, ref in zip(splitter_blocks(30), longer, cold(30)):
        assert np.array_equal(a, ref) and np.array_equal(b, ref)
    rest = list(longer)
    assert len(rest) == 10 and all(map(np.array_equal, rest, cold(40)[30:]))
    assert [block.shape[0] for block in fock._balanced_prefix] == list(range(1, 41))


class _YieldingList(list):
    """A list whose length hands the interpreter to another thread, so that
    walks racing to keep the same block meet between check and append."""

    def __len__(self):
        size = super().__len__()
        time.sleep(0)
        return size


def test_balanced_prefix_keeps_one_copy_under_threads(monkeypatch):
    monkeypatch.setattr(fock, "_balanced_prefix", [])
    ref = list(splitter_blocks(40))
    monkeypatch.setattr(fock, "_balanced_prefix", _YieldingList())
    start = threading.Barrier(4)
    errors = []

    def walk():
        start.wait(timeout=60)
        if not all(map(np.array_equal, splitter_blocks(40), ref)):
            errors.append("a walk yielded a wrong block")

    threads = [threading.Thread(target=walk) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads) and not errors
    # a lost check-then-append would keep a block twice and shift the rest
    assert [block.shape[0] for block in fock._balanced_prefix] == list(range(1, 41))


def test_hong_ou_mandel_cancellation():
    # block 2 runs over |0,2>, |1,1>, |2,0>
    out = list(splitter_blocks(3))[2] @ np.array([0.0, 1.0, 0.0])
    assert abs(out[1]) < 1e-12
    np.testing.assert_allclose(abs(out[0]) ** 2, 0.5, atol=1e-12)
    np.testing.assert_allclose(abs(out[2]) ** 2, 0.5, atol=1e-12)
