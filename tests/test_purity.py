"""Purity, entropies, the dark-port polynomial, and overlap identities."""

import importlib
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.special import gammaln
from scipy.stats import poisson

from conftest import indefinite_convex_operator, thermal_state
from lossylab import fock
from lossylab.fock import (DensityOperator, PureState, make_coherent, make_fock,
                           make_squeezed_vacuum, random_mixed, random_pure)
from lossylab.loss import apply_loss, loss_path
from lossylab.purity import (PurityPolynomial, StateRecord, lossy_overlap, min_purity_pure,
                             mutual_information_bs, overlap_polynomial,
                             pair_dark_populations, purity,
                             purity_polynomial, renyi_entropy, von_neumann)
from lossylab.qcs import qcs_commutator, qcs_purity_rate


def test_purity_and_entropy_on_known_states():
    half = apply_loss(make_fock(1, 2).density(), 0.5)
    assert purity(half) == pytest.approx(0.5, abs=1e-14)
    assert von_neumann(half) == pytest.approx(np.log(2.0), abs=1e-12)
    assert renyi_entropy(half, 2) == pytest.approx(np.log(2.0), abs=1e-12)

    psi = random_pure(1, 6).density()
    assert purity(psi) == pytest.approx(1.0, abs=1e-12)
    assert von_neumann(psi) == pytest.approx(0.0, abs=1e-9)


def test_renyi_family_limits():
    rho = random_mixed(21, 6, rank=4)
    h1 = von_neumann(rho)
    assert renyi_entropy(rho, 1.0) == pytest.approx(h1, abs=1e-12)
    assert renyi_entropy(rho, 1.0 + 1e-7) == pytest.approx(h1, abs=1e-5)
    assert renyi_entropy(rho, 2.0) == pytest.approx(-np.log(purity(rho)), abs=1e-12)
    # Renyi entropies decrease with order
    orders = [0.5, 0.9, 1.0, 1.5, 2.0, 3.0]
    values = [renyi_entropy(rho, a) for a in orders]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_polynomial_matches_trace_purity():
    for seed in range(6):
        rho1 = random_mixed(seed, 7, rank=3)
        poly = purity_polynomial(rho1)
        for t in (0.0, 0.21, 0.5, 0.77, 1.0):
            assert poly.value(t) == pytest.approx(purity(apply_loss(rho1, t)),
                                                  abs=1e-12)


def test_coherent_pair_dark_populations_are_poisson():
    # the displaced-pair reduction is pinned by this closed form
    beta, gamma = 0.9, -0.4 + 0.3j
    rho = make_coherent(beta, 25).density()
    sig = make_coherent(gamma, 25).density()
    p = pair_dark_populations(rho, sig)
    mean = abs(beta - gamma) ** 2 / 2.0
    expected = poisson.pmf(np.arange(p.size), mean)
    np.testing.assert_allclose(p, expected, atol=1e-10)


@pytest.mark.parametrize("n", [30, 60])
def test_twin_fock_pair_dark_populations_at_large_photon_number(n, dark_port_distribution,
                                                                spectral_dark_populations):
    # |n, n> -> sum_j c_j |2j, 2n - 2j> with
    # |c_j|^2 = (2j)! (2n - 2j)! / (4^n (j!)^2 ((n - j)!)^2)
    rho = make_fock(n, n + 1).density()
    j = np.arange(n + 1)
    expected = np.zeros(2 * n + 1)
    expected[2 * n - 2 * j] = np.exp(
        gammaln(2 * j + 1) + gammaln(2 * n - 2 * j + 1) - n * np.log(4.0)
        - 2.0 * gammaln(j + 1) - 2.0 * gammaln(n - j + 1))
    np.testing.assert_allclose(pair_dark_populations(rho, rho), expected, atol=1e-10)
    np.testing.assert_allclose(spectral_dark_populations(rho, rho), expected, atol=1e-10)
    if n <= 30:  # the dense pair holds (n + 1)^4 entries
        np.testing.assert_allclose(
            dark_port_distribution(np.kron(rho.matrix, rho.matrix), (n + 1, n + 1)),
            expected, atol=1e-10)


@pytest.mark.parametrize("cutoff", [48, 128])
def test_coherent_pair_dark_populations_at_large_cutoff(cutoff, dark_port_distribution,
                                                        spectral_dark_populations):
    beta, gamma = 2.0, -1.5 + 1.0j
    rho = make_coherent(beta, cutoff).density()
    sig = make_coherent(gamma, cutoff).density()
    expected = poisson.pmf(np.arange(2 * cutoff - 1), abs(beta - gamma) ** 2 / 2.0)
    np.testing.assert_allclose(pair_dark_populations(rho, sig), expected, atol=1e-10)
    np.testing.assert_allclose(spectral_dark_populations(rho, sig), expected, atol=1e-10)
    if cutoff <= 48:  # the dense pair holds cutoff^4 entries
        np.testing.assert_allclose(
            dark_port_distribution(np.kron(rho.matrix, sig.matrix), (cutoff, cutoff)),
            expected, atol=1e-10)


def test_dark_port_distribution_agrees_with_spectral_engine(dark_port_distribution):
    rho = random_mixed(2, 6, rank=3)
    sig = random_mixed(17, 6, rank=2)
    q = dark_port_distribution(np.kron(rho.matrix, sig.matrix), (6, 6))
    p = pair_dark_populations(rho, sig)
    np.testing.assert_allclose(q, p, atol=1e-12)


def _hermitian_unit_trace(seed, cutoff):
    # indefinite in general: a Hermitian matrix shifted to unit trace
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((cutoff, cutoff)) + 1j * rng.standard_normal((cutoff, cutoff))
    h = (a + a.conj().T) / 2.0
    h += (1.0 - np.trace(h).real) / cutoff * np.eye(cutoff)
    return DensityOperator(h, cutoff, physical=False)


ENGINE_PAIRS = {
    "hermitian-4": lambda: (_hermitian_unit_trace(1, 4), _hermitian_unit_trace(2, 4)),
    "hermitian-9": lambda: (_hermitian_unit_trace(3, 9), _hermitian_unit_trace(4, 9)),
    "hermitian-16": lambda: (_hermitian_unit_trace(5, 16), _hermitian_unit_trace(6, 16)),
    "hermitian-4-9": lambda: (_hermitian_unit_trace(7, 4), _hermitian_unit_trace(8, 9)),
    "indefinite-6": lambda: (indefinite_convex_operator(6), indefinite_convex_operator(6)),
    "indefinite-6-hermitian": lambda: (indefinite_convex_operator(6),
                                       _hermitian_unit_trace(9, 6)),
    "mixed-7-11": lambda: (random_mixed(10, 7, 3), random_mixed(11, 11, 4)),
    "mixed-11-7": lambda: (random_mixed(11, 11, 4), random_mixed(10, 7, 3)),
}


@pytest.mark.parametrize("case", sorted(ENGINE_PAIRS))
def test_block_engine_matches_spectral_oracle(case, spectral_dark_populations):
    rho, sigma = ENGINE_PAIRS[case]()
    p = pair_dark_populations(rho, sigma)
    q = spectral_dark_populations(rho, sigma)
    assert p.shape == q.shape == (rho.cutoff + sigma.cutoff - 1,)
    assert np.max(np.abs(p - q)) <= 1e-12 * np.max(np.abs(q))


def test_purity_polynomial_memory_stays_per_block(monkeypatch):
    # the B(1/2) blocks are built one at a time; the process keeps blocks 0
    # to 90 (at most 2 MiB), filled here from empty, and streams the rest,
    # so a full-rank state at cutoff 128 needs those and a few blocks of
    # 255^2 entries
    monkeypatch.setattr(fock, "_balanced_prefix", [])
    rho = random_mixed(1, 128, 128)
    tracemalloc.start()
    try:
        purity_polynomial(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_pure_polynomial_is_symmetric_and_even():
    psi = random_pure(8, 9)
    poly = purity_polynomial(psi.density())
    # odd dark coefficients vanish for twin pure inputs
    assert np.max(np.abs(poly.coefficients[1::2])) < 1e-12
    for t in (0.1, 0.33, 0.48):
        assert poly.value(t) == pytest.approx(poly.value(1.0 - t), abs=1e-12)


def test_min_purity_pure_matches_half_transmissivity():
    psi = random_pure(14, 8)
    poly = purity_polynomial(psi.density())
    assert min_purity_pure(psi) == pytest.approx(poly.value(0.5), abs=1e-12)
    grid = np.linspace(0, 1, 201)
    assert min(poly.value(t) for t in grid) >= min_purity_pure(psi) - 1e-12


@pytest.mark.parametrize("n", [60, 120, 200])
def test_min_purity_pure_of_fock_states_is_exact(n):
    # a Fock state at T = 1/2 keeps each photon with probability 1/2, so its
    # minimum purity is sum_k (C(n, k) / 2^n)^2 = C(2n, n) / 4^n
    exact = float(Fraction(comb(2 * n, n), 4 ** n))
    assert min_purity_pure(make_fock(n, n + 1)) == pytest.approx(exact, rel=1e-14, abs=0)


def test_fock_purity_closed_form(fock_purity_closed_form):
    for n in (0, 1, 2, 5):
        rho1 = make_fock(n, n + 1).density()
        poly = purity_polynomial(rho1)
        for t in (0.0, 0.3, 0.5, 0.92, 1.0):
            assert fock_purity_closed_form(n, t) == pytest.approx(poly.value(t),
                                                                  abs=1e-12)
    assert fock_purity_closed_form(1, 0.5) == pytest.approx(0.5)
    grid = np.linspace(-1.0, 2.0, 61)
    values = fock_purity_closed_form(3, grid)
    np.testing.assert_allclose(values, values[::-1], atol=1e-10)
    assert np.all(np.diff(values, 2) > -1e-10)


def test_overlap_polynomial_and_lossy_overlap():
    rho = random_mixed(31, 6, rank=2)
    sig = random_mixed(32, 6, rank=3)
    poly = overlap_polynomial(rho, sig)
    for t in (0.15, 0.5, 0.85):
        direct = lossy_overlap(rho, sig, t)
        assert poly.value(t) == pytest.approx(direct, abs=1e-12)
    swapped = overlap_polynomial(sig, rho)
    np.testing.assert_allclose(poly.coefficients, swapped.coefficients, atol=1e-12)


def test_thermal_purity_closed_form():
    nbar = 0.5
    rho1 = thermal_state(nbar, 24)
    poly = purity_polynomial(rho1)
    for t in (0.1, 0.4, 0.9):
        assert poly.value(t) == pytest.approx(1.0 / (1.0 + 2.0 * nbar * t),
                                              abs=1e-8)


def test_purity_extrema_for_single_photon():
    poly = purity_polynomial(make_fock(1, 2).density())
    grid = np.linspace(0.0, 1.0, 1001)
    values = poly.value(grid)
    i = int(np.argmin(values))
    assert grid[i] == pytest.approx(0.5, abs=1e-3)
    assert values[i] == pytest.approx(0.5, abs=1e-12)


def test_mutual_information_symmetry_and_peak():
    psi = make_fock(1, 2)
    mi_half = mutual_information_bs(psi.density(), 0.5)
    assert mi_half == pytest.approx(2.0 * np.log(2.0), abs=1e-9)
    for t in (0.2, 0.35):
        a = mutual_information_bs(psi.density(), t)
        b = mutual_information_bs(psi.density(), 1.0 - t)
        assert a == pytest.approx(b, abs=1e-9)
        assert a <= mi_half + 1e-9


def test_scalar_evaluation_matches_polyval_bit_for_bit():
    # one Horner loop evaluates a scalar lambda (in Python floats) and an
    # array; both must give the bits (and type) of npoly.polyval on
    # npoly.polyder's coefficients, NaN for NaN, including where polyval
    # overflows or forms inf * 0
    rng = np.random.default_rng(5)
    lams = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.3, -1.3, 1e30, np.inf, -np.inf, np.nan]
    for degree in range(61):
        q = rng.standard_normal(degree + 1)
        q[rng.random(degree + 1) < 0.3] = 0.0
        poly = PurityPolynomial(q)
        for order in range(4):
            derived = npoly.polyder(q, m=order)
            assert np.array_equal(poly.derivative_coefficients(order), derived)
            with np.errstate(all="ignore"):
                refs = [npoly.polyval(np.asarray(lam), derived) for lam in lams]
                along = poly.at_lambda(np.array(lams), order)
            for lam, ref, vector in zip(lams, refs, along):
                got = poly.at_lambda(lam, order)
                assert type(got) is type(ref), (degree, order, lam)
                same = np.isnan(ref) if np.isnan(got) else got.tobytes() == ref.tobytes()
                assert same and np.array_equal(vector, ref, equal_nan=True), (
                    degree, order, lam, got, ref)
        assert np.array_equal(poly.coefficients, q) and not poly.coefficients.flags.writeable


@pytest.mark.parametrize("r, cutoff", [(0.8, 128), (1.0, 256)])
def test_squeezed_vacuum_matches_its_closed_forms_at_large_cutoff(
        r, cutoff, squeezed_dark_populations, squeezed_purity_lambda):
    # the truncated tail is below rounding at these (r, cutoff); at r = 1.0
    # and cutoff 128 truncation alone puts P_lamlam off by 9.7e-14 relative
    poly = purity_polynomial(make_squeezed_vacuum(r, cutoff).density())
    q = poly.coefficients
    np.testing.assert_allclose(q, squeezed_dark_populations(r, q.size), rtol=1e-13, atol=1e-14)
    lam = np.linspace(-1.0, 1.0, 41)
    for order in range(3):
        ref = squeezed_purity_lambda(r, lam, order)
        np.testing.assert_allclose(poly.at_lambda(lam, order), ref, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose([poly.at_lambda(x, order) for x in lam], ref,
                                   rtol=1e-13, atol=1e-14)


@pytest.mark.parametrize("family, param", [("thermal", 2.0), ("coherent", 3.0),
                                           ("coherent", 1 + 2j)])
def test_thermal_and_coherent_states_match_their_closed_forms_at_large_cutoff(
        family, param, thermal_dark_populations, thermal_c_squared, coherent_amplitudes):
    cutoff = 128
    if family == "thermal":
        rho = thermal_state(param, cutoff)
        ref = thermal_dark_populations(param, 2 * cutoff - 1)
    else:
        rho = PureState(coherent_amplitudes(param, cutoff), cutoff).density()
        ref = np.zeros(2 * cutoff - 1)
        ref[0] = 1.0
    q = pair_dark_populations(rho, rho)
    # a coherent q_0 = 1 sums 128 blocks and is off by up to 3.3e-15, so
    # the absolute gate carries a relative part for the entries near 1
    np.testing.assert_allclose(q, ref, rtol=1e-13, atol=1e-15)
    head = ref[: cutoff // 4] != 0.0
    np.testing.assert_allclose(q[: cutoff // 4][head], ref[: cutoff // 4][head],
                               rtol=1e-13, atol=0)
    poly = purity_polynomial(rho)
    t_grid = [0.1, 0.25, 0.5, 0.75, 1.0]
    for t, rho_t in zip(t_grid, loss_path(rho, t_grid)):
        c_squared = thermal_c_squared(param, t) if family == "thermal" else 1.0
        assert qcs_purity_rate(poly, t).c_squared == pytest.approx(c_squared, rel=0, abs=1e-13)
        assert qcs_commutator(rho_t).c_squared == pytest.approx(c_squared, rel=0, abs=1e-13)


def test_derivative_consistency():
    rho1 = random_mixed(41, 6, rank=3)
    poly = purity_polynomial(rho1)
    t, h = 0.37, 1e-5
    fd = (poly.value(t + h) - poly.value(t - h)) / (2 * h)
    assert poly.derivative(t, order=1) == pytest.approx(fd, abs=1e-7)
    fd2 = (poly.value(t + h) - 2 * poly.value(t) + poly.value(t - h)) / h ** 2
    assert poly.derivative(t, order=2) == pytest.approx(fd2, abs=1e-4)


@pytest.mark.parametrize("n", [120, 400])
def test_fock_purity_closed_form_at_large_photon_number(n, fock_purity_closed_form):
    # dyadic T keeps the Fraction reference exact
    for t in (-0.25, 0.0625, 0.3125, 0.5, 0.875, 1.25):
        tf = Fraction(t)
        exact = sum((comb(n, k) * tf ** k * (1 - tf) ** (n - k)) ** 2 for k in range(n + 1))
        assert fock_purity_closed_form(n, t) == pytest.approx(float(exact), rel=1e-14)


def test_state_record_derives_each_input_once(monkeypatch):
    psi = random_pure(3, 9)
    record = StateRecord("pure:3", psi)
    assert record.pure
    np.testing.assert_array_equal(record.rho1.matrix, psi.density().matrix)
    mixed = random_mixed(4, 9, rank=2)
    assert not StateRecord("mixed:4", mixed).pure
    assert StateRecord("mixed:4", mixed).rho1 is mixed
    # lossy keeps each T: a repeated T, within a call or across calls, is the
    # same state, and every state equals loss_path's bit for bit
    first = record.lossy([0.3, 0.7, 0.3])
    assert first[0] is first[2]
    again = record.lossy(np.array([0.7, 0.25]))
    assert again[0] is first[1]
    for rho_t, fresh in zip(first[:2] + again[1:], loss_path(record.rho1, [0.3, 0.7, 0.25])):
        np.testing.assert_array_equal(rho_t.matrix, fresh.matrix)
    with pytest.raises(ValueError, match="finite"):
        record.lossy([0.5, np.nan])
    # lossy_path walks a grid through the kept states and keeps none of its own
    path = list(record.lossy_path([0.25, 0.4, 0.3, 0.4]))
    assert path[0] is again[1] and path[2] is first[0]
    for rho_t, fresh in zip(path, loss_path(record.rho1, [0.25, 0.4, 0.3, 0.4])):
        np.testing.assert_array_equal(rho_t.matrix, fresh.matrix)
    assert record.lossy([0.4])[0] is not path[1]
    # the polynomial is built on first use only, and then kept
    calls = []
    # by module path: lossylab.purity as an attribute is the function purity()
    monkeypatch.setattr(importlib.import_module("lossylab.purity"), "pair_dark_populations",
                        lambda rho, sigma: calls.append(rho) or np.array([1.0]))
    fresh_record = StateRecord("pure:3", psi)
    assert calls == []
    assert fresh_record.poly is fresh_record.poly
    assert calls == [fresh_record.rho1]
