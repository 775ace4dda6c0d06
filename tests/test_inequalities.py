"""Moment inequalities, derivative forms, pair integrals, and Bernstein bounds."""

import tracemalloc

import numpy as np
import pytest

from conftest import fock_hypergeometric_identity, mode_operators
from lossylab.fock import lowered, make_coherent, make_fock, random_mixed, random_pure
from lossylab.loss import apply_loss
from lossylab.phasespace import Quadrature2D
from lossylab.purity import StateRecord, purity_polynomial
from lossylab.inequalities import (CoherentMixture, ThermalPState,
                                   bernstein_check, cauchy_schwarz_ladder,
                                   _form_terms, _pair_quadrature, husimi_of_state,
                                   husimi_pair_check,
                                   husimi_pair_from_states,
                                   isotropic_gaussian, ladder_loss_inequality,
                                   number_purity_monotonicity,
                                   order_pair_overlap_check,
                                   order_pair_overlap_identity,
                                   phase_space_derivative_check,
                                   pure_number_ratio_inequality,
                                   pure_second_order_inequality,
                                   second_derivative_forms,
                                   transpose_trick_identity)


def test_cauchy_schwarz_ladder():
    rep = cauchy_schwarz_ladder(make_fock(2, 4).density())
    assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(2.0)
    # coherent states saturate once the cutoff absorbs the truncation tail
    coh = cauchy_schwarz_ladder(make_coherent(1.0, 26).density())
    assert coh.passed
    assert abs(coh.rhs - coh.lhs) < 1e-10


def test_single_photon_quarter_transmissivity_values():
    one = make_fock(1, 2)
    ladder = ladder_loss_inequality(StateRecord("", one.density()), 0.25)
    assert ladder.passed
    assert ladder.lhs == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert ladder.rhs == pytest.approx(3.0 / 16.0, abs=1e-12)

    ratio = pure_number_ratio_inequality(StateRecord("", one), 0.25)
    assert ratio.passed
    assert ratio.lhs == pytest.approx(0.25, abs=1e-12)
    assert ratio.rhs == pytest.approx(0.75, abs=1e-12)

    transpose = transpose_trick_identity(StateRecord("", one), 0.25)
    assert transpose.passed
    assert transpose.lhs == pytest.approx(3.0 / 16.0, abs=1e-12)
    assert transpose.rhs == pytest.approx(3.0 / 16.0, abs=1e-12)

    with pytest.raises(ValueError):
        ladder_loss_inequality(StateRecord("", one.density()), 0.6)
    with pytest.raises(ValueError):
        pure_number_ratio_inequality(StateRecord("", one), 0.7)


def test_pure_second_order_inequality():
    one = pure_second_order_inequality(StateRecord("", make_fock(1, 3)))
    assert one.passed
    assert one.lhs == pytest.approx(0.0, abs=1e-12)
    assert one.rhs == pytest.approx(2.0, abs=1e-12)
    # coherent states saturate the bound
    coh = pure_second_order_inequality(StateRecord("", make_coherent(1.0, 26)))
    assert coh.passed
    assert abs(coh.rhs - coh.lhs) < 1e-10


def test_second_derivative_forms():
    one = make_fock(1, 2)
    for t in (0.2, 0.5, 0.8):
        rep = second_derivative_forms(StateRecord("", one), t)
        assert rep.passed
        assert rep.lhs == pytest.approx(4.0, abs=1e-10)
        assert rep.rhs == pytest.approx(4.0, abs=1e-10)

    mixed = second_derivative_forms(StateRecord("", random_mixed(5, 7, rank=3)), 0.3)
    assert mixed.passed
    assert mixed.lhs == pytest.approx(3.73282364768, abs=1e-9)

    pure = second_derivative_forms(StateRecord("", random_pure(7, 7)), 0.62)
    assert pure.passed
    assert pure.lhs == pytest.approx(2.92763622907, abs=1e-9)
    assert pure.params["forms"] == 3


@pytest.mark.parametrize("cutoff", [1, 2, 8, 24])
def test_form_terms_match_dense_oracle_on_a_padded_ladder(cutoff):
    # the dense operators two levels above rho, so that a^dag rho a is not
    # clipped; the index-shift terms stay on rho's own ladder
    rho = apply_loss(random_mixed(cutoff, cutoff, rank=min(3, cutoff)), 0.3)
    ops = mode_operators(cutoff + 2)
    m = rho.embedded(cutoff + 2).matrix
    low = ops.annihilate @ m @ ops.create
    high = ops.create @ m @ ops.annihilate
    n_m, m_n = ops.number @ m, m @ ops.number

    def trace(x, y):
        return np.einsum("ij,ji->", x, y).real

    dense = {"n_rho2": trace(n_m, m), "low_sq": trace(low, low),
             "nrho_sq": trace(n_m, m_n), "cross": trace(m_n, low),
             "low_high": trace(low, high)}
    terms = _form_terms(rho)
    for key, value in dense.items():
        assert terms[key] == pytest.approx(value, rel=0, abs=1e-13), key


def test_phase_space_derivative_closed_families():
    mix = CoherentMixture((0.6, 0.4), (0.8, -0.5 + 0.4j), cutoff=16)
    for t in (0.2, 0.45):
        for k in (0, 1, 2):
            rep = phase_space_derivative_check(mix, t, k)
            assert rep.passed, (t, k, rep.margin)
            assert abs(rep.lhs - rep.rhs) < 1e-8

    th = ThermalPState(0.4, cutoff=20)
    for t in (0.1, 0.35):
        for k in (0, 1, 2):
            rep = phase_space_derivative_check(th, t, k)
            assert rep.passed, (t, k, rep.margin)
            assert abs(rep.lhs - rep.rhs) < 1e-8

    # a mixed input past T = 1/2 has no sign claim for odd orders
    with pytest.raises(ValueError):
        phase_space_derivative_check(random_mixed(2, 6, rank=2), 0.7, 1)


def test_phase_space_derivative_pure_pattern():
    psi = random_pure(12, 7)
    rho1 = psi.density()
    rep_low = phase_space_derivative_check(rho1, 0.3, 1)
    rep_high = phase_space_derivative_check(rho1, 0.7, 1)
    assert rep_low.passed and rep_high.passed
    # first derivative of purity is antisymmetric about T = 1/2 for pure input
    assert rep_low.rhs == pytest.approx(-rep_high.rhs, abs=1e-10)
    even = phase_space_derivative_check(rho1, 0.8, 2)
    assert even.passed and even.rhs >= -1e-10


def test_husimi_gaussian_pair_closed_form():
    # for isotropic Gaussians (c/pi) e^{-c|a|^2} the pair value is
    # g (2g - 1) / (lam b)^2 with g = c c'/(c + c'), lam = 1 - 2T,
    # b = g + T / lam
    def exact(c, cp, t):
        g = c * cp / (c + cp)
        lam = 1.0 - 2.0 * t
        b = g + t / lam
        return g * (2.0 * g - 1.0) / (lam * b) ** 2

    cases = [(1.0, 1.0, 0.1), (1.0, 0.5, 0.3), (0.5, 0.5, 0.2),
             (2.0, 1.0, 0.3), (2.0, 2.0, 0.4)]
    for c, cp, t in cases:
        rep = husimi_pair_check(isotropic_gaussian(c), isotropic_gaussian(cp), t)
        assert rep.lhs == pytest.approx(exact(c, cp, t), abs=1e-6)

    # vacuum pair sits exactly on the boundary
    vac_pair = husimi_pair_check(isotropic_gaussian(1.0), isotropic_gaussian(1.0), 0.2)
    assert abs(vac_pair.lhs) < 1e-8
    # any true Husimi pair (c, c' <= 1) stays nonpositive
    ok = husimi_pair_check(isotropic_gaussian(1.0), isotropic_gaussian(0.5), 0.3)
    assert ok.passed and ok.lhs < 0.0
    # a compressed Gaussian (c = 2) is not a Husimi function and violates
    bad = husimi_pair_check(isotropic_gaussian(2.0), isotropic_gaussian(1.0), 0.3)
    assert not bad.passed and bad.lhs > 1e-3

    with pytest.raises(ValueError):
        husimi_pair_check(isotropic_gaussian(1.0), isotropic_gaussian(1.0), 0.49)


def test_husimi_pair_matches_thermal_derivative():
    # thermal Husimi is isotropic with c = 1/(nbar + 1); the pair value must
    # equal d/dT of the thermal-pair overlap 1/(1 + 2 T nbar)
    nbar = 0.6
    c = 1.0 / (nbar + 1.0)
    rep = husimi_pair_check(isotropic_gaussian(c), isotropic_gaussian(c), 0.25)
    expected = -2.0 * nbar / (1.0 + 2.0 * 0.25 * nbar) ** 2
    assert rep.lhs == pytest.approx(expected, abs=1e-6)
    assert rep.passed


def test_husimi_pair_from_states():
    rep = husimi_pair_from_states(random_mixed(3, 6, rank=2),
                                  random_mixed(9, 6, rank=2), 0.3)
    assert rep.passed
    assert rep.lhs == pytest.approx(-0.861094706469, abs=1e-6)
    assert rep.params["exact_derivative"] == pytest.approx(rep.lhs, abs=1e-4)


def test_order_pair_overlap_check():
    quad = Quadrature2D(32, 48)
    rho = random_mixed(3, 6, rank=2)
    sig = random_mixed(9, 6, rank=2)
    # the integral value is -dO/dT, independent of the order split
    for r, rp in ((-1.0, -1.0), (-0.5, -1.5), (0.0, -2.0)):
        rep = order_pair_overlap_check(rho, sig, r, rp, 0.3, quad=quad)
        assert rep.passed, (r, rp, rep.margin)
        assert rep.rhs == pytest.approx(0.861094706469, abs=1e-4)
    with pytest.raises(ValueError):
        order_pair_overlap_check(rho, sig, -1.0, -1.0, 0.7)
    with pytest.raises(ValueError):
        order_pair_overlap_check(rho, sig, 1.2, -1.0, 0.3)


def test_order_pair_overlap_identity():
    quad = Quadrature2D(32, 48)
    rho = random_mixed(3, 6, rank=2)
    sig = random_mixed(9, 6, rank=2)
    for r, rp in ((-1.0, -1.0), (-1.5, -2.0)):
        rep = order_pair_overlap_identity(rho, sig, r, rp, 0.3, quad=quad)
        assert rep.passed, (r, rp, rep.margin)
        assert rep.rhs == pytest.approx(0.35941672931, abs=1e-9)
    with pytest.raises(ValueError):
        order_pair_overlap_identity(rho, sig, -0.5, -1.0, 0.3)
    with pytest.raises(ValueError):
        # 2 + (r + r' - 2) T = 0 exactly: singular existence boundary
        order_pair_overlap_identity(rho, sig, -1.0, -2.0, 0.4)


def dense_pair_quadrature(f_rho, f_sigma, weight_fn, quad, radial_scale):
    """The pair quadrature over the whole (N, N) matrix of |a - b|^2 at once."""
    nodes, weights = quad.nodes_weights(radial_scale=radial_scale)
    va = np.asarray(f_rho(nodes)) * weights
    vb = np.asarray(f_sigma(nodes)) * weights
    d = np.abs(nodes[:, None] - nodes[None, :]) ** 2
    return float(va @ weight_fn(d) @ vb)


# (48, 64) sums 3072 nodes in blocks of 21 rows and a last one of 6;
# (4, 3) sums its 12 nodes as one block
@pytest.mark.parametrize("quad", [Quadrature2D(48, 64), Quadrature2D(4, 3)])
def test_blocked_pair_quadrature_matches_the_dense_sum(quad):
    rho, sigma = random_mixed(1, 6, 2), random_mixed(2, 6, 2)
    cases = [(husimi_of_state(rho), husimi_of_state(sigma),
              lambda d: (5.0 - 6.25 * d) * np.exp(-0.75 * d), 2.0),
             (isotropic_gaussian(1.0), isotropic_gaussian(0.5),
              lambda d: np.exp(-0.6 * d / 0.5), 2.5)]
    for f_rho, f_sigma, weight, scale in cases:
        dense = dense_pair_quadrature(f_rho, f_sigma, weight, quad, scale)
        blocked = _pair_quadrature(f_rho, f_sigma, weight, quad, scale)
        assert abs(blocked - dense) <= 1e-12 * max(1.0, abs(dense))


def test_pair_checks_memory_stays_within_blocks():
    # the dense (3072, 3072) kernel and its weighted copy peaked at 288 MiB;
    # the first run is untraced, so one-time caches stay out of the peak
    rho, sigma = random_mixed(1, 6, 2), random_mixed(2, 6, 2)

    def both():
        return (husimi_pair_from_states(rho, sigma, 0.3),
                order_pair_overlap_identity(rho, sigma, -1.0, -1.5, 0.3))

    both()
    tracemalloc.start()
    try:
        reports = both()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(rep.passed for rep in reports)
    assert peak < 16 * 2 ** 20


def test_bernstein_check():
    vac = bernstein_check(StateRecord("", make_fock(0, 2).density()))
    assert vac.passed
    # worst term is 24 T^5 at the grid edge T = 0.01
    assert vac.rhs == pytest.approx(24.0 * 0.01 ** 5, rel=1e-6)
    one = bernstein_check(StateRecord("", make_fock(1, 2).density()))
    assert one.passed
    assert one.rhs == pytest.approx(2.1672e-9, rel=1e-3)
    mixed = bernstein_check(StateRecord("", random_mixed(5, 7, rank=3)))
    assert mixed.passed
    assert mixed.rhs == pytest.approx(1.73352765142e-9, rel=1e-6)


def _bernstein_in_t_monomials(rho1, k_max=4):
    """Oracle: the polynomial expanded into monomials in T, exact at small
    cutoff, cancelling catastrophically from about cutoff 24 on."""
    base = np.polynomial.Polynomial([0.0])
    lam = np.polynomial.Polynomial([1.0, -2.0])
    for m, c in enumerate(purity_polynomial(rho1).coefficients):
        base = base + c * lam ** m
    current = base * np.polynomial.Polynomial([0.0, 1.0])
    grid = np.arange(0.01, 1.0001, 0.01)
    lows = []
    for _ in range(k_max + 1):
        lows.append(float(np.min(current(grid))))
        current = np.polynomial.Polynomial([0.0, 0.0, 1.0]) * current.deriv()
    return min(lows)


def test_bernstein_check_agrees_with_t_monomials_at_small_cutoff():
    for cutoff in (2, 5, 8, 12):
        for rho1 in (random_pure(cutoff, cutoff).density(),
                     random_mixed(cutoff + 1, cutoff, rank=2)):
            rep = bernstein_check(StateRecord("", rho1))
            assert abs(rep.rhs - _bernstein_in_t_monomials(rho1)) <= 1e-10


@pytest.mark.parametrize("cutoff", [24, 32, 64])
def test_bernstein_check_at_large_cutoff(cutoff):
    for rho1 in (random_pure(1, cutoff).density(), random_mixed(2, cutoff, rank=3)):
        rep = bernstein_check(StateRecord("", rho1))
        assert rep.passed
        assert rep.rhs > 0.0


def _bernstein_by_numpy_polynomial(rho1, k_max=4):
    """Oracle: the S_k recurrence of bernstein_check in numpy.polynomial,
    (worst value, its k)."""
    npoly = np.polynomial.polynomial
    s_k = purity_polynomial(rho1).coefficients
    grid = np.arange(0.01, 1.0001, 0.01)
    lows = []
    for k in range(k_max + 1):
        lows.append(float(np.min(grid ** (k + 1) * npoly.polyval(1.0 - 2.0 * grid, s_k))))
        s_k = npoly.polysub((k + 1) * s_k, npoly.polymul([1.0, -1.0], npoly.polyder(s_k)))
    return min(lows), int(np.argmin(lows))


def test_bernstein_recurrence_matches_numpy_polynomial_bit_for_bit():
    states = [make_fock(0, 1).density(), make_fock(0, 2).density(), make_fock(3, 7).density(),
              make_coherent(0.9, 20).density()]
    states += [f(cutoff, cutoff) for cutoff in (2, 5, 12, 24)
               for f in (lambda s, c: random_pure(s, c).density(),
                         lambda s, c: random_mixed(s + 1, c, rank=2))]
    for rho1 in states:
        rep = bernstein_check(StateRecord("", rho1))
        worst, worst_k = _bernstein_by_numpy_polynomial(rho1)
        assert rep.rhs == worst and rep.params["argmin_k"] == worst_k


def test_number_purity_monotonicity():
    grid = np.linspace(0.05, 1.0, 20)
    for state in (make_fock(1, 2).density(), random_mixed(8, 7, rank=3),
                  make_coherent(0.8, 20).density()):
        rep = number_purity_monotonicity(StateRecord("", state), grid)
        assert rep.passed


def test_number_purity_monotonicity_matches_per_state_traces():
    # 301 points at cutoff 10 span four loss blocks; each state's traces,
    # taken one matrix at a time, give the stacked margin bit for bit
    grid = np.linspace(0.01, 1.0, 301)
    rho1 = random_mixed(9, 10, rank=3)
    n = np.arange(10)[:, None]
    rising, falling = [], []
    for t in grid:
        m = apply_loss(rho1, t).matrix
        rising.append(float(np.einsum("ij,ji->", n * m, m).real))
        sandwiched = float(np.einsum("ij,ji->", lowered(m), m).real)
        falling.append(sandwiched * (1.0 - t) / t)
    rep = number_purity_monotonicity(StateRecord("", rho1), grid)
    assert rep.rhs == min(np.min(np.diff(rising)), np.min(-np.diff(falling)))


def test_pure_only_verifiers_refuse_a_mixed_record():
    mixed = StateRecord("mixed:5", random_mixed(5, 7, rank=3))
    for verify in (lambda r: transpose_trick_identity(r, 0.3),
                   lambda r: pure_number_ratio_inequality(r, 0.3),
                   pure_second_order_inequality):
        with pytest.raises(ValueError, match="only for pure inputs"):
            verify(mixed)
    # the same operator as a pure record passes
    pure = StateRecord("pure:7", random_pure(7, 7))
    assert transpose_trick_identity(pure, 0.3).passed
    assert pure_number_ratio_inequality(pure, 0.3).passed
    assert pure_second_order_inequality(pure).passed


def test_fock_hypergeometric_identity():
    for n in (0, 1, 3):
        rep = fock_hypergeometric_identity(n)
        assert rep.passed
        assert rep.margin > -1e-12
    with pytest.raises(ValueError):
        fock_hypergeometric_identity(2, t_grid=np.array([1.0]))
