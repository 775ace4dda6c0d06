"""Moment inequalities, derivative forms, pair integrals, and Bernstein bounds."""

import time
import tracemalloc

import numpy as np
import pytest

from conftest import (coherent_mixture_pair_integral, fock_hypergeometric_identity,
                      mode_operators, thermal_pair_integral, thermal_state)
from lossylab import inequalities
from lossylab.fock import (DensityOperator, lowered, make_coherent, make_fock, random_mixed,
                           random_pure)
from lossylab.loss import apply_loss
from lossylab.purity import PurityPolynomial, StateRecord, overlap_polynomial, purity_polynomial
from lossylab.inequalities import (bernstein_check, cauchy_schwarz_ladder,
                                   _form_terms, husimi_of_state,
                                   husimi_pair_check,
                                   husimi_pair_from_states,
                                   isotropic_gaussian, ladder_loss_inequality,
                                   number_purity_monotonicity,
                                   order_pair_overlap_check,
                                   order_pair_overlap_identity,
                                   pure_number_ratio_inequality,
                                   pure_second_order_inequality,
                                   second_derivative_forms, second_derivative_sign,
                                   transpose_trick_identity)


def test_cauchy_schwarz_ladder():
    rep = cauchy_schwarz_ladder(StateRecord("", make_fock(2, 4).density()))
    assert rep.passed and rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == pytest.approx(2.0)
    # coherent states saturate once the cutoff absorbs the truncation tail
    coh = cauchy_schwarz_ladder(StateRecord("", make_coherent(1.0, 26).density()))
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
    assert mixed.margin == -abs(mixed.lhs - mixed.rhs)

    pure = second_derivative_forms(StateRecord("", random_pure(7, 7)), 0.62)
    assert pure.passed
    assert pure.lhs == pytest.approx(2.92763622907, abs=1e-9)
    assert pure.params["forms"] == 3


def _shifted_second_derivative(record, shift):
    # a c lambda^2 term moves P''(T) = 4 P_lambda_lambda by 8 c at every T
    coefficients = record.poly.coefficients.copy()
    coefficients[2] += shift / 8.0
    record.poly = PurityPolynomial(coefficients)
    return record


@pytest.mark.parametrize("shift, passed", [(0.5e-9, True), (1.5e-9, False), (-1.5e-9, False)])
def test_second_derivative_forms_fail_beyond_their_tolerance(shift, passed):
    # the margin is minus the largest deviation, so a P'' off by more than
    # the tolerance of 1e-9 fails, whatever the sign of form one
    record = _shifted_second_derivative(StateRecord("", random_mixed(5, 7, rank=3)), shift)
    rep = second_derivative_forms(record, 0.3)
    assert rep.passed is passed, rep.margin
    assert abs(rep.margin + abs(shift)) < 1e-13


def test_second_derivative_sign(monkeypatch):
    mixed = StateRecord("", random_mixed(5, 7, rank=3))
    rep = second_derivative_sign(mixed, 0.3)
    assert rep.passed and rep.lhs == 0.0
    assert rep.rhs == rep.margin == pytest.approx(3.73282364768, abs=1e-9)
    assert second_derivative_sign(StateRecord("", random_pure(7, 7)), 0.62).passed
    # the sign is claimed for a mixed input only at T <= 1/2
    with pytest.raises(ValueError):
        second_derivative_sign(mixed, 0.6)
    for t in (0.0, 1.0):
        with pytest.raises(ValueError):
            second_derivative_sign(mixed, t)
    for form_one, passed in ((-0.5e-9, True), (-2e-9, False)):
        monkeypatch.setattr(inequalities, "_form_one", lambda f_t, t: form_one)
        assert second_derivative_sign(mixed, 0.3).passed is passed


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
    # the pair integral of the P densities weighted by |a - b|^(2k) equals
    # (-1)^k d^k P/dT^k, for two families whose P density is regular
    weights, alphas = (0.6, 0.4), (0.8, -0.5 + 0.4j)
    vecs = [make_coherent(al, 16).amplitudes for al in alphas]
    mix = purity_polynomial(DensityOperator(
        sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs)), 16))
    for t in (0.2, 0.45):
        for k in (0, 1, 2):
            direct = coherent_mixture_pair_integral(weights, alphas, t, k)
            assert abs(direct - (-1.0) ** k * mix.derivative(t, k)) < 1e-8, (t, k)

    thermal = purity_polynomial(thermal_state(0.4, 20))
    for t in (0.1, 0.35):
        for k in (0, 1, 2):
            direct = thermal_pair_integral(0.4, t, k)
            assert abs(direct - (-1.0) ** k * thermal.derivative(t, k)) < 1e-8, (t, k)


def test_phase_space_derivative_pure_pattern():
    poly = purity_polynomial(random_pure(12, 7).density())
    low, high = poly.derivative(0.3, 1), poly.derivative(0.7, 1)
    assert low <= 0.0 <= high
    # first derivative of purity is antisymmetric about T = 1/2 for pure input
    assert low == pytest.approx(-high, abs=1e-10)
    assert poly.derivative(0.8, 2) >= 0.0


def test_husimi_gaussian_pair_closed_form():
    # for isotropic Gaussians (c/pi) e^{-c|a|^2} the pair value is
    # g (2g - 1) / (lam b)^2 with g = c c'/(c + c'), lam = 1 - 2T,
    # b = g + T / lam
    def exact(c, cp, t):
        g = c * cp / (c + cp)
        lam = 1.0 - 2.0 * t
        b = g + t / lam
        return g * (2.0 * g - 1.0) / (lam * b) ** 2

    # the rule, 1:2 nodes per variable, is exact near T = 1/2 too
    cases = [(1.0, 1.0, 0.1), (1.0, 0.5, 0.3), (0.5, 0.5, 0.2),
             (2.0, 1.0, 0.3), (2.0, 2.0, 0.4),
             (1.0, 0.5, 0.45), (2.0, 1.0, 0.48), (4.0, 1.5, 0.47)]
    for c, cp, t in cases:
        rep = husimi_pair_check(isotropic_gaussian(c), isotropic_gaussian(cp), t)
        assert rep.lhs == pytest.approx(exact(c, cp, t), rel=1e-12, abs=1e-12)

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
    with pytest.raises(ValueError):
        husimi_pair_check(isotropic_gaussian(-2.0), isotropic_gaussian(1.0), 0.3)


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
    assert rep.rhs == pytest.approx(rep.lhs, abs=1e-10)
    coherent = make_coherent(1.0, 12).density()
    rep = husimi_pair_from_states(coherent, coherent, 0.47)
    assert rep.passed
    assert abs(rep.lhs - overlap_polynomial(coherent, coherent).derivative(0.47, 1)) < 1e-10


@pytest.mark.parametrize("shift, passed", [(0.5e-10, True), (1.5e-10, False)])
def test_husimi_pair_from_states_fails_beyond_its_tolerance(shift, passed, monkeypatch):
    # a c lambda term moves dO/dT by -2 c; the margin is minus the deviation
    # from the pair integral, so an exact derivative off by more than the
    # tolerance of 1e-10 fails, though the integral keeps its sign
    rho, sigma = random_mixed(5, 7, rank=3), random_mixed(6, 7, rank=3)
    coefficients = overlap_polynomial(rho, sigma).coefficients.copy()
    coefficients[1] -= shift / 2.0
    monkeypatch.setattr(inequalities, "overlap_polynomial",
                        lambda *_: PurityPolynomial(coefficients))
    rep = husimi_pair_from_states(rho, sigma, 0.3)
    assert rep.lhs < 0.0
    assert rep.passed is passed, rep.margin
    assert abs(rep.margin + shift) < 1e-14


def test_pair_rule_above_its_budget_is_refused_before_it_is_built():
    # a Husimi pair on 40 levels needs (40 * 80)^2 points, over 2^22; the
    # Husimi functions are lazy, so nothing is evaluated before the refusal
    rho, sigma = random_mixed(1, 40, rank=2), random_mixed(2, 40, rank=2)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"10240000 points, above the budget of 4194304"):
        husimi_pair_from_states(rho, sigma, 0.3)
    assert time.perf_counter() - start < 1.0


def test_order_pair_overlap_check():
    rho = random_mixed(3, 6, rank=2)
    sig = random_mixed(9, 6, rank=2)
    # the integral value is -dO/dT, independent of the order split
    for r, rp in ((-1.0, -1.0), (-0.5, -1.5), (0.0, -2.0)):
        rep = order_pair_overlap_check(rho, sig, r, rp, 0.3)
        assert rep.passed, (r, rp, rep.margin)
        assert rep.rhs == pytest.approx(0.861094706469, abs=1e-4)
    # exact near T = 1/2 too, for orders of either sign
    slope = overlap_polynomial(rho, sig).derivative(0.48, 1)
    for r, rp in ((-0.5, -1.5), (0.5, -0.5)):
        rep = order_pair_overlap_check(rho, sig, r, rp, 0.48)
        assert rep.passed and abs(rep.rhs + slope) < 1e-10, (r, rp)
    with pytest.raises(ValueError):
        order_pair_overlap_check(rho, sig, -1.0, -1.0, 0.7)
    with pytest.raises(ValueError):
        order_pair_overlap_check(rho, sig, 1.2, -1.0, 0.3)


def test_order_pair_overlap_identity():
    rho = random_mixed(3, 6, rank=2)
    sig = random_mixed(9, 6, rank=2)
    for r, rp in ((-1.0, -1.0), (-1.5, -2.0)):
        rep = order_pair_overlap_identity(rho, sig, r, rp, 0.3)
        assert rep.passed, (r, rp, rep.margin)
        assert rep.rhs == pytest.approx(0.35941672931, abs=1e-9)
    with pytest.raises(ValueError):
        order_pair_overlap_identity(rho, sig, -0.5, -1.0, 0.3)
    with pytest.raises(ValueError):
        # 2 + (r + r' - 2) T = 0 exactly: singular existence boundary
        order_pair_overlap_identity(rho, sig, -1.0, -2.0, 0.4)


# the pair rules are exact, so every pair check meets the exact overlap
# derivative near T = 1/2 too, where a fixed rule misses the narrowing kernel
@pytest.mark.parametrize("t", [0.45, 0.47, 0.48])
def test_vacuum_husimi_pair_is_exactly_zero_near_balance(t):
    vacuum = make_fock(0, 1).density()
    for q in (isotropic_gaussian(1.0), husimi_of_state(vacuum)):
        rep = husimi_pair_check(q, q, t)
        assert rep.passed and abs(rep.lhs) < 1e-10, (t, rep.lhs)


@pytest.mark.parametrize("cutoff", [6, 8, 12, 16])
def test_husimi_pair_from_states_is_exact_near_balance(cutoff):
    rho, sigma = random_mixed(3, cutoff, 3), random_mixed(4, cutoff, 3)
    poly = overlap_polynomial(rho, sigma)
    for t in (0.3, 0.45, 0.47, 0.48):
        rep = husimi_pair_from_states(rho, sigma, t)
        assert rep.passed, (t, rep.margin)
        assert abs(rep.lhs - poly.derivative(t, 1)) < 1e-10, t


def test_pair_checks_memory_stays_within_blocks():
    # each block of the product rule holds at most PAIR_BLOCK_ENTRIES points;
    # at cutoff 16 the whole 512 x 512 rule peaked at 35.5 MiB. The first run
    # is untraced, so one-time caches stay out of the peak
    pairs = [(random_mixed(1, 6, 2), random_mixed(2, 6, 2)),
             (random_mixed(1, 16, 2), random_mixed(2, 16, 2))]

    def both(rho, sigma):
        return (husimi_pair_from_states(rho, sigma, 0.3),
                order_pair_overlap_identity(rho, sigma, -1.0, -1.5, 0.3))

    for rho, sigma in pairs:
        both(rho, sigma)
        tracemalloc.start()
        try:
            reports = both(rho, sigma)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(rep.passed for rep in reports)
        assert peak < 16 * 2 ** 20, (rho.cutoff, peak)


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
