"""Moment inequalities, derivative forms, pair integrals, and Bernstein bounds."""

import numpy as np
import pytest

from lossylab.fock import (make_coherent, make_fock, random_mixed, random_pure)
from lossylab.phasespace import Quadrature2D
from lossylab.purity import purity_polynomial
from lossylab.inequalities import (CoherentMixture, ThermalPState,
                                   bernstein_check, cauchy_schwarz_ladder,
                                   fock_hypergeometric_identity,
                                   husimi_of_state, husimi_pair_check,
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
    ladder = ladder_loss_inequality(one.density(), 0.25)
    assert ladder.passed
    assert ladder.lhs == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert ladder.rhs == pytest.approx(3.0 / 16.0, abs=1e-12)

    ratio = pure_number_ratio_inequality(one, 0.25)
    assert ratio.passed
    assert ratio.lhs == pytest.approx(0.25, abs=1e-12)
    assert ratio.rhs == pytest.approx(0.75, abs=1e-12)

    transpose = transpose_trick_identity(one, 0.25)
    assert transpose.passed
    assert transpose.lhs == pytest.approx(3.0 / 16.0, abs=1e-12)
    assert transpose.rhs == pytest.approx(3.0 / 16.0, abs=1e-12)

    with pytest.raises(ValueError):
        ladder_loss_inequality(one.density(), 0.6)
    with pytest.raises(ValueError):
        pure_number_ratio_inequality(one, 0.7)


def test_pure_second_order_inequality():
    one = pure_second_order_inequality(make_fock(1, 3))
    assert one.passed
    assert one.lhs == pytest.approx(0.0, abs=1e-12)
    assert one.rhs == pytest.approx(2.0, abs=1e-12)
    # coherent states saturate the bound
    coh = pure_second_order_inequality(make_coherent(1.0, 26))
    assert coh.passed
    assert abs(coh.rhs - coh.lhs) < 1e-10


def test_second_derivative_forms():
    one = make_fock(1, 2)
    for t in (0.2, 0.5, 0.8):
        rep = second_derivative_forms(one, t)
        assert rep.passed
        assert rep.lhs == pytest.approx(4.0, abs=1e-10)
        assert rep.rhs == pytest.approx(4.0, abs=1e-10)

    mixed = second_derivative_forms(random_mixed(5, 7, rank=3), 0.3)
    assert mixed.passed
    assert mixed.lhs == pytest.approx(3.73282364768, abs=1e-9)

    pure = second_derivative_forms(random_pure(7, 7), 0.62)
    assert pure.passed
    assert pure.lhs == pytest.approx(2.92763622907, abs=1e-9)
    assert pure.params["forms"] == 3


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


def test_bernstein_check():
    vac = bernstein_check(make_fock(0, 2).density())
    assert vac.passed
    # worst term is 24 T^5 at the grid edge T = 0.01
    assert vac.rhs == pytest.approx(24.0 * 0.01 ** 5, rel=1e-6)
    one = bernstein_check(make_fock(1, 2).density())
    assert one.passed
    assert one.rhs == pytest.approx(2.1672e-9, rel=1e-3)
    mixed = bernstein_check(random_mixed(5, 7, rank=3))
    assert mixed.passed
    assert mixed.rhs == pytest.approx(1.73352765142e-9, rel=1e-6)
    with pytest.raises(ValueError):
        bernstein_check(make_fock(0, 2).density(), k_max=5)


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
            rep = bernstein_check(rho1)
            assert abs(rep.rhs - _bernstein_in_t_monomials(rho1)) <= 1e-10


@pytest.mark.parametrize("cutoff", [24, 32, 64])
def test_bernstein_check_at_large_cutoff(cutoff):
    for rho1 in (random_pure(1, cutoff).density(), random_mixed(2, cutoff, rank=3)):
        rep = bernstein_check(rho1)
        assert rep.passed
        assert rep.rhs > 0.0


def test_number_purity_monotonicity():
    grid = np.linspace(0.05, 1.0, 20)
    for state in (make_fock(1, 2).density(), random_mixed(8, 7, rank=3),
                  make_coherent(0.8, 20).density()):
        rep = number_purity_monotonicity(state, grid)
        assert rep.passed


def test_fock_hypergeometric_identity():
    for n in (0, 1, 3):
        rep = fock_hypergeometric_identity(n)
        assert rep.passed
        assert rep.margin > -1e-12
    with pytest.raises(ValueError):
        fock_hypergeometric_identity(2, t_grid=np.array([1.0]))
