"""Characteristic functions, quasiprobabilities, and phase-space purity routes."""

import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, gammaln, roots_laguerre

import lossylab.phasespace as phasespace

from lossylab.fock import (displacement_matrix, laguerre_ladder, make_coherent,
                           make_fock, random_mixed, random_pure)
from lossylab.loss import apply_loss
from lossylab.phasespace import (GridSpec, Quadrature2D, char_fn, laplace_purity,
                                 overlap_from_quasi, quasi_prob, quasi_prob_grid,
                                 wigner_from_parity, write_grid_csv)
from lossylab.purity import hs_overlap, purity
from strategies import density_operators


def test_char_fn_vacuum_closed_form():
    vac = make_fock(0, 3).density()
    pts = np.array([0.3 + 0.1j, -1.2j, 0.9])
    for s in (-1.0, 0.0, 0.5):
        vals = char_fn(vac, pts, s)
        expected = np.exp((s - 1.0) * np.abs(pts) ** 2 / 2.0)
        np.testing.assert_allclose(vals, expected, atol=1e-12)


def test_husimi_of_coherent_state():
    beta = 0.7 - 0.2j
    rho = make_coherent(beta, 22).density()
    pts = np.array([0.0, 0.5 + 0.5j, beta, -1.0j])
    vals = quasi_prob(rho, pts, -1.0)
    expected = np.exp(-np.abs(pts - beta) ** 2) / np.pi
    np.testing.assert_allclose(vals, expected, atol=1e-10)


def test_wigner_of_lossy_single_photon():
    # closed form: (2/pi) e^{-2|a|^2} ((1-T) + T(4|a|^2 - 1))
    one = make_fock(1, 2).density()
    pts = np.array([0.0, 0.4, 0.3 + 0.6j, -1.1j])
    for t in (0.1, 0.5, 0.75):
        rho = apply_loss(one, t)
        vals = quasi_prob(rho, pts, 0.0)
        a2 = np.abs(pts) ** 2
        expected = (2.0 / np.pi) * np.exp(-2.0 * a2) * (
            (1.0 - t) + t * (4.0 * a2 - 1.0))
        np.testing.assert_allclose(vals, expected, atol=1e-10)
        origin = quasi_prob(rho, np.array([0.0]), 0.0)[0]
        assert origin == pytest.approx((2.0 / np.pi) * (1.0 - 2.0 * t), abs=1e-10)


def test_wigner_parity_route_agrees():
    for rho in (apply_loss(random_mixed(7, 6, rank=3), 0.6), random_mixed(8, 12, rank=3)):
        for alpha in (0.0, 0.3 - 0.2j, 1.1j, -1.7 + 0.9j, 2.4):
            direct = quasi_prob(rho, np.array([alpha]), 0.0)[0]
            parity = wigner_from_parity(rho, alpha, working_cutoff=60)
            assert parity == pytest.approx(direct, abs=1e-9)


def _fock_closed_form(n, alpha, s):
    """P of |n><n| at order s: 2/(pi(1-s)) u^n e^{-2x/(1-s)} L_n(4x/(1-s^2))."""
    u = (s + 1.0) / (s - 1.0)
    x = np.abs(alpha) ** 2
    return (2.0 / (np.pi * (1.0 - s)) * u ** n * np.exp(-2.0 * x / (1.0 - s))
            * eval_genlaguerre(n, 0, 4.0 * x / (1.0 - s * s)))


@pytest.mark.parametrize("n", [30, 60])
@pytest.mark.parametrize("s", [-2.0, -0.5, 0.0, 0.3, 0.6])
def test_large_fock_matches_closed_form(n, s):
    rho = make_fock(n, n + 1).density()
    radii = np.linspace(0.0, np.sqrt(n) + 3.0, 60)
    pts = radii * np.exp(1j * np.linspace(0.0, 5.0, radii.size))
    vals = quasi_prob(rho, pts, s)
    ref = _fock_closed_form(n, pts, s)
    # near the nodes of L_n the pointwise ratio is ill-conditioned, so the
    # absolute floor is the same relative tolerance taken on the peak
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(ref)))


def test_husimi_is_coherent_expectation():
    # <alpha|rho|alpha>/pi with <n|alpha> = e^{-x/2} alpha^n / sqrt(n!)
    rho = random_mixed(41, 9, rank=3)
    pts = np.array([0.0, 0.4 - 0.3j, -1.2j, 1.9 + 0.5j, 3.0])
    levels = np.arange(rho.cutoff)
    kets = (np.exp(-np.abs(pts[None, :]) ** 2 / 2.0 - 0.5 * gammaln(levels[:, None] + 1.0))
            * pts[None, :] ** levels[:, None])
    expected = np.einsum("nP,nm,mP->P", kets.conj(), rho.matrix, kets).real / np.pi
    np.testing.assert_allclose(quasi_prob(rho, pts, -1.0), expected, rtol=1e-12, atol=1e-15)


def test_origin_is_weighted_population_sum():
    # D(0) = 1, so P(0, s) = 2/(pi(1-s)) sum_n u^n rho_nn and chi(0, s) = 1
    rho = random_mixed(43, 7, rank=3)
    pops = np.diag(rho.matrix).real
    for s in (-3.0, -1.0, -0.5, 0.0, 0.4):
        u = (s + 1.0) / (s - 1.0)
        expected = 2.0 / (np.pi * (1.0 - s)) * np.sum(u ** np.arange(rho.cutoff) * pops)
        assert quasi_prob(rho, 0.0, s) == pytest.approx(expected, rel=1e-13, abs=1e-15)
        assert char_fn(rho, 0.0, s) == pytest.approx(1.0, abs=1e-13)


def test_char_fn_matches_displacement_trace():
    rho = random_mixed(47, 8, rank=3)
    pts = np.array([0.0, 0.3 + 0.1j, -1.1 + 0.8j, 2.2j, -2.9])
    direct = char_fn(rho, pts, 0.0)
    ref = np.array([np.trace(rho.matrix @ displacement_matrix(a, rho.cutoff)) for a in pts])
    np.testing.assert_allclose(direct, ref, rtol=1e-12, atol=1e-14)
    scaled = char_fn(rho, pts, -0.6)
    np.testing.assert_allclose(scaled, ref * np.exp(-0.3 * np.abs(pts) ** 2),
                               rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_non_finite_alpha_rejected(bad):
    rho = random_mixed(53, 4, rank=2)
    for s in (-1.0, -0.5, 0.0, 0.5):
        with pytest.raises(ValueError, match="finite"):
            quasi_prob(rho, bad, s)
        with pytest.raises(ValueError, match="finite"):
            quasi_prob(rho, np.array([0.1, bad]), s)
    with pytest.raises(ValueError, match="finite"):
        char_fn(rho, np.array([0.2j, bad]), 0.0)


@pytest.mark.parametrize("s", [np.nan, np.inf, -np.inf])
def test_non_finite_order_rejected(s):
    # refused before the kernel runs, so no arithmetic warns (an error here)
    rho = random_mixed(53, 4, rank=2)
    with pytest.raises(ValueError, match="order s must be finite"):
        quasi_prob(rho, np.array([0.0, 0.3 - 0.1j]), s)
    with pytest.raises(ValueError, match="order s must be finite"):
        char_fn(rho, np.array([0.0, 0.3 - 0.1j]), s)


@settings(max_examples=60, deadline=None)
@given(rho1=density_operators(), radius=st.floats(0.0, 3.0),
       angle=st.floats(0.0, 2.0 * np.pi), t=st.floats(0.05, 1.0),
       s=st.floats(-3.0, 0.9))
def test_quasi_prob_obeys_loss_identity(rho1, radius, angle, t, s):
    alpha = radius * np.exp(1j * angle)
    s_shift = (s + t - 1.0) / t
    lhs = quasi_prob(apply_loss(rho1, t), alpha, s)
    rhs = quasi_prob(rho1, alpha / np.sqrt(t), s_shift) / t
    # orders near 1 amplify level n by |u|^n, so the tolerance scales with |P|
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(rhs)))


def test_positive_order_gaussian_path(loss_identity_quasi):
    # the loss identity at s = 0.5 maps a positive order onto another
    # positive order, (s + T - 1) / T = 1/6
    rho1 = random_pure(13, 6).density()
    for alpha in (0.2, 0.4 + 0.3j):
        report = loss_identity_quasi(rho1, 0.6, alpha, 0.5)
        assert report.passed
        assert report.margin > -1e-9


def test_loss_identity_chi(loss_identity_chi):
    rho1 = random_mixed(19, 6, rank=2)
    for s in (-0.5, 0.0):
        for alpha in (0.3, -0.2 + 0.7j):
            report = loss_identity_chi(rho1, 0.4, alpha, s)
            assert report.passed
            assert report.lhs < 1e-10


def test_laplace_purity_at_unit_transmissivity_is_purity():
    rho = apply_loss(random_mixed(23, 6, rank=3), 0.7)
    assert laplace_purity(rho, 1.0) == pytest.approx(purity(rho), abs=1e-6)


def test_laplace_purity_of_lossy_mixed_state():
    rho1 = random_mixed(29, 6, rank=2)
    for t in (0.25, 0.6):
        ref = purity(apply_loss(rho1, t))
        assert laplace_purity(rho1, t) == pytest.approx(ref, abs=1e-6)


# 5e-324 is in (0, 1], but the order 1 - 1/T of the characteristic
# function it integrates is not finite
@pytest.mark.parametrize("t", [0.0, -0.1, 1.5, math.nan, 5e-324])
def test_laplace_purity_refuses_transmissivity_outside_unit_interval(t):
    with pytest.raises(ValueError, match=r"transmissivity must lie in \(0, 1\]"):
        laplace_purity(make_fock(1, 2).density(), t)


def test_laplace_purity_refuses_a_rule_below_the_exact_rule():
    # |5> on 6 levels: its exact rule is 6:11; a four-node rule is refused
    # whatever its angles, and the exact rule gives 1
    fock5 = make_fock(5, 6).density()
    for quad in (Quadrature2D(4, 8), Quadrature2D(4, 64), Quadrature2D(5, 11),
                 Quadrature2D(6, 10)):
        with pytest.raises(ValueError, match="needs at least 6:11"):
            laplace_purity(fock5, 1.0, quad)
    assert laplace_purity(fock5, 1.0, Quadrature2D(6, 11)) == pytest.approx(1.0, abs=1e-12)
    assert laplace_purity(fock5, 1.0) == laplace_purity(fock5, 1.0, Quadrature2D(6, 11))


def _phase_space_rows(rho1, quad):
    """The four phasespace-suite rows, (route, trace) each: Tr rho^2 by both
    routes and the lossy purity at T = 0.25 and 0.6."""
    exact = purity(rho1)
    rows = [(laplace_purity(rho1, 1.0, quad), exact),
            (overlap_from_quasi(rho1, rho1, 0.0, quad), exact)]
    for t in (0.25, 0.6):
        rows.append((laplace_purity(rho1, t, quad), purity(apply_loss(rho1, t))))
    return rows


@pytest.mark.parametrize("cutoff, seed", [(12, 41), (40, 1)])
def test_exact_rule_is_the_sharp_bound(cutoff, seed):
    rho1 = random_pure(seed, cutoff).density()
    assert phasespace.exact_rule(rho1) == Quadrature2D(cutoff, 2 * cutoff - 1)
    for route, trace in _phase_space_rows(rho1, Quadrature2D(cutoff, 2 * cutoff - 1)):
        assert abs(route - trace) <= 1e-12
    bound = f"needs at least {cutoff}:{2 * cutoff - 1}"
    for quad in (Quadrature2D(cutoff - 1, 2 * cutoff - 1), Quadrature2D(cutoff, 2 * cutoff - 2)):
        with pytest.raises(ValueError, match=bound):
            laplace_purity(rho1, 0.6, quad)
        with pytest.raises(ValueError, match=bound):
            overlap_from_quasi(rho1, rho1, 0.0, quad)
        # the same sum, run below the bound: measurably wrong, so the bound
        # is sharp, not just safe
        assert abs(per_radius_laplace_purity(rho1, 1.0, quad) - 1.0) > 1e-9


def test_overlap_rule_is_sized_from_the_larger_ladder():
    rho, sigma = random_mixed(37, 5, rank=2), random_mixed(38, 9, rank=3)
    assert phasespace.exact_rule(rho, sigma) == Quadrature2D(9, 17)
    with pytest.raises(ValueError, match="needs at least 9:17"):
        overlap_from_quasi(rho, sigma, 0.0, Quadrature2D(5, 9))
    assert overlap_from_quasi(rho, sigma, 0.0) == pytest.approx(
        hs_overlap(rho.embedded(9), sigma), abs=1e-12)


def test_laplace_purity_single_photon():
    one = make_fock(1, 2).density()
    assert laplace_purity(one, 0.25) == pytest.approx(0.625, abs=1e-8)
    # cross-check against the trace at another transmissivity
    assert laplace_purity(one, 0.4) == pytest.approx(
        purity(apply_loss(one, 0.4)), abs=1e-8)


def per_radius_laplace_purity(rho1, t, quad):
    """Oracle: laplace_purity's sum, (1 / (pi T)) sum W |chi(alpha, 1 - 1/T)|^2,
    with one char_fn call per radial node over its ring of angles, the nodes
    and weights built here from the radial rule (gated against scipy's
    roots_laguerre on its own), and any rule run, however short."""
    nodes, scaled = phasespace._laguerre_rule(quad.n_radial)
    ring = np.exp(1j * 2.0 * np.pi * np.arange(quad.n_angular) / quad.n_angular)
    terms = [0.5 * t * wi * (2.0 * np.pi / quad.n_angular)
             * np.abs(char_fn(rho1, np.sqrt(t * ti) * ring, 1.0 - 1.0 / t)) ** 2
             for ti, wi in zip(nodes, scaled)]
    return math.fsum(np.concatenate(terms)) / (np.pi * t)


@pytest.mark.parametrize("quad", [Quadrature2D(40, 64), Quadrature2D(80, 128)],
                         ids=["40:64", "80:128"])
@pytest.mark.parametrize("rho1", [random_mixed(5, 8, 3), random_mixed(3, 24, 3)],
                         ids=["mixed8", "mixed24"])
def test_laplace_purity_equals_per_radius_loop(rho1, quad):
    for t in (0.25, 0.6, 1.0):
        assert laplace_purity(rho1, t, quad) == per_radius_laplace_purity(rho1, t, quad)


def test_laplace_purity_one_char_fn_call_per_transmissivity(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(np.size(args[1]))
        return char_fn(*args, **kwargs)

    monkeypatch.setattr(phasespace, "char_fn", counting)
    rho1 = random_mixed(5, 8, 3)
    quad = Quadrature2D(40, 64)
    for t in (0.25, 0.6):
        laplace_purity(rho1, t, quad)
    assert calls == [40 * 64, 40 * 64]


@pytest.mark.parametrize("n", [10, 20, 30])
def test_laplace_purity_of_fock_states(n, fock_purity_closed_form):
    # |chi(alpha, 1)|^2 = L_n(|alpha|^2)^2 is a phase-free polynomial of
    # degree 2n, which the state's exact rule, of n + 1 Laguerre nodes
    # (exact to degree 2n + 1), integrates exactly
    rho1 = make_fock(n, n + 1).density()
    for t in (0.2, 0.5, 0.85):
        assert laplace_purity(rho1, t) == pytest.approx(
            fock_purity_closed_form(n, t), abs=1e-12)


def test_overlap_from_quasi():
    vac = make_fock(0, 4).density()
    one = make_fock(1, 4).density()
    for s in (-0.5, 0.5):
        assert abs(overlap_from_quasi(vac, one, s)) < 1e-10
    rho = random_mixed(37, 5, rank=2)
    sig = random_mixed(38, 5, rank=3)
    assert overlap_from_quasi(rho, sig, -0.5) == pytest.approx(
        hs_overlap(rho, sig), abs=1e-6)


def test_grid_integral_and_convolution(convolve_quasi):
    vac = make_fock(0, 2).density()
    grid = GridSpec(6.0, 101)
    wig = quasi_prob_grid(vac, 0.0, grid)
    assert wig.integral() == pytest.approx(1.0, abs=1e-6)
    assert wig.values[50, 50] == pytest.approx(2.0 / np.pi, abs=1e-10)
    hus = convolve_quasi(wig, -1.0)
    assert hus.order == pytest.approx(-1.0)
    assert hus.values[50, 50] == pytest.approx(1.0 / np.pi, abs=1e-3)
    with pytest.raises(ValueError):
        convolve_quasi(wig, 0.5)


QUASI_ORDERS = (-1.0, -0.5, 0.0, 0.3)
CHI_ORDERS = (-0.4, 0.0, 1.0)


def _agreement_points(cutoff):
    half_width = 2.0 + np.sqrt(cutoff)
    rng = np.random.default_rng(cutoff)
    points = {"random": half_width * (rng.uniform(-1.0, 1.0, 200)
                                      + 1j * rng.uniform(-1.0, 1.0, 200))}
    if cutoff <= 24:
        # the per-point oracle takes seconds per call on these at cutoff 64
        points["grid81"] = GridSpec(half_width, 81).alphas()
        points["rule40x64"] = Quadrature2D(40, 64).nodes_weights(radial_scale=cutoff / 8.0)[0]
    return points


# The s = 0.3 quasiprobability and the s = 1 characteristic function: on the
# points of _agreement_points their terms cancel up to 5e3-fold
CANCELLING_ROUTES = ((quasi_prob, 0.3), (char_fn, 1.0))


@pytest.mark.parametrize("cutoff", [8, 24, 64])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_pair_kernel_matches_per_point_oracle(kind, cutoff, per_point_kernel, monkeypatch):
    rho = (random_pure(61, cutoff).density() if kind == "pure"
           else random_mixed(62, cutoff, 3))
    routes = [(quasi_prob, s) for s in QUASI_ORDERS] + [(char_fn, s) for s in CHI_ORDERS]
    # those are measured against exact values instead
    # (test_cancelling_routes_match_exact_values)
    routes = [route for route in routes if route not in CANCELLING_ROUTES]
    for label, pts in _agreement_points(cutoff).items():
        for fn, s in routes:
            got = fn(rho, pts, s)
            with monkeypatch.context() as patch:
                patch.setattr(phasespace, "_pair_trace", per_point_kernel)
                ref = fn(rho, pts, s)
            dev = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
            assert dev <= 1e-13, (label, fn.__name__, s, dev)


@pytest.mark.parametrize("cutoff", [8, 24, 64])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_cancelling_routes_match_exact_values(kind, cutoff, exact_kernel, monkeypatch):
    # Where the terms cancel, the exact diagonal sums rounded once to double
    # and combined exactly with the phase in double are already 1.8e-12 of
    # the value off at the worst grid point, so a route in double cannot meet
    # 1e-13 against the exact value; per_point_kernel is off by up to 3.1e-12
    # (s = 0.3) and 2.3e-13 (chi, s = 1) here, and fails both bounds below
    rho = (random_pure(61, cutoff).density() if kind == "pure"
           else random_mixed(62, cutoff, 3))
    bounds = dict(zip(CANCELLING_ROUTES, (2e-12, 2e-13)))
    if cutoff == 64:
        # at cutoff 64 the s = 0.3 series cancels past the imaginary-residue
        # check in either kernel
        del bounds[quasi_prob, 0.3]
    for label, pts in _agreement_points(cutoff).items():
        for (fn, s), bound in bounds.items():
            got = fn(rho, pts, s)
            with monkeypatch.context() as patch:
                patch.setattr(phasespace, "_pair_trace", exact_kernel)
                ref = fn(rho, pts, s)
            dev = np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref)))
            assert dev <= bound, (label, fn.__name__, s, dev)


def test_positive_order_counts_every_element(exact_kernel, monkeypatch):
    # at s = 0.5 level n weighs 3^n, so the elements of a coherent state far
    # below 1e-18 still move the value by 4e-2 at cutoff 50
    rho = make_coherent(3.0, 50).density()
    pts = np.array([3.0, 2.5 + 0.5j, 3.5 - 1.0j])
    got = quasi_prob(rho, pts, 0.5)
    with monkeypatch.context() as patch:
        patch.setattr(phasespace, "_pair_trace", exact_kernel)
        ref = quasi_prob(rho, pts, 0.5)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-12
    # at cutoff 60 the truncated sum at the center is within 2e-7 of the
    # untruncated 2 / (pi (1 - s))
    assert quasi_prob(make_coherent(3.0, 60).density(), 3.0, 0.5) == pytest.approx(
        4.0 / np.pi, abs=1e-6)


def test_per_point_oracle_counts_every_element(per_point_kernel, monkeypatch):
    # the oracle reads every nonzero element pair, as the kernel does: a
    # coherent state's elements below 1e-18 move the s = 0.3 values by 7e-7
    # of the value, and with them counted the two agree to 2e-13
    rho = make_coherent(3.0, 50).density()
    pts = np.array([3.0, 1.0 + 1.0j, -2.0 + 0.5j, 0.2j])
    got = quasi_prob(rho, pts, 0.3)
    with monkeypatch.context() as patch:
        patch.setattr(phasespace, "_pair_trace", per_point_kernel)
        ref = quasi_prob(rho, pts, 0.3)
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-11


@pytest.mark.parametrize("beta", [5.0, 3.0 - 2.0j])
def test_coherent_quasi_prob_at_large_photon_number(beta):
    # P(alpha, s) = 2/(pi(1-s)) exp(-2|alpha-beta|^2/(1-s)) for s < 1
    rho = make_coherent(beta, 96).density()
    pts = GridSpec(8.0, 121).alphas()
    for s in (-1.0, -0.5, 0.0):
        peak = 2.0 / (np.pi * (1.0 - s))
        ref = peak * np.exp(-2.0 * np.abs(pts - beta) ** 2 / (1.0 - s))
        assert np.max(np.abs(quasi_prob(rho, pts, s) - ref)) <= 1e-13 * peak


def test_coherent_quasi_prob_at_positive_order():
    beta, s = 1.5j, 0.3
    rho = make_coherent(beta, 40).density()
    pts = GridSpec(8.0, 121).alphas()
    peak = 2.0 / (np.pi * (1.0 - s))
    ref = peak * np.exp(-2.0 * np.abs(pts - beta) ** 2 / (1.0 - s))
    assert np.max(np.abs(quasi_prob(rho, pts, s) - ref)) <= 1e-11 * peak


@pytest.mark.parametrize("beta", [5.0, 3.0 - 2.0j])
def test_coherent_char_fn_at_large_photon_number(beta):
    # chi(alpha, s) = exp(alpha conj(beta) - conj(alpha) beta + (s-1)|alpha|^2/2)
    rho = make_coherent(beta, 96).density()
    pts, _ = Quadrature2D(40, 64).nodes_weights()
    ref = np.exp(pts * np.conj(beta) - np.conj(pts) * beta - 0.7 * np.abs(pts) ** 2)
    assert np.max(np.abs(char_fn(rho, pts, -0.4) - ref)) <= 1e-14


def test_pair_kernel_values_do_not_depend_on_the_batch():
    rho = random_mixed(63, 8, 3)
    pts = GridSpec(3.0, 15).alphas() + (0.2 - 0.1j)
    for fn, orders in ((quasi_prob, QUASI_ORDERS), (char_fn, CHI_ORDERS)):
        for s in orders:
            batch = fn(rho, pts, s)
            single = np.array([fn(rho, a, s) for a in pts])
            assert np.array_equal(batch, single), (fn.__name__, s)


def _counting_ladder(calls):
    """laguerre_ladder, recording the number of columns of every pass."""
    def spy(k, z, stop, start, w=1.0):
        calls.append(np.size(z))
        return laguerre_ladder(k, z, stop, start, w)
    return spy


def test_pair_kernel_runs_one_ladder_pass_per_call(monkeypatch):
    calls = []
    monkeypatch.setattr(phasespace, "laguerre_ladder", _counting_ladder(calls))
    rho = random_mixed(64, 8, 3)
    pts, _ = Quadrature2D(40, 64).nodes_weights()
    distinct = np.unique(np.abs(pts) ** 2).size
    assert distinct < pts.size
    for fn, s in ((quasi_prob, -0.5), (quasi_prob, 0.3), (char_fn, 0.0)):
        calls.clear()
        fn(rho, pts, s)
        assert calls == [distinct], (fn.__name__, s)


def test_pair_kernel_cost_at_cutoff_96(monkeypatch):
    # coherent beta = 5 on a 121 x 121 grid: the blocks of distinct radii
    # bound the working set (11.5 MiB peak for the per-diagonal kernel this
    # replaced), and the radii take more than one block
    calls = []
    monkeypatch.setattr(phasespace, "laguerre_ladder", _counting_ladder(calls))
    rho = make_coherent(5.0, 96).density()
    pts = GridSpec(8.0, 121).alphas()
    tracemalloc.start()
    try:
        quasi_prob(rho, pts, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 11.5 * 2 ** 20
    assert len(calls) >= 2
    assert sum(calls) == np.unique(np.abs(pts) ** 2).size


@pytest.mark.parametrize("n, s", [(20, -0.5), (20, 0.0), (20, 0.3), (60, -0.5), (60, 0.0),
                                  (120, -0.5), (120, 0.0)])
def test_large_fock_matches_exact_rational_oracle(n, s, fock_quasi_exact):
    rho = make_fock(n, n + 1).density()
    radii = np.linspace(0.0, np.sqrt(n) + 3.0, 40)
    pts = radii * np.exp(1j * np.linspace(0.0, 5.0, radii.size))
    ref = fock_quasi_exact(n, pts, s)
    peak = np.max(np.abs(ref))
    assert np.max(np.abs(quasi_prob(rho, pts, s) - ref)) <= 1e-13 * max(1.0, peak)


@pytest.mark.parametrize("n", [40, 48, 64, 80, 128, 256, 362])
def test_laguerre_rule_matches_scipy_and_integrates_polynomials(n):
    nodes, scaled = phasespace._laguerre_rule(n)
    assert np.all(np.isfinite(scaled)) and np.all(scaled > 0.0)
    ref_nodes, ref_weights = roots_laguerre(n)
    assert np.max(np.abs(nodes - ref_nodes) / ref_nodes) <= 2e-13
    # scipy's weights times e^t, wherever scipy's weight is a normal float
    normal = ref_weights >= np.finfo(float).tiny
    ref_scaled = np.exp(np.log(ref_weights[normal]) + ref_nodes[normal])
    assert np.max(np.abs(scaled[normal] - ref_scaled) / ref_scaled) <= 2e-12
    # exact for every power below 2n, up to where x^(j/2) or j! overflows
    weights = scaled * np.exp(-nodes)
    for j in range(2 * n):
        with np.errstate(over="ignore"):
            half = nodes ** (j / 2)
        if not np.all(np.isfinite(half)) or j > 170:
            break
        exact = math.factorial(j)
        assert abs(math.fsum(weights * half * half) - exact) <= 1e-13 * exact, j
    assert j >= min(2 * n - 1, 100)


def test_a_long_radial_rule_raises_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nodes, scaled = phasespace._laguerre_rule.__wrapped__(256)
        alphas, weights = Quadrature2D(256, 511).nodes_weights(radial_scale=0.25)
    assert np.all(np.isfinite(scaled)) and np.all(scaled > 0.0)
    assert np.all(np.isfinite(alphas)) and np.all(np.isfinite(weights))


def test_write_grid_csv_format(tmp_path):
    one = make_fock(1, 2).density()
    grid = GridSpec(3.0, 5)
    qgrid = quasi_prob_grid(one, 0.0, grid)
    out = tmp_path / "grid.csv"
    write_grid_csv(out, qgrid, "fock:1", transmissivity=0.5)
    lines = out.read_text().splitlines()
    assert lines[0] == f"# s={0.0!r},T={0.5!r},state=fock:1"
    assert lines[1] == "re_alpha,im_alpha,value"
    assert len(lines) == 2 + 25
    first = lines[2].split(",")
    assert float(first[0]) == pytest.approx(-3.0)
    assert float(first[1]) == pytest.approx(-3.0)

    out2 = tmp_path / "grid2.csv"
    write_grid_csv(out2, qgrid, "fock:1", transmissivity=None)
    assert out2.read_text().splitlines()[0] == f"# s={0.0!r},T=none,state=fock:1"


def per_cell_grid_csv(path, qgrid, state_label, transmissivity=None):
    """Oracle: the grid dump formatting both axis values in every cell."""
    axis = np.linspace(-qgrid.grid.half_width, qgrid.grid.half_width, qgrid.grid.n)
    t_part = repr(float(transmissivity)) if transmissivity is not None else "none"
    with open(path, "w", newline="") as fh:
        fh.write(f"# s={qgrid.order!r},T={t_part},state={state_label}\n")
        writer = csv.writer(fh)
        writer.writerow(["re_alpha", "im_alpha", "value"])
        for i in range(qgrid.grid.n):
            for j in range(qgrid.grid.n):
                writer.writerow([repr(float(axis[i])), repr(float(axis[j])),
                                 repr(float(qgrid.values[i, j].real))])


def test_write_grid_csv_holds_one_row_at_a_time(tmp_path):
    # a 400 x 400 grid: formatted whole, its rows take tens of MiB
    grid = GridSpec(4.0, 400)
    values = np.random.default_rng(3).normal(size=(grid.n, grid.n))
    qgrid = phasespace.QuasiProbGrid(grid, 0.0, values)
    tracemalloc.start()
    try:
        write_grid_csv(tmp_path / "grid.csv", qgrid, "fock:1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20
    assert len((tmp_path / "grid.csv").read_bytes().splitlines()) == 2 + grid.n ** 2


def test_write_grid_csv_bytes_match_per_cell_writer(tmp_path):
    rho = apply_loss(random_mixed(5, 6, 2), 0.4)
    qgrid = quasi_prob_grid(rho, -0.5, GridSpec(2.5, 9))
    for t in (0.4, None):
        out, ref = tmp_path / "grid.csv", tmp_path / "ref.csv"
        write_grid_csv(out, qgrid, "random-mixed:5", transmissivity=t)
        per_cell_grid_csv(ref, qgrid, "random-mixed:5", transmissivity=t)
        assert out.read_bytes() == ref.read_bytes()
