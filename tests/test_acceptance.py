"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Every test times itself against its stated budget, prints a single
verdict line, and asserts both the mathematical claim and the runtime.
"""

import time

import numpy as np
import pytest

from conftest import indefinite_convex_operator, qcs_kernel_form
from lossylab.conjectures import (bell_like_pair, dark_port_g2_scan,
                                  ell_log_convexity_corpus, fair_pair,
                                  log_convexity_corpus, separable_01_pair,
                                  unfairness_scan)
from lossylab.fock import make_coherent, make_fock, random_mixed, random_pure
from lossylab.inequalities import (bernstein_check, cauchy_schwarz_ladder,
                                   husimi_pair_check, isotropic_gaussian,
                                   ladder_loss_inequality,
                                   number_purity_monotonicity,
                                   pure_number_ratio_inequality,
                                   pure_second_order_inequality,
                                   second_derivative_forms,
                                   transpose_trick_identity)
from lossylab.loss import apply_loss
from lossylab.phasespace import (GridSpec, Quadrature2D, laplace_purity,
                                 overlap_from_quasi, quasi_prob,
                                 quasi_prob_grid)
from lossylab.purity import (StateRecord, mutual_information_bs, pair_dark_populations,
                             purity, purity_polynomial, von_neumann)
from lossylab.qcs import (qcs_commutator, qcs_lindblad, qcs_purity_rate,
                          qcs_two_copy)


def _verdict(label: str, ok: bool, elapsed: float, budget: float) -> None:
    ok = bool(ok) and elapsed < budget
    print(f"[{'PASS' if ok else 'FAIL'}] {label} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"{label} (elapsed {elapsed:.2f}s, budget {budget:.0f}s)"


def test_criterion_01_balanced_loss_single_photon():
    start = time.perf_counter()
    one = make_fock(1, 2).density()
    half = apply_loss(one, 0.5)
    ok = np.allclose(half.matrix, np.diag([0.5, 0.5]), atol=1e-10)
    ok &= abs(purity(half) - 0.5) <= 1e-10
    ok &= abs(von_neumann(half) - np.log(2.0)) <= 1e-10
    grid = np.linspace(0.0, 1.0, 101)
    purities = np.array([purity(apply_loss(one, t)) for t in grid])
    entropies = np.array([von_neumann(apply_loss(one, t)) for t in grid])
    ok &= abs(grid[np.argmin(purities)] - 0.5) <= 1e-10
    ok &= abs(grid[np.argmax(entropies)] - 0.5) <= 1e-10
    _verdict("criterion 01 balanced-loss single photon", ok,
             time.perf_counter() - start, 1.0)


def test_criterion_02_purity_symmetry_and_convexity():
    start = time.perf_counter()
    grid = np.linspace(-1.0, 2.0, 61)
    probe = np.linspace(0.0, 0.5, 11)
    worst_sym = 0.0
    worst_curv = np.inf
    states = [random_pure(100 + j, 4 + (j % 9)) for j in range(200)]
    for psi in states:
        poly = purity_polynomial(psi.density())
        sym = max(abs(poly.value(t) - poly.value(1.0 - t)) for t in probe)
        worst_sym = max(worst_sym, sym)
        second = poly.derivative(grid, order=2)
        worst_curv = min(worst_curv, float(np.min(second)))
    ok = worst_sym <= 1e-10 and worst_curv >= -1e-9
    _verdict("criterion 02 pure-state symmetry and convexity (200 states)",
             ok, time.perf_counter() - start, 60.0)


def test_criterion_03_dark_port_coefficients():
    start = time.perf_counter()
    ok = True
    for j in range(200):
        rho = random_mixed(500 + j, 4 + (j % 7), rank=1 + (j % 4))
        sig = random_mixed(900 + j, 4 + ((j + 3) % 7), rank=1 + ((j + 1) % 4))
        p = pair_dark_populations(rho, sig)
        ok &= float(np.min(p)) >= -1e-10
    for j in range(60):
        psi = random_pure(1300 + j, 4 + (j % 9))
        coeffs = purity_polynomial(psi.density()).coefficients
        ok &= float(np.max(np.abs(coeffs[1::2]))) <= 1e-10
    _verdict("criterion 03 dark-port coefficient positivity (200 pairs)",
             ok, time.perf_counter() - start, 120.0)


def test_criterion_04_entropy_and_mutual_information_concavity():
    start = time.perf_counter()
    h = 1e-3
    centers = np.linspace(0.05, 0.95, 10)
    worst = -np.inf
    for j in range(100):
        if j % 2 == 0:
            rho1 = random_pure(1500 + j, 4 + (j % 5)).density()
        else:
            rho1 = random_mixed(1500 + j, 4 + (j % 5), rank=2 + (j % 3))
        for t in centers:
            trio = [von_neumann(apply_loss(rho1, x)) for x in (t - h, t, t + h)]
            worst = max(worst, (trio[0] - 2 * trio[1] + trio[2]) / h ** 2)
    # beam-splitter mutual information concavity, on a subcorpus inside the budget
    for j in range(12):
        rho1 = random_mixed(1700 + j, 5, rank=2)
        for t in np.linspace(0.1, 0.9, 5):
            trio = [mutual_information_bs(rho1, x) for x in (t - h, t, t + h)]
            worst = max(worst, (trio[0] - 2 * trio[1] + trio[2]) / h ** 2)
    ok = worst <= 1e-7
    _verdict("criterion 04 entropy and mutual-information concavity "
             "(100 states)", ok, time.perf_counter() - start, 120.0)


def test_criterion_05_qcs_routes_and_bounds():
    start = time.perf_counter()
    ok = True
    for j in range(30):
        rho1 = random_mixed(2100 + j, 4 + (j % 5), rank=2 + (j % 2))
        for t in (0.3, 0.7):
            lossy = apply_loss(rho1, t)
            vals = [qcs_commutator(lossy).c_squared,
                    qcs_two_copy(lossy).c_squared,
                    qcs_purity_rate(purity_polynomial(rho1), t).c_squared,
                    qcs_lindblad(apply_loss(rho1, t)).c_squared]
            ok &= max(vals) - min(vals) <= 1e-8
    kern = apply_loss(random_mixed(2100, 6, rank=2), 0.4)
    ok &= abs(qcs_kernel_form(kern).c_squared
              - qcs_commutator(kern).c_squared) <= 1e-4
    for j in range(100):
        psi = random_pure(2300 + j, 4 + (j % 6))
        ok &= abs(qcs_purity_rate(purity_polynomial(psi.density()), 0.5).c_squared - 1.0) <= 1e-8
    for j in range(100):
        rho1 = random_mixed(2500 + j, 4 + (j % 5), rank=2 + (j % 3))
        for t in np.linspace(0.05, 0.5, 6):
            ok &= qcs_purity_rate(purity_polynomial(rho1), t).c_squared <= 1.0 + 1e-8
    _verdict("criterion 05 QCS route agreement and bounds", ok,
             time.perf_counter() - start, 120.0)


def test_criterion_06_wigner_half_loss_threshold():
    start = time.perf_counter()
    one = make_fock(1, 2).density()
    grid = GridSpec(6.0, 201)
    ok = True
    for t in (0.1, 0.2, 0.3, 0.4, 0.5):
        qgrid = quasi_prob_grid(apply_loss(one, t), 0.0, grid)
        ok &= qgrid.min_value() >= -1e-9
    deep = quasi_prob(apply_loss(one, 0.75), np.array([0.0]), 0.0)[0]
    ok &= deep <= -1e-3
    ok &= abs(deep - (2.0 / np.pi) * (1.0 - 2.0 * 0.75)) <= 1e-9
    _verdict("criterion 06 Wigner nonnegativity up to half loss", ok,
             time.perf_counter() - start, 30.0)


def test_criterion_07_phase_space_purity_routes():
    start = time.perf_counter()
    quad = Quadrature2D(48, 64)
    ok = True
    for j in range(20):
        if j % 2 == 0:
            rho1 = random_pure(2700 + j, 4 + (j % 3)).density()
        else:
            rho1 = random_mixed(2700 + j, 4 + (j % 3), rank=2)
        exact = purity(rho1)
        ok &= abs(laplace_purity(rho1, 1.0, quad) - exact) <= 1e-5
        ok &= abs(overlap_from_quasi(rho1, rho1, 0.0, quad) - exact) <= 1e-5
        t = 0.35
        lossy_exact = purity(apply_loss(rho1, t))
        ok &= abs(laplace_purity(rho1, t, quad) - lossy_exact) <= 1e-5
    _verdict("criterion 07 phase-space purity routes (20 states)", ok,
             time.perf_counter() - start, 60.0)


def test_criterion_08_moment_inequality_family():
    start = time.perf_counter()
    ok = True
    for j in range(60):
        rho1 = random_mixed(3100 + j, 4 + (j % 5), rank=2 + (j % 3))
        ok &= cauchy_schwarz_ladder(rho1).passed
        ok &= ladder_loss_inequality(StateRecord("", rho1), 0.3).passed
        ok &= second_derivative_forms(StateRecord("", rho1), 0.3).passed
    for j in range(60):
        psi = random_pure(3300 + j, 4 + (j % 6))
        ok &= pure_number_ratio_inequality(StateRecord("", psi), 0.3).passed
        ok &= pure_second_order_inequality(StateRecord("", psi)).passed
        ok &= second_derivative_forms(StateRecord("", psi), 0.62).passed
        rep = transpose_trick_identity(StateRecord("", psi), 0.3)
        ok &= rep.passed and abs(rep.lhs - rep.rhs) <= 1e-10
    coh = pure_second_order_inequality(StateRecord("", make_coherent(1.0, 26)))
    ok &= abs(coh.rhs - coh.lhs) <= 1e-10
    _verdict("criterion 08 moment inequality family", ok,
             time.perf_counter() - start, 60.0)


def test_criterion_09_bernstein_and_monotonicity():
    start = time.perf_counter()
    ok = True
    t_grid = np.linspace(0.05, 1.0, 20)
    for j in range(60):
        if j % 2 == 0:
            rho1 = random_pure(3500 + j, 4 + (j % 6)).density()
        else:
            rho1 = random_mixed(3500 + j, 4 + (j % 6), rank=2 + (j % 3))
        ok &= bernstein_check(StateRecord("", rho1)).passed
        ok &= number_purity_monotonicity(StateRecord("", rho1), t_grid).passed
    _verdict("criterion 09 Bernstein bounds and number monotonicity", ok,
             time.perf_counter() - start, 60.0)


def test_criterion_10_husimi_pair_violation_scan():
    start = time.perf_counter()
    vacuum = isotropic_gaussian(1.0)
    dilated = isotropic_gaussian(0.5)
    compressed = isotropic_gaussian(2.0)
    good = husimi_pair_check(vacuum, dilated, 0.3)
    ok = good.passed
    found = False
    for t in np.linspace(0.05, 0.45, 9):
        rep = husimi_pair_check(vacuum, compressed, t)
        if not rep.passed and rep.lhs > 0.0:
            found = True
            break
    ok &= found
    _verdict("criterion 10 Husimi pair threshold and violation scan", ok,
             time.perf_counter() - start, 60.0)


def test_criterion_11_counterexamples_bit_stable():
    start = time.perf_counter()
    ok = True
    lams = (-1.0, -0.5, 0.0, 0.5, 1.0)
    bell_margins = [m for *_, m in
                    unfairness_scan([("bell-like", bell_like_pair())], lams).rows]
    ok &= all(abs(m + 0.25) <= 1e-12 for m in bell_margins)
    ok &= bell_margins == [m for *_, m in
                           unfairness_scan([("bell-like", bell_like_pair())], lams).rows]
    sep_margins = [m for *_, m in
                   unfairness_scan([("separable-01", separable_01_pair())], lams).rows]
    ok &= all(abs(m + 1.0) <= 1e-12 for m in sep_margins)
    ok &= sep_margins == [m for *_, m in
                          unfairness_scan([("separable-01", separable_01_pair())], lams).rows]
    one = make_fock(1, 2).density()
    ext = log_convexity_corpus([("fock:1", one)], np.linspace(1.05, 1.5, 10))
    ok &= ext.disposition == "violation"
    sigma = indefinite_convex_operator()
    ok &= sigma.physical is False
    ok &= float(np.linalg.eigvalsh(sigma.matrix).min()) < -1e-3
    ok &= abs(float(np.trace(sigma.matrix).real) - 1.0) <= 1e-12
    res = log_convexity_corpus([("indefinite", sigma)], np.linspace(0.01, 0.99, 25))
    ok &= res.disposition == "no-violation-found"
    _verdict("criterion 11 counterexamples reproduced bit-stably", ok,
             time.perf_counter() - start, 10.0)


def test_criterion_12_conjecture_scans():
    start = time.perf_counter()
    states = []
    for j in range(100):
        if j % 2 == 0:
            states.append((f"pure:{j}", random_pure(4100 + j, 4 + (j % 4)).density()))
        else:
            states.append((f"mixed:{j}", random_mixed(4100 + j, 4 + (j % 4),
                                                      rank=2 + (j % 2))))
    t_grid = np.linspace(0.0, 1.0, 21)
    conv = log_convexity_corpus(states, t_grid)
    ok = conv.disposition == "no-violation-found"
    ok &= len(conv.rows) >= 100 * 21

    pairs = [(sid, fair_pair(rho)) for sid, rho in states]
    fair = unfairness_scan(pairs, np.linspace(-1.0, 1.0, 11))
    ok &= fair.disposition == "no-violation-found"

    g2_scan = dark_port_g2_scan(states[:100], np.linspace(0.0, 0.45, 6))
    ok &= g2_scan.disposition == "no-violation-found"

    ell = ell_log_convexity_corpus(states, np.linspace(0.05, 0.45, 9))
    ok &= ell.disposition == "proven-case-verified"
    ok &= ell.min_margin >= -1e-10
    _verdict("criterion 12 conjecture scans over 100-state corpora", ok,
             time.perf_counter() - start, 300.0)
