"""Open-question scans: log-convexity, pair-fairness witness, dark-port g2."""

import numpy as np
import pytest

from lossylab import conjectures
from lossylab.conjectures import (bell_like_pair, dark_port_g2_scan,
                                  ell_log_convexity_check,
                                  ell_log_convexity_corpus, fair_pair,
                                  fock_one_extended_range_report, g2,
                                  g_factorial, indefinite_convex_operator,
                                  log_convexity_corpus, log_convexity_scan,
                                  separable_01_pair, twin_photon_pair,
                                  unfairness_scan, unfairness_witness)
from lossylab.fock import (make_coherent, make_fock, make_squeezed_vacuum,
                           random_mixed, random_pure)


def test_log_convexity_single_photon_unit_interval():
    one = make_fock(1, 2).density()
    res = log_convexity_scan(one, np.linspace(0.0, 1.0, 21))
    assert res.disposition == "no-violation-found"
    # log-convexity is saturated at the endpoints for a single photon
    margins = np.array([m for _, _, m in res.rows])
    assert margins.min() >= -1e-12
    assert abs(margins[0]) < 1e-12 and abs(margins[-1]) < 1e-12


def test_log_convexity_corpus_of_random_states():
    states = [(f"mixed:{seed}", random_mixed(seed, 7, rank=3)) for seed in range(6)]
    states += [(f"pure:{seed}", random_pure(seed, 7).density()) for seed in range(3)]
    res = log_convexity_corpus(states, np.linspace(0.0, 1.0, 21))
    assert res.disposition == "no-violation-found"
    assert res.min_margin >= -1e-9


def test_log_convexity_fails_outside_unit_interval():
    one = make_fock(1, 2).density()
    res = log_convexity_scan(one, np.linspace(1.05, 1.5, 10))
    assert res.disposition == "violation"
    assert res.min_margin == pytest.approx(-6.0, abs=1e-9)
    rep = fock_one_extended_range_report(1.2)
    assert not rep.passed
    assert rep.margin == pytest.approx(-1.92, abs=1e-9)


def test_indefinite_operator_satisfies_log_convexity():
    sigma = indefinite_convex_operator()
    assert sigma.physical is False
    eigs = np.linalg.eigvalsh(sigma.matrix)
    assert eigs.min() < -1e-3
    res = log_convexity_scan(sigma, np.linspace(0.01, 0.99, 25))
    assert res.disposition == "no-violation-found"
    assert res.min_margin == pytest.approx(0.7951, abs=1e-3)


def test_ell_log_convexity_proven_case():
    one = make_fock(1, 2).density()
    rep = ell_log_convexity_check(one, 0.25)
    assert rep.passed
    assert rep.lhs == pytest.approx(1.0 / 16.0, abs=1e-12)
    assert rep.rhs == pytest.approx(5.0 / 16.0, abs=1e-12)
    with pytest.raises(ValueError):
        ell_log_convexity_check(one, 0.5)


def test_ell_log_convexity_corpus():
    states = [(f"mixed:{seed}", random_mixed(seed, 6, rank=2)) for seed in (3, 8)]
    states += [("fock:1", make_fock(1, 6).density())]
    res = ell_log_convexity_corpus(states, np.linspace(0.05, 0.45, 9))
    assert res.disposition == "proven-case-verified"
    assert res.min_margin >= -1e-10
    # corpus rows and the single check share one evaluation of the bound
    by_id = dict(states)
    for state_id, t, margin in res.rows:
        assert margin == ell_log_convexity_check(by_id[state_id], t).margin


def test_witness_counterexample_margins_are_stable():
    bell = bell_like_pair()
    np.testing.assert_array_equal(bell, [0.5, 0.5])
    margins = [unfairness_witness(bell, lam).margin for lam in (-1.0, -0.3, 0.0, 0.7, 1.0)]
    for m in margins:
        assert m == pytest.approx(-0.25, abs=1e-12)
    # exact bit stability under re-evaluation
    again = [unfairness_witness(bell_like_pair(), lam).margin
             for lam in (-1.0, -0.3, 0.0, 0.7, 1.0)]
    assert margins == again

    sep = separable_01_pair()
    np.testing.assert_array_equal(sep, [0.0, 1.0])
    for lam in (-0.8, 0.0, 0.5):
        rep = unfairness_witness(sep, lam)
        assert rep.margin == pytest.approx(-1.0, abs=1e-12)
        assert not rep.passed

    with pytest.raises(ValueError):
        unfairness_witness(bell, 1.2)


@pytest.mark.parametrize("builder, amplitudes", [
    (bell_like_pair, {(0, 0): 1.0, (1, 1): -1.0}),
    (separable_01_pair, {(0, 1): 1.0}),
])
def test_label_pairs_match_their_two_mode_states(builder, amplitudes, dense_splitter,
                                                 dark_port_distribution):
    # amplitudes on |n_plus, n_minus> of the sum and difference modes, sent
    # back to the input modes by the dense splitter, then interfered again
    c = 4
    labeled = np.zeros(c * c, dtype=complex)
    for (n_plus, n_minus), amp in amplitudes.items():
        labeled[n_plus * c + n_minus] = amp
    psi = dense_splitter(c, 0.5) @ (labeled / np.linalg.norm(labeled))
    q = dark_port_distribution(np.outer(psi, psi.conj()), (c, c))
    pair = builder()
    np.testing.assert_allclose(q[:pair.size], pair, atol=1e-12)
    np.testing.assert_allclose(q[pair.size:], 0.0, atol=1e-12)


def test_twin_photon_pair_margin_profile():
    twin = twin_photon_pair()
    np.testing.assert_allclose(twin, [0.5, 0.0, 0.5], atol=1e-12)
    for lam in (-0.9, -0.4, 0.0, 0.6, 1.0):
        rep = unfairness_witness(twin, lam)
        assert rep.passed
        assert rep.margin == pytest.approx((1.0 - lam ** 2) / 2.0, abs=1e-12)
    # at lam = 0 the witness reads the first three populations: 2 q0 q2 - q1^2
    q0, q1, q2 = twin
    assert unfairness_witness(twin, 0.0).margin == 2.0 * q0 * q2 - q1 ** 2


def test_unfairness_scan_dispositions():
    lam_grid = np.linspace(-1.0, 1.0, 21)
    fair = [(f"fair:{seed}", fair_pair(random_mixed(seed, 6, rank=3)))
            for seed in (1, 5, 9)]
    res = unfairness_scan(fair, lam_grid)
    assert res.disposition == "no-violation-found"
    assert res.min_margin > 0.0

    bad = [("bell-like", bell_like_pair()), ("separable-01", separable_01_pair())]
    res_bad = unfairness_scan(bad, lam_grid)
    assert res_bad.disposition == "violation"
    assert res_bad.min_margin == pytest.approx(-1.0, abs=1e-10)


def _g2_margins(res):
    return {t: margin for _, t, margin in res.rows}


def test_dark_port_of_coherent_pair_is_vacuum():
    # the dark port of twin coherent states is vacuum, so g2 is never defined
    rho = make_coherent(0.9, 18).density()
    assert fair_pair(rho)[0] == pytest.approx(1.0, abs=1e-10)
    res = dark_port_g2_scan([("coherent:0.9", rho)], np.linspace(0.0, 0.5, 6))
    assert res.disposition == "empty"
    assert res.rows == []
    for t in (0.6, -0.1, np.nan):
        with pytest.raises(ValueError, match="0 <= T <= 1/2"):
            dark_port_g2_scan([("coherent:0.9", rho)], [0.0, t])


def test_dark_port_of_squeezed_pair_g2():
    # twin squeezed vacua leave the splitter as two squeezed vacua, so the
    # dark port at T = 0 has g2 = 3 + 1/sinh^2 r
    r = 0.5
    rho = make_squeezed_vacuum(r, 24).density()
    res = dark_port_g2_scan([("squeezed:0.5", rho)], [0.0])
    expected = 2.0 + 1.0 / np.sinh(r) ** 2
    assert _g2_margins(res)[0.0] == pytest.approx(expected, abs=2e-5)


def test_dark_port_g2_of_squeezed_pair_at_large_photon_number():
    # reweighting the dark port by (1 - 2T)^m rescales tanh r to
    # tanh r' = (1 - 2T) tanh r, so g2 - 1 = 2 + 1/sinh^2 r'
    r = 0.8
    rho = make_squeezed_vacuum(r, 96).density()
    t_grid = np.linspace(0.0, 0.45, 10)
    margins = _g2_margins(dark_port_g2_scan([("squeezed:0.8", rho)], t_grid))
    assert sorted(margins) == t_grid.tolist()
    for t, margin in margins.items():
        r_eff = np.arctanh((1.0 - 2.0 * t) * np.tanh(r))
        assert margin == pytest.approx(2.0 + 1.0 / np.sinh(r_eff) ** 2, rel=1e-12)


def test_g_factorial_of_fock_states():
    for n in (1, 2, 5):
        rho = make_fock(n, n + 2).density()
        for order in (1, 2, 3):
            falling = np.prod(np.arange(n, n - order, -1, dtype=float))
            assert g_factorial(rho, order) == pytest.approx(falling / n ** order,
                                                            rel=1e-14)
    assert g2(make_fock(0, 3).density()) is None


def test_dark_port_state_matches_dense_oracle(dense_dark_port):
    # g2 of the dense difference-port state against the scan's q route
    states = [random_mixed(23, 6, rank=3), random_pure(24, 6).density(),
              make_fock(5, 6).density()]
    t_grid = [0.0, 0.2, 0.37, 0.5]
    for rho in states:
        margins = _g2_margins(dark_port_g2_scan([("state", rho)], t_grid))
        for t in t_grid:
            value = g2(dense_dark_port(rho, t))
            if value is None:
                assert t not in margins
            else:
                assert margins[t] == pytest.approx(value - 1.0, rel=1e-12)
        assert 0.5 not in margins  # the T = 1/2 dark port is vacuum


def test_dark_port_g2_scan_rejects_unphysical_operators():
    sigma = indefinite_convex_operator()
    with pytest.raises(ValueError, match="physical=False"):
        dark_port_g2_scan([("indefinite", sigma)], [0.0, 0.25])


def test_dark_port_g2_scan_no_violation():
    states = [(f"mixed:{seed}", random_mixed(seed, 8, rank=2)) for seed in (2, 7)]
    states += [(f"pure:{seed}", random_pure(seed, 8).density()) for seed in (4,)]
    res = dark_port_g2_scan(states, np.linspace(0.0, 0.45, 7))
    assert res.disposition == "no-violation-found"
    assert res.min_margin > 0.0


def test_fair_pair_matches_spectral_dark_populations(dark_port_distribution):
    rho = random_mixed(13, 6, rank=2)
    q = dark_port_distribution(np.kron(rho.matrix, rho.matrix), (6, 6))
    np.testing.assert_allclose(fair_pair(rho), q, atol=1e-12)



def test_nan_margins_are_violations(monkeypatch):
    one = make_fock(1, 2).density()
    # the second grid overflows the degree-14 polynomial to inf - inf
    for grid in ([np.nan], [1e30, 1e35, 1e40]):
        res = log_convexity_scan(random_mixed(1, 8, rank=3), grid)
        assert res.disposition == "violation"
        assert np.isnan(res.min_margin)
        assert np.isnan(res.violations[0][2])

    # (1 - 2T)^m overflows, so every tilted moment is inf and the margin inf - inf
    res = ell_log_convexity_corpus([("mixed:3", random_mixed(3, 6, rank=2))], [-1e300])
    assert res.disposition == "violation"
    assert np.isnan(res.min_margin)

    res = unfairness_scan([("nan-pair", np.array([np.nan, 0.5, 0.5]))],
                          np.linspace(-1.0, 1.0, 5))
    assert res.disposition == "violation"
    assert np.isnan(res.min_margin)
    assert res.argmin == {"state_id": "nan-pair", "lambda": -1.0}

    monkeypatch.setattr(conjectures, "fair_pair", lambda rho: np.full(3, np.nan))
    res = dark_port_g2_scan([("fock:1", one)], np.linspace(0.0, 0.4, 3))
    assert res.disposition == "violation"
    assert np.isnan(res.min_margin)
    assert len(res.violations) == 1


def test_nan_row_takes_precedence_over_the_least_margin():
    pairs = [("separable-01", separable_01_pair()),
             ("nan-pair", np.array([0.5, np.nan, 0.5]))]
    res = unfairness_scan(pairs, np.linspace(-1.0, 1.0, 3))
    assert np.isnan(res.min_margin)
    assert res.argmin["state_id"] == "nan-pair"
    assert [v[0] for v in res.violations] == ["separable-01", "nan-pair"]


def test_scan_violation_is_the_worst_refined_point():
    res = log_convexity_scan(make_fock(1, 2).density(), np.linspace(1.05, 1.5, 10))
    # margin 8 T (1 - T): the fine grid shares the endpoint T = 1.5
    assert res.violations == [("state", 1.5, pytest.approx(-6.0, abs=1e-12))]
    assert res.argmin == {"state_id": "state", "T": 1.5}


@pytest.mark.parametrize("scan, corpus", [
    (log_convexity_corpus, [("fock:1", make_fock(1, 2).density())]),
    (ell_log_convexity_corpus, [("fock:1", make_fock(1, 2).density())]),
    (unfairness_scan, [("bell-like", bell_like_pair())]),
    (dark_port_g2_scan, [("fock:1", make_fock(1, 2).density())]),
])
def test_scans_reject_an_empty_grid(scan, corpus):
    with pytest.raises(ValueError, match="empty scan grid"):
        scan(corpus, [])


def test_unfairness_scan_enforces_the_witness_domain():
    pairs = [("fair", fair_pair(random_mixed(1, 4, rank=2)))]
    for grid in ([-3.0, 0.0, 3.0], [np.nan]):
        with pytest.raises(ValueError, match="lam"):
            unfairness_scan(pairs, grid)
    with pytest.raises(ValueError):
        unfairness_witness(pairs[0][1], np.nan)
