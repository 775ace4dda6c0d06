"""Quadrature coherence scale: four computation routes and known values."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lossylab.fock import (make_coherent, make_fock, make_squeezed_vacuum,
                           random_mixed, random_pure, thermal_state)
from lossylab.loss import apply_loss
from lossylab.purity import purity_polynomial
from lossylab.qcs import (qcs_commutator, qcs_lindblad, qcs_purity_rate,
                          qcs_two_copy)

from strategies import density_operators


def test_known_values():
    vac = make_fock(0, 3).density()
    assert qcs_commutator(vac).c_squared == pytest.approx(1.0, abs=1e-12)
    assert qcs_two_copy(vac).c_squared == pytest.approx(1.0, abs=1e-12)

    one = make_fock(1, 4).density()
    assert qcs_commutator(one).c_squared == pytest.approx(3.0, abs=1e-12)
    assert qcs_two_copy(one).c_squared == pytest.approx(3.0, abs=1e-12)

    # coherent states sit at the classical scale regardless of amplitude
    coh = make_coherent(1.3 - 0.4j, 24).density()
    assert qcs_commutator(coh).c_squared == pytest.approx(1.0, abs=1e-8)


def test_purity_rate_closed_value():
    one = make_fock(1, 2).density()
    poly = purity_polynomial(one)
    res = qcs_purity_rate(poly, 0.75)
    assert res.c_squared == pytest.approx(11.0 / 5.0, abs=1e-12)
    assert res.c_squared == 0.75 * poly.derivative(0.75, 1) / poly.value(0.75) + 1.0


def test_zero_transmissivity_degenerates():
    # every state is lost to vacuum, whose scale the general formula gives
    # exactly: T P'(T) / P(T) vanishes at T = 0
    rho = random_mixed(5, 6, rank=2)
    res = qcs_purity_rate(purity_polynomial(rho), 0.0)
    assert res.c_squared == 1.0


def test_four_routes_agree_on_mixed_state():
    rho = random_mixed(11, 8, rank=3)
    for t in (0.2, 0.35, 0.6):
        lossy = apply_loss(rho, t)
        values = [qcs_commutator(lossy).c_squared,
                  qcs_two_copy(lossy).c_squared,
                  qcs_purity_rate(purity_polynomial(rho), t).c_squared,
                  qcs_lindblad(lossy).c_squared]
        assert max(values) - min(values) < 1e-10


def test_kernel_route_matches_commutator(qcs_kernel_form):
    one = make_fock(1, 6).density()
    assert qcs_kernel_form(one).c_squared == pytest.approx(3.0, abs=1e-4)
    rho = apply_loss(random_mixed(3, 6, rank=2), 0.4)
    ref = qcs_commutator(rho).c_squared
    assert qcs_kernel_form(rho).c_squared == pytest.approx(ref, abs=1e-4)


def test_lindblad_pure_variant_matches_general_route(qcs_lindblad_pure_variant):
    psi = random_pure(9, 7)
    for t in (0.15, 0.3, 0.5):
        a = qcs_lindblad_pure_variant(psi, t).c_squared
        b = qcs_lindblad(apply_loss(psi.density(), t)).c_squared
        assert a == pytest.approx(b, abs=1e-12)


def test_two_copy_swap_identity(dense_two_copy):
    assert dense_two_copy.swap_identity_deviation(6) < 1e-12


@pytest.mark.parametrize("cutoff", range(1, 13))
def test_two_copy_matches_dense_oracle(cutoff, dense_two_copy):
    states = [random_pure(cutoff, cutoff).density(),
              random_mixed(cutoff, cutoff, min(cutoff, 3)),
              apply_loss(random_mixed(cutoff + 50, cutoff, 1), 0.3)]
    for rho in states:
        ref = dense_two_copy(rho.matrix)
        assert abs(qcs_two_copy(rho).c_squared - ref) < 1e-12


@pytest.mark.parametrize("cutoff", range(1, 13))
def test_commutator_matches_dense_oracle(cutoff, dense_commutator):
    states = [random_pure(cutoff, cutoff).density(),
              random_mixed(cutoff, cutoff, min(cutoff, 3)),
              apply_loss(random_mixed(cutoff + 50, cutoff, 1), 0.3)]
    for rho in states:
        ref = dense_commutator(rho.matrix)
        assert abs(qcs_commutator(rho).c_squared - ref) < 1e-12


@settings(max_examples=60, deadline=None)
@given(rho1=density_operators(max_cutoff=8), t=st.floats(0.05, 1.0))
def test_routes_agree_on_random_states(rho1, t, dense_two_copy, dense_commutator):
    rho_t = apply_loss(rho1, t)
    commutator = qcs_commutator(rho_t).c_squared
    two_copy = qcs_two_copy(rho_t).c_squared
    values = [commutator, two_copy,
              qcs_purity_rate(purity_polynomial(rho1), t).c_squared,
              qcs_lindblad(rho_t).c_squared]
    assert max(values) - min(values) <= 1e-10 * max(1.0, max(values))
    assert abs(two_copy - dense_two_copy(rho_t.matrix)) <= 1e-12
    assert abs(commutator - dense_commutator(rho_t.matrix)) <= 1e-12


@pytest.mark.parametrize("rho, c_squared", [
    (make_fock(60, 61).density(), 121.0),
    (make_fock(120, 121).density(), 241.0),
    (thermal_state(2.0, 128), 1.0 / 5.0),
    (make_coherent(3.0 - 2.0j, 96).density(), 1.0),
    (make_squeezed_vacuum(0.8, 128).density(), np.cosh(1.6)),
], ids=["fock60", "fock120", "thermal2", "coherent", "squeezed0.8"])
def test_exact_routes_at_large_photon_number(rho, c_squared):
    # closed forms 2n + 1, 1 / (2 nbar + 1), 1 and cosh 2r; the truncated
    # tails hold at most ~1e-22 of the weight
    assert qcs_commutator(rho).c_squared == pytest.approx(c_squared, rel=1e-12)
    assert qcs_two_copy(rho).c_squared == pytest.approx(c_squared, rel=1e-12)


def test_two_copy_memory_stays_per_block():
    rho = random_mixed(7, 128, 3)
    tracemalloc.start()
    try:
        qcs_two_copy(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_squeezed_vacuum_scale():
    r = 0.5
    sq = make_squeezed_vacuum(r, 30).density()
    assert qcs_commutator(sq).c_squared == pytest.approx(np.cosh(2 * r), abs=1e-8)


def test_pure_states_reach_unity_at_balanced_loss():
    for seed in (1, 2, 3):
        psi = random_pure(seed, 8)
        assert qcs_purity_rate(purity_polynomial(psi.density()), 0.5).c_squared == pytest.approx(
            1.0, abs=1e-10)


def test_mixed_states_bounded_below_balanced_loss():
    for seed in (4, 11, 23):
        rho = random_mixed(seed, 8, rank=3)
        for t in np.linspace(0.05, 0.5, 8):
            assert qcs_purity_rate(purity_polynomial(rho), t).c_squared <= 1.0 + 1e-8


def test_thermal_state_is_subclassical():
    rho = thermal_state(0.7, 30)
    c2 = qcs_commutator(rho).c_squared
    assert c2 < 1.0
    # closed form: 1 / (2 nbar + 1)
    assert c2 == pytest.approx(1.0 / 2.4, abs=1e-8)
