"""Verifiers for the ladder-operator, phase-space, and monotonicity
inequalities that the loss-channel structure implies.

Each operation returns a CheckReport that passes (margin >= -tolerance)
when the claim holds. Claims that only hold for restricted T ranges or pure
inputs enforce those preconditions. The nine verifiers ``verify`` runs take one
state's StateRecord, read rho1, P and rho_T from it, and take their report
kind, tolerance and claim from its ``reports.CHECKS`` row; the restricted
ones refuse a record or a T outside their claim. The pair checks, which no
suite runs yet, take density operators and carry their own tolerances; each
integrates on one product rule that is exact for its inputs (_pair_integral).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .fock import DensityOperator, ladder_traces, lowered, lowering_trace, product_traces
from .phasespace import Quadrature2D, quasi_prob
from .purity import PurityPolynomial, StateRecord, lossy_overlap, overlap_polynomial
from .reports import CheckReport, check_report, equality_report, inequality_report

QUAD_TOL = 1e-10
PAIR_SIGN_TOL = 1e-10
# the pair rules are exact at every T; the band only keeps T off the
# singular 1/(1 - 2T) prefactor and the pair checks off their existence
# boundary 2 + (r + r' - 2) T = 0
BALANCED_EXCLUSION = 0.02
BERNSTEIN_ORDER = 4
# product-rule points per block of u nodes: bounds each block's a, b and
# |a - b|^2 at 1 MiB, whatever the size of the rule
PAIR_BLOCK_ENTRIES = 2 ** 16
# points of the largest product rule a pair integral may sum: a Husimi pair
# on c levels takes 4 c^4, so cutoff 32 is the largest admitted
PAIR_RULE_POINTS = 2 ** 22


# ---------------------------------------------------------------------------
# ladder-operator inequalities
# ---------------------------------------------------------------------------


def cauchy_schwarz_ladder(record: StateRecord) -> CheckReport:
    """|Tr(rho a)|^2 <= Tr(rho a^dag a)."""
    lhs = abs(lowering_trace(record.rho1.matrix)) ** 2
    rhs = float(np.arange(record.rho1.cutoff) @ np.diag(record.rho1.matrix).real)
    return check_report("cauchy_schwarz_ladder", record.state_id, {}, lhs, rhs)


def ladder_loss_inequality(record: StateRecord, transmissivity: float) -> CheckReport:
    """Tr[N rho_T rho_T] <= Tr[a rho_T a^dag rho_T] for T <= 1/2."""
    t = float(transmissivity)
    if t > 0.5:
        raise ValueError("the sandwiched-ladder bound is claimed only for T <= 1/2")
    lhs, rhs = ladder_traces(record.lossy([t])[0].matrix)
    return check_report("ladder_loss_inequality", record.state_id, {"T": t}, lhs, rhs)


def pure_number_ratio_inequality(record: StateRecord, transmissivity: float) -> CheckReport:
    """Tr[N rho_T^2]/T <= Tr[N rho_{1-T}^2]/(1-T) for pure inputs, T <= 1/2."""
    t = float(transmissivity)
    if not 0.0 < t <= 0.5:
        raise ValueError("the ratio bound needs 0 < T <= 1/2")
    if not record.pure:
        raise ValueError("the ratio bound is claimed only for pure inputs")
    n = np.arange(record.rho1.cutoff)[:, None]
    m_t, m_r = (rho.matrix for rho in record.lossy([t, 1.0 - t]))
    lhs = product_traces(n * m_t, m_t) / t
    rhs = product_traces(n * m_r, m_r) / (1.0 - t)
    return check_report("pure_number_ratio", record.state_id, {"T": t}, lhs, rhs)


def transpose_trick_identity(record: StateRecord, transmissivity: float) -> CheckReport:
    """Tr[a rho_T a^dag rho_T] = Tr[N rho_{1-T}^2] T/(1-T) for pure inputs."""
    t = float(transmissivity)
    if not 0.0 < t < 1.0:
        raise ValueError("the identity needs T strictly inside (0, 1)")
    if not record.pure:
        raise ValueError("the transpose trick holds only for pure inputs")
    m_t, m_r = (rho.matrix for rho in record.lossy([t, 1.0 - t]))
    lhs = product_traces(lowered(m_t), m_t)
    rhs = product_traces(np.arange(record.rho1.cutoff)[:, None] * m_r, m_r) * t / (1.0 - t)
    return check_report("transpose_trick", record.state_id, {"T": t}, lhs, rhs)


def pure_second_order_inequality(record: StateRecord) -> CheckReport:
    """4 Re<a^dag a^2><a^dag> - |<a^2>|^2 <= 2<N>^2 - <N> + <N^2>, for pure inputs."""
    if not record.pure:
        raise ValueError("the second-order bound is claimed only for pure inputs")
    m = record.rho1.matrix
    n = np.arange(record.rho1.cutoff)
    pops = np.diag(m).real
    mom_adag = np.conj(lowering_trace(m))  # rho is Hermitian
    mom_adaa = lowering_trace(lowered(m))  # Tr[a^dag a^2 rho] = Tr[a (a rho a^dag)]
    mom_aa = lowering_trace(m, 2)
    mom_n = float(n @ pops)
    mom_n2 = float((n * n) @ pops)
    lhs = 4.0 * (mom_adaa * mom_adag).real - abs(mom_aa) ** 2
    rhs = 2.0 * mom_n ** 2 - mom_n + mom_n2
    return check_report("pure_second_order", record.state_id, {}, lhs, rhs)


# ---------------------------------------------------------------------------
# second-derivative operator forms
# ---------------------------------------------------------------------------


def _form_terms(rho_t: DensityOperator):
    """The traces of the d^2 P/dT^2 forms, on rho_T's own ladder: the one
    that raises, Tr[a rho a^dag a^dag rho a], is taken as the cyclic
    Tr[a^2 rho a^dag^2 rho], so every factor only lowers and is exact."""
    m = rho_t.matrix
    n = np.arange(rho_t.cutoff)
    low = lowered(m)                        # a rho a^dag
    m_n, n_m = m * n, n[:, None] * m        # rho N, N rho
    return {
        "n_rho2": product_traces(n_m, m),
        "low_sq": product_traces(low, low),
        "nrho_sq": product_traces(n_m, m_n),
        "cross": product_traces(m_n, low),
        "low_high": product_traces(lowered(low), m),
    }


def _form_one(f_t: dict, t: float) -> float:
    """Form one of d^2 P/dT^2 from the form terms of rho_T; it holds for any input."""
    return 2.0 / t ** 2 * (-f_t["n_rho2"] + 2.0 * f_t["low_sq"] + f_t["nrho_sq"]
                           - 4.0 * f_t["cross"] + f_t["low_high"])


def second_derivative_forms(record: StateRecord, transmissivity: float) -> CheckReport:
    """The operator forms of d^2 P / dT^2 against the exact polynomial one.

    Form one holds for any input; the two split forms additionally use the
    pure-input transpose trick. lhs is the form farthest from P''(T).
    """
    t = float(transmissivity)
    if not 0.0 < t < 1.0:
        raise ValueError("the derivative forms need T strictly inside (0, 1)")
    pure = record.pure
    poly_value = record.poly.derivative(t, order=2)

    lossy = record.lossy([t, 1.0 - t] if pure else [t])
    f_t = _form_terms(lossy[0])
    values = [_form_one(f_t, t)]
    if pure:
        f_r = _form_terms(lossy[1])
        form_two = (2.0 / t ** 2 * (f_t["low_sq"] + f_t["low_high"] - 2.0 * f_t["cross"])
                    + 2.0 / (1.0 - t) ** 2 * (f_r["low_sq"] + f_r["low_high"]
                                              - 2.0 * f_r["cross"]))
        form_three = (2.0 / t ** 2 * (-f_t["n_rho2"] + f_t["low_sq"] + f_t["nrho_sq"]
                                      - 2.0 * f_t["cross"])
                      + 2.0 / (1.0 - t) ** 2 * (-f_r["n_rho2"] + f_r["low_sq"]
                                                + f_r["nrho_sq"] - 2.0 * f_r["cross"]))
        values += [form_two, form_three]
    farthest = max(values, key=lambda v: abs(v - poly_value))
    return check_report("second_derivative_forms", record.state_id,
                        {"T": t, "forms": len(values), "pure": pure}, farthest, poly_value)


def second_derivative_sign(record: StateRecord, transmissivity: float) -> CheckReport:
    """0 <= form one of d^2 P / dT^2, for pure inputs at every T and for mixed
    inputs at T <= 1/2."""
    t = float(transmissivity)
    if not 0.0 < t < 1.0:
        raise ValueError("the derivative forms need T strictly inside (0, 1)")
    if not (record.pure or t <= 0.5):
        raise ValueError("the sign of d2P/dT2 is claimed for mixed inputs only at T <= 1/2")
    form_one = _form_one(_form_terms(record.lossy([t])[0]), t)
    return check_report("second_derivative_sign", record.state_id, {"T": t}, 0.0, form_one)


# ---------------------------------------------------------------------------
# quasiprobability pair integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianPolynomial:
    """A function on the plane, e^{-rate |a|^2} times a polynomial of degree
    <= degree in a and in conj(a); ``values`` evaluates it at an array of
    points. The pair integrals size their rule from rate and degree."""

    values: Callable[[np.ndarray], np.ndarray]
    rate: float
    degree: int


def isotropic_gaussian(concentration: float) -> GaussianPolynomial:
    """Candidate Husimi function (c/pi) exp(-c |alpha|^2)."""
    c = float(concentration)
    return GaussianPolynomial(lambda alpha: c / np.pi * np.exp(-c * np.abs(alpha) ** 2), c, 0)


def _quasi(rho: DensityOperator, r: float) -> GaussianPolynomial:
    """P_rho(., r), e^{-2|a|^2/(1 - r)} times a polynomial of degree < c for
    a state on c levels (phasespace.quasi_prob's matrix elements)."""
    return GaussianPolynomial(lambda alpha: quasi_prob(rho, alpha, r), 2.0 / (1.0 - r),
                              rho.cutoff - 1)


def husimi_of_state(rho: DensityOperator) -> GaussianPolynomial:
    return _quasi(rho, -1.0)


def _pair_integral(f: GaussianPolynomial, g: GaussianPolynomial, rate: float,
                   p0: float, p1: float = 0.0) -> float:
    """iint f(a) g(b) (p0 + p1 |a-b|^2) e^{-rate |a-b|^2} d^2a d^2b, exact up
    to rounding.

    The exponent is -(a, b) M (a, b)^T on the real and on the imaginary
    parts alike, M = [[f.rate + rate, -rate], [-rate, g.rate + rate]]
    = R diag(mu) R^T. In (u, v) = R^T (a, b), an orthogonal change of
    variables, the integrand is e^{-mu_1 |u|^2 - mu_2 |v|^2} times a
    polynomial of degree <= D = f.degree + g.degree + deg p in each of u,
    conj(u), v and conj(v), which Quadrature2D(ceil((D + 1)/2), D + 1) at
    radial scale 1/mu_i integrates exactly (as phasespace.exact_rule argues).
    The product rule is summed one block of u nodes at a time; a rule of more
    than PAIR_RULE_POINTS points is refused before it is built.
    """
    degree = f.degree + g.degree + (p1 != 0.0)
    points = ((degree // 2 + 1) * (degree + 1)) ** 2
    if points > PAIR_RULE_POINTS:
        raise ValueError(f"the exact pair rule needs {points} points, above the budget "
                         f"of {PAIR_RULE_POINTS}")
    mu, rot = np.linalg.eigh([[f.rate + rate, -rate], [-rate, g.rate + rate]])
    if not mu[0] > 0.0:
        raise ValueError("the pair integrand does not decay in every direction")
    rule = Quadrature2D(degree // 2 + 1, degree + 1)
    (u, w_u), (v, w_v) = (rule.nodes_weights(1.0 / m) for m in mu)
    step = max(1, PAIR_BLOCK_ENTRIES // v.size)
    total = 0.0
    for i in range(0, u.size, step):
        a = rot[0, 0] * u[i:i + step, None] + rot[0, 1] * v
        b = rot[1, 0] * u[i:i + step, None] + rot[1, 1] * v
        d = np.abs(a - b) ** 2
        total += w_u[i:i + step] @ (f.values(a) * g.values(b) * (p0 + p1 * d)
                                     * np.exp(-rate * d) @ w_v)
    return float(total)


def _order_pair_integral(f: GaussianPolynomial, g: GaussianPolynomial, r_t: float,
                         t: float) -> float:
    """iint f(a) g(b) (4(2|a-b|^2 + rt) + 2T rt^2)/(T rt + 2)^3
    e^{-2T|a-b|^2/(2 + rt T)}: -d Tr[rho_T sigma_T]/dT for the
    quasiprobabilities of orders r and r' of rho and sigma, rt = r + r' - 2."""
    e = 2.0 + r_t * t
    return _pair_integral(f, g, 2.0 * t / e, (4.0 * r_t + 2.0 * t * r_t ** 2) / e ** 3,
                          8.0 / e ** 3)


def husimi_pair_check(husimi_rho: GaussianPolynomial, husimi_sigma: GaussianPolynomial,
                      transmissivity: float, state_id: str = "") -> CheckReport:
    """For Husimi functions of states and T < 1/2, the derivative-of-overlap
    double integral is nonpositive; a positive value certifies that one of
    the inputs is not the Husimi function of any state.

    Its integrand is minus the order-pair one at r = r' = -1.
    """
    t = float(transmissivity)
    if t >= 0.5 or abs(t - 0.5) < BALANCED_EXCLUSION:
        raise ValueError("prefactor is singular at T = 1/2; stay below the "
                         f"excluded band |T - 1/2| < {BALANCED_EXCLUSION}")
    value = -_order_pair_integral(husimi_rho, husimi_sigma, -4.0, t)
    return inequality_report(
        "husimi_pair", state_id, {"T": t}, value, 0.0, PAIR_SIGN_TOL,
        claim="(1/(1-2T)) iint Q_rho Q_sigma (2/(1-2T) - |a-b|^2/(1-2T)^2) "
              "e^(-T|a-b|^2/(1-2T)) <= 0 for states",
    )


def husimi_pair_from_states(rho: DensityOperator, sigma: DensityOperator,
                            transmissivity: float, state_id: str = "") -> CheckReport:
    """husimi_pair_check's integral on state-derived Husimi functions against
    the exact overlap derivative from the dark-port polynomial."""
    t = float(transmissivity)
    value = husimi_pair_check(husimi_of_state(rho), husimi_of_state(sigma), t).lhs
    exact = overlap_polynomial(rho, sigma).derivative(t, order=1)
    return equality_report("husimi_pair_states", state_id, {"T": t}, value, exact, QUAD_TOL,
                           claim="pair integral equals d Tr[rho_T sigma_T]/dT")


def order_pair_overlap_check(rho: DensityOperator, sigma: DensityOperator,
                             r: float, r_prime: float, transmissivity: float,
                             state_id: str = "") -> CheckReport:
    """Generalized pair inequality at quasiprobability orders (r, r')."""
    t = float(transmissivity)
    r_t = r + r_prime - 2.0
    if t > 0.5:
        raise ValueError("claimed only for T <= 1/2")
    if r >= 1.0 or r_prime >= 1.0:
        raise ValueError("orders must satisfy r, r' < 1")
    if 2.0 + r_t * t < 2.0 * BALANCED_EXCLUSION:
        raise ValueError("existence condition 2 + (r + r' - 2) T > 0 is too close "
                         "to singular")
    value = _order_pair_integral(_quasi(rho, r), _quasi(sigma, r_prime), r_t, t)
    return inequality_report(
        "order_pair_overlap", state_id, {"T": t, "r": r, "r_prime": r_prime},
        0.0, value, PAIR_SIGN_TOL,
        claim="iint P_rho(a,r) P_sigma(b,r') (4(2|a-b|^2 + rt) + 2T rt^2)"
              "/(T rt + 2)^3 e^(-2T|a-b|^2/(2 + rt T)) >= 0, rt = r + r' - 2",
    )


def order_pair_overlap_identity(rho: DensityOperator, sigma: DensityOperator,
                                r: float, r_prime: float, transmissivity: float,
                                state_id: str = "") -> CheckReport:
    """(2/(2 + rt T)) iint P_rho(a,r) P_sigma(b,r') e^(-2T|a-b|^2/(2+rt T))
    reproduces Tr[rho_T sigma_T]; regular orders r, r' <= -1 only."""
    t = float(transmissivity)
    r_t = r + r_prime - 2.0
    if r > -1.0 or r_prime > -1.0:
        raise ValueError("the direct integral needs regular orders r, r' <= -1")
    e = 2.0 + r_t * t
    if e < 2.0 * BALANCED_EXCLUSION:
        raise ValueError("too close to the singular existence boundary")
    value = 2.0 / e * _pair_integral(_quasi(rho, r), _quasi(sigma, r_prime), 2.0 * t / e, 1.0)
    exact = lossy_overlap(rho, sigma, t)
    return equality_report(
        "order_pair_identity", state_id, {"T": t, "r": r, "r_prime": r_prime},
        value, exact, QUAD_TOL,
        claim="pair Gaussian integral equals Tr[rho_T sigma_T]",
    )


# ---------------------------------------------------------------------------
# Bernstein and number-operator monotonicity
# ---------------------------------------------------------------------------


def bernstein_check(record: StateRecord) -> CheckReport:
    """(T^2 d/dT)^k (T Tr[rho_T^2]) >= 0 for k <= BERNSTEIN_ORDER, by exact
    polynomials.

    (T^2 d/dT)^k (T P) = T^(k+1) S_k with S_0 = P and
    S_(k+1) = (k+1) S_k + T S_k'. The S_k are kept in lambda = 1 - 2T,
    where T d/dT = -(1 - lambda) d/dlambda: expanding (1 - 2T)^m into
    monomials in T cancels catastrophically at large cutoff, and factoring
    out T^(k+1) keeps the values near T = 0 from cancelling in lambda.
    """
    # one zero on top, so that S_k' has one coefficient fewer than S_k
    s_k = PurityPolynomial(np.append(record.poly.coefficients, 0.0))
    grid = np.arange(0.01, 1.0001, 0.01)
    lam = 1.0 - 2.0 * grid
    worst = np.inf
    worst_k = 0
    for k in range(BERNSTEIN_ORDER + 1):
        low = float(np.min(grid ** (k + 1) * s_k.at_lambda(lam)))
        if low < worst:
            worst, worst_k = low, k
        # S_(k+1) = (k+1) S_k - (1 - lambda) S_k'; (1 - lambda) S_k' is d_j - d_(j-1)
        slope = s_k.derivative_coefficients(1)
        s_k = PurityPolynomial((k + 1) * s_k.coefficients
                               - (np.append(slope, 0.0) - np.append(0.0, slope)))
    return check_report("bernstein_monotonic", record.state_id,
                        {"k_max": BERNSTEIN_ORDER, "argmin_k": worst_k}, 0.0, worst)


def number_purity_monotonicity(record: StateRecord, t_grid) -> CheckReport:
    """Tr[N rho_T^2] never decreases; Tr[a rho_T a^dag rho_T](1-T)/T never
    increases, along any grid inside (0, 1]."""
    grid = np.asarray(t_grid, dtype=float)
    if grid.size < 2 or np.any(grid <= 0) or np.any(grid > 1):
        raise ValueError("need at least two grid points inside (0, 1]")
    grid = np.sort(grid)
    rising, sandwiched = np.array([ladder_traces(rho.matrix) for rho in record.lossy(grid)]).T
    falling = sandwiched * (1.0 - grid) / grid
    margin = min(float(np.min(np.diff(rising))), float(np.min(-np.diff(falling))))
    return check_report(
        "number_purity_monotonicity", record.state_id,
        {"T_min": float(grid[0]), "T_max": float(grid[-1]), "points": grid.size}, 0.0, margin)
