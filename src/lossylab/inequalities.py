"""Verifiers for the ladder-operator, phase-space, and monotonicity
inequalities that the loss-channel structure implies.

Each operation returns a CheckReport whose margin is nonnegative when the
claim holds. Exact trace and polynomial checks carry 1e-10 tolerances;
double phase-space quadratures carry 1e-4 to 1e-5. Claims that only hold
for restricted T ranges or pure inputs enforce those preconditions. The
verifiers ``verify`` runs on rho_T and P take one state's StateRecord and
read rho1, P and rho_T from it, so each is derived once per state; the
pure-only ones refuse a mixed record. The others take density operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (DensityOperator, ladder_traces, lowered, lowering_trace, make_coherent,
                   product_traces, thermal_state)
from .phasespace import Quadrature2D, quasi_prob
from .purity import (PurityPolynomial, StateRecord, lossy_overlap, overlap_polynomial,
                     purity_polynomial)
from .reports import CheckReport, equality_report, inequality_report

EXACT_TOL = 1e-10
FORM_TOL = 1e-9
QUAD_TOL = 1e-4
PAIR_SIGN_TOL = 1e-5
BALANCED_EXCLUSION = 0.02
BERNSTEIN_ORDER = 4
# pair-kernel entries per block of rows: bounds each block of |a - b|^2 and
# of its weight at 512 KiB, whatever the number of quadrature nodes
PAIR_BLOCK_ENTRIES = 2 ** 16


# ---------------------------------------------------------------------------
# ladder-operator inequalities
# ---------------------------------------------------------------------------


def cauchy_schwarz_ladder(rho: DensityOperator, state_id: str = "") -> CheckReport:
    """|Tr(rho a)|^2 <= Tr(rho a^dag a)."""
    lhs = abs(lowering_trace(rho.matrix)) ** 2
    rhs = float(np.arange(rho.cutoff) @ np.diag(rho.matrix).real)
    return inequality_report(
        "cauchy_schwarz_ladder", state_id, {}, lhs, rhs, EXACT_TOL,
        claim="|<a>|^2 <= <N>",
    )


def ladder_loss_inequality(record: StateRecord, transmissivity: float) -> CheckReport:
    """Tr[N rho_T rho_T] <= Tr[a rho_T a^dag rho_T] for T <= 1/2."""
    t = float(transmissivity)
    if t > 0.5:
        raise ValueError("the sandwiched-ladder bound is claimed only for T <= 1/2")
    lhs, rhs = ladder_traces(record.lossy([t])[0].matrix)
    return inequality_report(
        "ladder_loss_inequality", record.state_id, {"T": t}, lhs, rhs, EXACT_TOL,
        claim="Tr[N rho_T^2] <= Tr[a rho_T a^dag rho_T], T <= 1/2",
    )


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
    return inequality_report(
        "pure_number_ratio", record.state_id, {"T": t}, lhs, rhs, EXACT_TOL,
        claim="Tr[N rho_T^2]/T <= Tr[N rho_{1-T}^2]/(1-T) for pure input",
    )


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
    return equality_report(
        "transpose_trick", record.state_id, {"T": t}, lhs, rhs, EXACT_TOL,
        claim="Tr[a rho_T a^dag rho_T] = Tr[N rho_{1-T}^2] T/(1-T)",
    )


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
    return inequality_report(
        "pure_second_order", record.state_id, {}, lhs, rhs, EXACT_TOL,
        claim="4Re<a^dag a^2><a^dag> - |<a^2>|^2 <= 2<N>^2 - <N> + <N^2>",
    )


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


def second_derivative_forms(record: StateRecord, transmissivity: float) -> CheckReport:
    """Evaluate the operator forms of d^2 P / dT^2 and cross-check them.

    Form one holds for any input; the two split forms additionally use the
    pure-input transpose trick. All available forms must agree with the
    exact polynomial second derivative; the sign claim (nonnegative) applies
    to pure inputs at every T and to mixed inputs at T <= 1/2.
    """
    t = float(transmissivity)
    if not 0.0 < t < 1.0:
        raise ValueError("the derivative forms need T strictly inside (0, 1)")
    pure = record.pure
    poly_value = record.poly.derivative(t, order=2)

    lossy = record.lossy([t, 1.0 - t] if pure else [t])
    f_t = _form_terms(lossy[0])
    form_one = 2.0 / t ** 2 * (-f_t["n_rho2"] + 2.0 * f_t["low_sq"] + f_t["nrho_sq"]
                               - 4.0 * f_t["cross"] + f_t["low_high"])
    values = [form_one]
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

    deviation = max(abs(v - poly_value) for v in values)
    sign_claim = pure or t <= 0.5
    sign_margin = form_one if sign_claim else np.inf
    margin = min(FORM_TOL - deviation, sign_margin)
    return CheckReport(
        check_name="second_derivative_forms",
        state_id=record.state_id,
        params={"T": t, "forms": len(values), "pure": pure},
        lhs=form_one,
        rhs=poly_value,
        margin=float(margin),
        tolerance=FORM_TOL,
        claim="operator forms of d2P/dT2 agree; nonnegative for pure (all T) "
              "and mixed (T <= 1/2) inputs",
    )


# ---------------------------------------------------------------------------
# quasiprobability pair integrals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoherentMixture:
    """Mixture of coherent states: a manifestly regular P density."""

    weights: tuple
    alphas: tuple
    cutoff: int = 24

    def density(self) -> DensityOperator:
        c = self.cutoff
        mat = np.zeros((c, c), dtype=complex)
        for w, al in zip(self.weights, self.alphas):
            vec = make_coherent(al, c).amplitudes
            mat += w * np.outer(vec, vec.conj())
        return DensityOperator(mat, c)

    def pair_integral(self, transmissivity: float, k: int) -> float:
        """Closed form of the |alpha-beta|^(2k)-weighted double P integral."""
        w = np.asarray(self.weights)
        al = np.asarray(self.alphas, dtype=complex)
        d = np.abs(al[:, None] - al[None, :]) ** 2
        kernel = d ** k * np.exp(-transmissivity * d) if k else np.exp(-transmissivity * d)
        return float(w @ kernel @ w)


@dataclass(frozen=True)
class ThermalPState:
    """Thermal state: Gaussian P density with closed pair integrals."""

    nbar: float
    cutoff: int = 28

    def density(self) -> DensityOperator:
        return thermal_state(self.nbar, self.cutoff)

    def pair_integral(self, transmissivity: float, k: int) -> float:
        from math import factorial
        nb = self.nbar
        return factorial(k) * (2.0 * nb) ** k / (1.0 + 2.0 * nb * transmissivity) ** (k + 1)


def phase_space_derivative_check(state_like, transmissivity: float, k: int,
                                 state_id: str = "",
                                 pure: bool | None = None) -> CheckReport:
    """The pair integral of P densities weighted by |alpha-beta|^(2k) equals
    (-1)^k d^k P / dT^k, and its sign follows the purity convexity pattern.

    ``state_like`` is either a DensityOperator (operator side only, sign
    claims asserted where they apply) or a regular-P family object carrying
    both a density() and a closed pair_integral() (both sides compared).
    """
    t = float(transmissivity)
    has_direct = hasattr(state_like, "pair_integral")
    rho1 = state_like.density() if has_direct else state_like
    if pure is None:
        lam = np.linalg.eigvalsh(rho1.matrix)
        pure = float(np.max(lam)) > 1.0 - 1e-10
    poly = purity_polynomial(rho1)
    operator_side = (-1.0) ** k * poly.derivative(t, order=k)

    if has_direct:
        direct = state_like.pair_integral(t, k)
        deviation = abs(direct - operator_side)
    else:
        direct = operator_side
        deviation = 0.0

    odd = k % 2 == 1
    if pure and odd:
        if abs(t - 0.5) <= 1e-12:
            sign_margin = FORM_TOL - abs(operator_side)
        elif t < 0.5:
            sign_margin = operator_side
        else:
            sign_margin = -operator_side
    elif pure:
        sign_margin = operator_side
    elif t <= 0.5:
        sign_margin = operator_side
    else:
        raise ValueError("no sign claim for mixed inputs beyond T = 1/2")

    tol = QUAD_TOL if has_direct else FORM_TOL
    margin = min(tol - deviation, sign_margin)
    return CheckReport(
        check_name="phase_space_derivative",
        state_id=state_id,
        params={"T": t, "k": k, "pure": pure, "direct": has_direct},
        lhs=direct,
        rhs=operator_side,
        margin=float(margin),
        tolerance=tol,
        claim="int P(a)P(b)|a-b|^(2k) e^(-T|a-b|^2) = (-1)^k d^k P/dT^k with "
              "convexity-pattern signs",
    )


# ---------------------------------------------------------------------------
# Husimi and general-order pair checks
# ---------------------------------------------------------------------------


def isotropic_gaussian(concentration: float):
    """Candidate Husimi function (c/pi) exp(-c |alpha|^2)."""
    c = float(concentration)

    def husimi(alpha: np.ndarray) -> np.ndarray:
        return c / np.pi * np.exp(-c * np.abs(alpha) ** 2)

    return husimi


def husimi_of_state(rho: DensityOperator):
    def husimi(alpha: np.ndarray) -> np.ndarray:
        return quasi_prob(rho, alpha, -1.0)

    return husimi


def _pair_quadrature(f_rho, f_sigma, weight_fn, quad: Quadrature2D,
                     radial_scale: float) -> float:
    """sum_ij f_rho(a_i) w_i weight_fn(|a_i - a_j|^2) w_j f_sigma(a_j) over
    the quadrature nodes, one block of rows of at most PAIR_BLOCK_ENTRIES
    kernel entries at a time."""
    nodes, weights = quad.nodes_weights(radial_scale=radial_scale)
    va = np.asarray(f_rho(nodes)) * weights
    vb = np.asarray(f_sigma(nodes)) * weights
    step = max(1, PAIR_BLOCK_ENTRIES // nodes.size)
    total = 0.0
    for i in range(0, nodes.size, step):
        d = np.abs(nodes[i:i + step, None] - nodes[None, :]) ** 2
        total += va[i:i + step] @ (weight_fn(d) @ vb)
    return float(total)


def husimi_pair_check(husimi_rho, husimi_sigma, transmissivity: float,
                      state_id: str = "",
                      quad: Quadrature2D = Quadrature2D(48, 64),
                      radial_scale: float = 2.0,
                      tolerance: float = 1e-6) -> CheckReport:
    """For Husimi functions of states and T < 1/2, the derivative-of-overlap
    double integral is nonpositive; a positive value certifies that one of
    the inputs is not the Husimi function of any state.
    """
    t = float(transmissivity)
    if t >= 0.5 or abs(t - 0.5) < BALANCED_EXCLUSION:
        raise ValueError("prefactor is singular at T = 1/2; stay below the "
                         f"excluded band |T - 1/2| < {BALANCED_EXCLUSION}")
    lam = 1.0 - 2.0 * t

    def weight(d):
        return (2.0 / lam - d / lam ** 2) * np.exp(-t * d / lam)

    value = _pair_quadrature(husimi_rho, husimi_sigma, weight, quad, radial_scale) / lam
    return inequality_report(
        "husimi_pair", state_id, {"T": t}, value, 0.0, tolerance,
        claim="(1/(1-2T)) iint Q_rho Q_sigma (2/(1-2T) - |a-b|^2/(1-2T)^2) "
              "e^(-T|a-b|^2/(1-2T)) <= 0 for states",
    )


def husimi_pair_from_states(rho: DensityOperator, sigma: DensityOperator,
                            transmissivity: float, state_id: str = "",
                            quad: Quadrature2D = Quadrature2D(48, 64)) -> CheckReport:
    """husimi_pair_check on state-derived Husimi functions, cross-checked
    against the exact overlap derivative from the dark-port polynomial."""
    report = husimi_pair_check(husimi_of_state(rho), husimi_of_state(sigma),
                               transmissivity, state_id=state_id, quad=quad)
    poly = overlap_polynomial(rho, sigma)
    exact = poly.derivative(transmissivity, order=1)
    deviation = abs(report.lhs - exact)
    margin = min(report.margin, QUAD_TOL - deviation)
    return CheckReport(
        check_name="husimi_pair_states",
        state_id=state_id,
        params={"T": float(transmissivity), "exact_derivative": exact},
        lhs=report.lhs,
        rhs=0.0,
        margin=float(margin),
        tolerance=QUAD_TOL,
        claim="pair integral equals d Tr[rho_T sigma_T]/dT and is <= 0",
    )


def order_pair_overlap_check(rho: DensityOperator, sigma: DensityOperator,
                             r: float, r_prime: float, transmissivity: float,
                             state_id: str = "",
                             quad: Quadrature2D = Quadrature2D(48, 64)) -> CheckReport:
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
    scale = 1.0 - min(r, r_prime)

    def weight(d):
        return ((4.0 * (2.0 * d + r_t) + 2.0 * t * r_t ** 2) / (r_t * t + 2.0) ** 3
                * np.exp(-2.0 * t * d / (2.0 + r_t * t)))

    value = _pair_quadrature(lambda a: quasi_prob(rho, a, r),
                             lambda a: quasi_prob(sigma, a, r_prime), weight, quad, scale)
    return inequality_report(
        "order_pair_overlap", state_id, {"T": t, "r": r, "r_prime": r_prime},
        0.0, value, PAIR_SIGN_TOL,
        claim="iint P_rho(a,r) P_sigma(b,r') (4(2|a-b|^2 + rt) + 2T rt^2)"
              "/(T rt + 2)^3 e^(-2T|a-b|^2/(2 + rt T)) >= 0, rt = r + r' - 2",
    )


def order_pair_overlap_identity(rho: DensityOperator, sigma: DensityOperator,
                                r: float, r_prime: float, transmissivity: float,
                                state_id: str = "",
                                quad: Quadrature2D = Quadrature2D(48, 64)) -> CheckReport:
    """(2/(2 + rt T)) iint P_rho(a,r) P_sigma(b,r') e^(-2T|a-b|^2/(2+rt T))
    reproduces Tr[rho_T sigma_T]; regular orders r, r' <= -1 only."""
    t = float(transmissivity)
    r_t = r + r_prime - 2.0
    if r > -1.0 or r_prime > -1.0:
        raise ValueError("the direct integral needs regular orders r, r' <= -1")
    if 2.0 + r_t * t < 2.0 * BALANCED_EXCLUSION:
        raise ValueError("too close to the singular existence boundary")
    scale = 1.0 - min(r, r_prime)

    def weight(d):
        return np.exp(-2.0 * t * d / (2.0 + r_t * t))

    value = (2.0 / (2.0 + r_t * t)
             * _pair_quadrature(lambda a: quasi_prob(rho, a, r),
                                lambda a: quasi_prob(sigma, a, r_prime), weight, quad, scale))
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
    return inequality_report(
        "bernstein_monotonic", record.state_id, {"k_max": BERNSTEIN_ORDER, "argmin_k": worst_k},
        0.0, worst, FORM_TOL,
        claim="(T^2 d/dT)^k (T purity) >= 0 on (0, 1], complete monotonicity "
              "in 1/T",
    )


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
    return inequality_report(
        "number_purity_monotonicity", record.state_id,
        {"T_min": float(grid[0]), "T_max": float(grid[-1]), "points": grid.size},
        0.0, margin, EXACT_TOL,
        claim="Tr[N rho_T^2] nondecreasing and Tr[a rho_T a^dag rho_T](1-T)/T "
              "nonincreasing in T",
    )
