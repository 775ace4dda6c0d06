"""Scans for the open conjectures and their known counterexamples.

Log-convexity of purity under loss, the difference-port moment witness,
and sub-Poissonian exclusion of interference dark ports are conjectures:
scans report evidence, never proofs. The exponential-tilt log-convexity
bound is proven, so its checks must always pass.

All four scans run through one scan loop with one violation protocol: a
point fails unless its margin is >= -tolerance, so a NaN margin fails; a
state with a failing point is re-scanned on a 10x finer grid at a 10x
tighter tolerance, and its worst failing fine point is the violation.

The witness, the tilt bound and the dark-port g2 scan read one object:
the difference-port number distribution q of a balanced two-copy
interference, a plain 1-D array with q[m] the probability of m photons
in the difference port. ``fair_pair`` computes it for twin copies of a
state with the spectral dark-port engine; no difference-port operator
is built. Loss reweights the dark port by (1 - 2T)^m, so g2 at T comes
from the witness's tilted moments at lam = 1 - 2T. The counterexample
pairs, which are not fair mixtures of twin pairs, are given by their
exact distributions and reproduce their witness margins bit-stably.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityOperator, make_fock
from .purity import PurityPolynomial, pair_dark_populations, purity_polynomial
from .reports import CheckReport, ScanResult, inequality_report

SCAN_TOL = 1e-9
PROVEN_TOL = 1e-10
G2_TOL = 1e-8
MEAN_N_FLOOR = 1e-12
REFINE_FACTOR = 10


# ---------------------------------------------------------------------------
# the scan loop
# ---------------------------------------------------------------------------


def _scan(conjecture: str, items, grid, margins_on, tolerance: float,
          axis: str = "T", unit: str = "states",
          clean: str = "no-violation-found") -> ScanResult:
    """The scan loop behind every conjecture scan, with the violation
    protocol of ScanResult.

    items holds (state_id, item) pairs, the item prepared once per state;
    margins_on(item, grid) gives one margin per grid point, or None where
    the quantity is undefined and the point yields no row.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty scan grid")
    items = list(items)
    fine = np.linspace(grid[0], grid[-1], REFINE_FACTOR * grid.size)
    rows = []
    violations = []
    with np.errstate(over="ignore", invalid="ignore"):
        for state_id, item in items:
            points = _points(grid, margins_on(item, grid))
            rows.extend((state_id, t, m) for t, m in points)
            if points and not _worst(points)[-1] >= -tolerance:
                refined = _worst(_points(fine, margins_on(item, fine)))
                if refined and not refined[-1] >= -tolerance / REFINE_FACTOR:
                    violations.append((state_id, *refined))
    worst = _worst(rows)
    return ScanResult(
        conjecture=conjecture,
        corpus=f"{len(items)} {unit}",
        grid=f"[{grid[0]:g}, {grid[-1]:g}] x {grid.size}",
        min_margin=worst[-1] if worst else np.inf,
        argmin={"state_id": worst[0], axis: worst[1]} if worst else {},
        rows=rows,
        violations=violations,
        disposition="violation" if violations else clean,
    )


def _points(grid: np.ndarray, margins) -> list:
    """(grid value, margin) pairs as floats, leaving out undefined points."""
    return [(float(t), float(m)) for t, m in zip(grid, margins) if m is not None]


def _worst(points: list):
    """The point whose margin (its last entry) is least, a NaN margin
    first (np.argmin returns the first NaN); None for no points."""
    if not points:
        return None
    return points[int(np.argmin([p[-1] for p in points]))]


# ---------------------------------------------------------------------------
# log-convexity of purity in T
# ---------------------------------------------------------------------------


def _log_convexity_margins(poly: PurityPolynomial, t_grid: np.ndarray) -> np.ndarray:
    # evaluated in the lambda = 1 - 2T basis: expanding (1 - 2T)^m into
    # monomials in T cancels catastrophically at large cutoff
    return (poly.value(t_grid) * poly.derivative(t_grid, 2)
            - poly.derivative(t_grid, 1) ** 2)


def log_convexity_scan(rho1: DensityOperator, t_grid, state_id: str = "state",
                       tolerance: float = SCAN_TOL) -> ScanResult:
    """Scan P * P'' - (P')^2 >= 0 over a transmissivity grid.

    Margins come from exact polynomial derivatives, so a negative value is
    a property of the operator, not of quadrature; the refinement step
    locates the minimum more precisely before declaring a violation.
    """
    return log_convexity_corpus([(state_id, rho1)], t_grid, tolerance)


def log_convexity_corpus(states, t_grid, tolerance: float = SCAN_TOL) -> ScanResult:
    """Run the log-convexity scan over many (state_id, operator) pairs."""
    polys = ((state_id, purity_polynomial(rho1)) for state_id, rho1 in states)
    return _scan("log_convexity", polys, t_grid, _log_convexity_margins, tolerance)


# ---------------------------------------------------------------------------
# proven exponential-tilt log-convexity
# ---------------------------------------------------------------------------


def _ell_sides(q: np.ndarray, transmissivity: float) -> tuple:
    t = float(transmissivity)
    if not t < 0.5:
        raise ValueError("the tilt base needs T < 1/2")
    m = np.arange(q.size, dtype=float)
    w = (1.0 - 2.0 * t) ** m
    # NumPy scalars, so an overflow gives inf (and a NaN margin), not OverflowError
    first = q @ (m * w)
    return float(first ** 2), float((q @ w) * (q @ (m * m * w)))


def ell_log_convexity_check(rho1: DensityOperator, transmissivity: float,
                            state_id: str = "") -> CheckReport:
    """Second-moment bound on the tilted dark-port distribution.

    With q the difference-port number distribution of the twin pair and
    w = 1 - 2T the tilt base, (sum q m w^m)^2 <= (sum q w^m)(sum q m^2 w^m).
    This is a proven Cauchy-Schwarz case and must pass for every state.
    """
    lhs, rhs = _ell_sides(fair_pair(rho1), transmissivity)
    return inequality_report(
        "ell_log_convexity", state_id, {"T": float(transmissivity)}, lhs, rhs,
        PROVEN_TOL,
        claim="tilted dark-port first moment squared <= zeroth times second",
    )


def _ell_margins(q: np.ndarray, t_grid: np.ndarray) -> list:
    return [rhs - lhs for lhs, rhs in (_ell_sides(q, t) for t in t_grid)]


def ell_log_convexity_corpus(states, t_grid) -> ScanResult:
    """The proven tilt bound over (state_id, operator) pairs and a T grid."""
    qs = ((state_id, fair_pair(rho1)) for state_id, rho1 in states)
    return _scan("ell_log_convexity", qs, t_grid, _ell_margins, PROVEN_TOL,
                 clean="proven-case-verified")


# ---------------------------------------------------------------------------
# difference-port moment witness
# ---------------------------------------------------------------------------


def unfairness_witness(q: np.ndarray, lam: float,
                       state_id: str = "") -> CheckReport:
    """Moment witness on a difference-port distribution q.

    With q_m the difference-port populations, the claim for fair mixtures
    of twin pairs is
        (sum q_m m lam^(m-1))^2 <= (sum q_m lam^m)(sum q_m m(m-1) lam^(m-2)).
    Powers are kept factored through the m and m(m-1) weights, so m = 0, 1
    terms vanish identically and lam = 0 is safe. Operators that cannot be
    written as such mixtures may fail; a negative margin witnesses that.
    """
    lhs, rhs = _witness_sides(q, lam)
    return inequality_report(
        "unfairness_witness", state_id, {"lambda": float(lam)}, lhs, rhs,
        PROVEN_TOL,
        claim="difference-port tilted moments satisfy the fair-mixture bound",
    )


def _witness_sides(q: np.ndarray, lam: float) -> tuple:
    zeroth, first, second = _tilted_moments(q, lam)
    return first ** 2, zeroth * second


def _tilted_moments(q: np.ndarray, lam: float) -> tuple:
    """(sum q_m lam^m, sum q_m m lam^(m-1), sum q_m m(m-1) lam^(m-2))."""
    if not abs(lam) <= 1.0:
        raise ValueError("the tilt parameter must satisfy |lam| <= 1")
    m = np.arange(q.size, dtype=float)
    zeroth = float(q @ np.power(lam, m))
    first = float(q[1]) if q.size > 1 else 0.0
    second = 0.0
    if q.size > 2:
        powers = np.power(lam, m[:-2])
        first += float(q[2:] @ (m[2:] * powers * lam))
        second = float(q[2:] @ (m[2:] * (m[2:] - 1.0) * powers))
    return zeroth, first, second


def _difference_marginal(amplitudes: dict) -> np.ndarray:
    """Difference-port distribution of the pure two-mode state with the
    given amplitudes {(n_plus, n_minus): amplitude} in the sum/difference
    number basis."""
    q = np.zeros(1 + max(n_minus for _, n_minus in amplitudes))
    for (_, n_minus), amp in amplitudes.items():
        q[n_minus] += abs(amp) ** 2
    return q / q.sum()


def bell_like_pair() -> np.ndarray:
    """Superposition of no photons and a photon in each of the sum and
    difference modes; its difference-port populations are (1/2, 1/2)."""
    return _difference_marginal({(0, 0): 1.0, (1, 1): -1.0})


def separable_01_pair() -> np.ndarray:
    """One photon sitting in the difference mode: populations (0, 1)."""
    return _difference_marginal({(0, 1): 1.0})


def twin_photon_pair() -> np.ndarray:
    """Literal |1, 1> input pair; interference gives difference-port
    populations (1/2, 0, 1/2) and the witness passes."""
    return fair_pair(make_fock(1, 2).density())


def fair_pair(rho: DensityOperator) -> np.ndarray:
    """Difference-port distribution of twin copies of rho, the fair case
    by construction."""
    return pair_dark_populations(rho, rho)


def _witness_margins(q: np.ndarray, lam_grid: np.ndarray) -> list:
    return [rhs - lhs for lhs, rhs in (_witness_sides(q, float(l)) for l in lam_grid)]


def unfairness_scan(pairs, lam_grid, tolerance: float = SCAN_TOL) -> ScanResult:
    """Evaluate the witness over (state_id, q) pairs, q a difference-port
    distribution, and a lam grid inside [-1, 1]."""
    return _scan("unfairness_witness", pairs, lam_grid, _witness_margins, tolerance,
                 axis="lambda", unit="pairs")


# ---------------------------------------------------------------------------
# dark-port statistics
# ---------------------------------------------------------------------------


def g2(rho: DensityOperator):
    """Second-order correlation Tr[rho N(N-1)] / Tr[rho N]^2, or None when
    the mean photon number is numerically zero."""
    return g_factorial(rho, 2)


def g_factorial(rho: DensityOperator, order: int):
    """Normalized factorial moment Tr[rho N(N-1)...(N-order+1)] / <N>^order,
    or None when the mean photon number is numerically zero."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    n_diag = np.arange(rho.cutoff, dtype=float)
    pops = np.diag(rho.matrix).real
    mean_n = float(pops @ n_diag)
    if mean_n <= MEAN_N_FLOOR:
        return None
    fact = np.ones_like(n_diag)
    for j in range(order):
        fact *= np.clip(n_diag - j, 0.0, None)
    return float(pops @ fact) / mean_n ** order


def _g2_margin(q: np.ndarray, transmissivity: float):
    """g2 - 1 of the dark port: loss weights its m-photon population by
    lam^m, lam = 1 - 2T, so g2 = zeroth second / first^2 in the tilted
    moments of q. None where the mean lam first / zeroth is numerically
    zero; a NaN mean gives a NaN margin."""
    lam = 1.0 - 2.0 * float(transmissivity)
    zeroth, first, second = _tilted_moments(q, lam)
    if lam * first / zeroth <= MEAN_N_FLOOR:
        return None
    return zeroth * second / first ** 2 - 1.0


def _g2_margins(q: np.ndarray, t_grid: np.ndarray) -> list:
    return [_g2_margin(q, t) for t in t_grid]


def _dark_port_q(rho1: DensityOperator) -> np.ndarray:
    if not rho1.physical:
        raise ValueError("dark-port g2 needs a positive operator, got physical=False")
    return fair_pair(rho1)


def dark_port_g2_scan(states, t_grid, tolerance: float = G2_TOL) -> ScanResult:
    """Scan g2(dark port) >= 1 wherever g2 is defined, for twin copies of
    each (state_id, operator) pair on a grid inside 0 <= T <= 1/2."""
    grid = np.asarray(t_grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid <= 0.5)):
        raise ValueError("the dark-port g2 scan needs 0 <= T <= 1/2")
    qs = ((state_id, _dark_port_q(rho1)) for state_id, rho1 in states)
    return _scan("dark_port_g2", qs, grid, _g2_margins, tolerance)


# ---------------------------------------------------------------------------
# reference counterexample operators
# ---------------------------------------------------------------------------


def indefinite_convex_operator(cutoff: int = 4) -> DensityOperator:
    """diag(2/3, -1/3, 2/3, 0, ...): unit trace but not positive, yet it
    passes every convexity and log-convexity scan on (0, 1). It shows the
    scans cannot certify positivity."""
    if cutoff < 3:
        raise ValueError("need at least three levels")
    diag = np.zeros(cutoff)
    diag[:3] = [2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]
    return DensityOperator(np.diag(diag).astype(complex), cutoff, physical=False)


def fock_one_extended_range_report(transmissivity: float = 1.2) -> CheckReport:
    """Log-convexity margin of the single photon at a transmissivity outside
    [0, 1], where the inequality is known to fail."""
    rho = make_fock(1, 4).density()
    poly = purity_polynomial(rho)
    margin = float(_log_convexity_margins(poly, np.array([transmissivity]))[0])
    return CheckReport(
        check_name="log_convexity_extended",
        state_id="fock:1",
        params={"T": float(transmissivity)},
        lhs=margin,
        rhs=0.0,
        margin=margin,
        tolerance=SCAN_TOL,
        passed=bool(margin >= -SCAN_TOL),
        claim="P P'' - (P')^2 >= 0 fails outside the physical range",
    )
