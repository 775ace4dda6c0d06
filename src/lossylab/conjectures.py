"""Scans for the open conjectures and their known counterexamples.

Log-convexity of purity under loss, the difference-port moment witness,
and sub-Poissonian exclusion of interference dark ports are conjectures:
scans report evidence, never proofs. The exponential-tilt log-convexity
bound is proven, so its checks must always pass.

All four scans run through one scan loop with one violation protocol: a
point fails unless its margin is >= -tolerance, so a NaN margin fails; a
state with a failing point is re-scanned on a 10x finer grid at a 10x
tighter tolerance, and its worst failing fine point is the violation.

The witness and the tilt bound read one object: the difference-port
number distribution q of a balanced two-copy interference, a plain 1-D
array with q[m] the probability of m photons in the difference port.
``fair_pair`` computes it for twin copies of a state with the spectral
dark-port engine; the counterexample pairs, which are not fair mixtures
of twin pairs, are given by their exact distributions and reproduce
their witness margins bit-stably.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityOperator, beam_splitter_block, make_fock
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
    return float(q @ (m * w)) ** 2, float(q @ w) * float(q @ (m * m * w))


def ell_log_convexity_check(rho1: DensityOperator, transmissivity: float,
                            state_id: str = "") -> CheckReport:
    """Second-moment bound on the tilted dark-port distribution.

    With q the difference-port number distribution of the twin pair and
    w = 1 - 2T the tilt base, (sum q m w^m)^2 <= (sum q w^m)(sum q m^2 w^m).
    This is a proven Cauchy-Schwarz case and must pass for every state.
    """
    lhs, rhs = _ell_sides(purity_polynomial(rho1).coefficients, transmissivity)
    return inequality_report(
        "ell_log_convexity", state_id, {"T": float(transmissivity)}, lhs, rhs,
        PROVEN_TOL,
        claim="tilted dark-port first moment squared <= zeroth times second",
    )


def _ell_margins(q: np.ndarray, t_grid: np.ndarray) -> list:
    return [rhs - lhs for lhs, rhs in (_ell_sides(q, t) for t in t_grid)]


def ell_log_convexity_corpus(states, t_grid) -> ScanResult:
    """The proven tilt bound over (state_id, operator) pairs and a T grid."""
    qs = ((state_id, purity_polynomial(rho1).coefficients) for state_id, rho1 in states)
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
    return first ** 2, zeroth * second


def lambda_zero_witness(q: np.ndarray, state_id: str = "") -> CheckReport:
    """Three-population specialization of the witness at lam = 0:
    2 q_2 q_0 - q_1^2 >= 0 for fair mixtures."""
    q0 = float(q[0])
    q1 = float(q[1]) if q.size > 1 else 0.0
    q2 = float(q[2]) if q.size > 2 else 0.0
    return inequality_report(
        "lambda_zero_witness", state_id, {}, q1 ** 2, 2.0 * q2 * q0, PROVEN_TOL,
        claim="2 q2 q0 >= q1^2 on the difference-port populations",
    )


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


def _difference_port_operator(rho1: DensityOperator) -> np.ndarray:
    """R = Tr_sum[B^dag (rho1 x rho1) B] for the balanced splitter B.

    Mode 1 of B^dag |n1, n2> is the sum port and mode 2 the difference
    port. The pair is embedded in a box that holds its total photon number,
    so every block is complete, and each block pair (n, m) of rho1 x rho1 is
    rotated on its own: sum-port count a pairs difference counts n - a and
    m - a. R does not depend on any later loss, so scans build it once.
    """
    c = rho1.cutoff
    d = 2 * c - 1
    rho = np.zeros((d, d), dtype=complex)
    rho[:c, :c] = rho1.matrix
    blocks = [beam_splitter_block(n, 0.5) for n in range(d)]
    r = np.zeros((d, d), dtype=complex)
    for n in range(d):
        a = np.arange(n + 1)
        left = blocks[n].conj().T
        for m in range(n, d):
            # <k, n - k| rho1 x rho1 |l, m - l> = rho1[k, l] rho1[n - k, m - l]
            pair = rho[: n + 1, : m + 1] * rho[n::-1, m::-1]
            # diagonal of B_n^dag pair B_m over the shared sum-port counts a <= n
            rotated = np.sum((left @ pair) * blocks[m][:, : n + 1].T, axis=1)
            r[n - a, m - a] += rotated
            if m > n:
                r[m - a, n - a] += rotated.conj()
    return r


def _reweighted(r: np.ndarray, transmissivity: float) -> DensityOperator:
    """R reweighted by sqrt(1 - 2T) per difference-port photon, normalized."""
    t = float(transmissivity)
    if not t <= 0.5:
        raise ValueError("the reweighting base needs T <= 1/2")
    weights = np.sqrt(np.power(1.0 - 2.0 * t, np.arange(r.shape[0], dtype=float)))
    weighted = weights[:, None] * r * weights[None, :]
    norm = np.trace(weighted).real
    if not norm > 1e-300:
        raise ValueError("dark-port weight annihilated the state")
    weighted /= norm
    return DensityOperator((weighted + weighted.conj().T) / 2.0, r.shape[0])


def dark_port_state(rho1: DensityOperator, transmissivity: float) -> DensityOperator:
    """Difference-port conditional state of two copies of rho1.

    The pair is interfered on a balanced splitter, the difference port is
    reweighted by sqrt(1 - 2T) per photon, and the sum port is traced out.
    """
    return _reweighted(_difference_port_operator(rho1), transmissivity)


def g2(rho: DensityOperator):
    """Second-order correlation Tr[rho N(N-1)] / Tr[rho N]^2, or None when
    the mean photon number is numerically zero."""
    n_diag = np.arange(rho.cutoff, dtype=float)
    pops = np.diag(rho.matrix).real
    mean_n = float(pops @ n_diag)
    if mean_n <= MEAN_N_FLOOR:
        return None
    return float(pops @ (n_diag * (n_diag - 1.0))) / mean_n ** 2


def g_factorial(rho: DensityOperator, order: int):
    """Normalized factorial moment Tr[rho N(N-1)...(N-order+1)] / <N>^order.

    Scan hook only: high orders vanish identically once the order exceeds
    the populated ladder, so no positivity assertion is attached.
    """
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


def _g2_margins(r: np.ndarray, t_grid: np.ndarray) -> list:
    values = (g2(_reweighted(r, float(t))) for t in t_grid)
    return [None if value is None else value - 1.0 for value in values]


def dark_port_g2_scan(states, t_grid, tolerance: float = G2_TOL) -> ScanResult:
    """Scan g2(dark port) >= 1 wherever g2 is defined."""
    rs = ((state_id, _difference_port_operator(rho1)) for state_id, rho1 in states)
    return _scan("dark_port_g2", rs, t_grid, _g2_margins, tolerance)


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
