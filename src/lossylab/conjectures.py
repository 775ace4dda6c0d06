"""Scans for the open conjectures and their known counterexamples.

Log-convexity of purity under loss, the difference-port moment witness,
and sub-Poissonian exclusion of interference dark ports are conjectures:
scans report evidence, never proofs. The exponential-tilt log-convexity
bound is proven, so its checks must always pass.

All four scans run through one scan loop with one violation protocol: a
point fails unless its margin is >= -tolerance, so a NaN margin fails; a
state with a failing point is re-scanned on a 10x finer grid at a 10x
tighter tolerance, and its worst failing fine point is the violation.

Every margin is an expression in (P, P_lam, P_lamlam): a dark-port
polynomial P(lam) = sum_m q_m lam^m (a ``PurityPolynomial``) and its first
two derivatives in lam = 1 - 2T, built once per state. q is the
difference-port number distribution of a balanced two-copy interference,
a plain 1-D array with q[m] the probability of m photons in the
difference port; Tr[rho_T^2] = P(1 - 2T), since loss reweights the dark
port by (1 - 2T)^m.

- log-convexity: P P'' - P'^2 in T, which is 4 (P P_lamlam - P_lam^2);
- the unfairness witness: P P_lamlam - P_lam^2 at lam;
- the tilt bound: lam P P_lam + lam^2 (P P_lamlam - P_lam^2);
- dark-port g2 - 1: P P_lamlam / P_lam^2 - 1, defined where the mean
  lam P_lam / P is above MEAN_N_FLOOR.

``fair_pair`` computes q for twin copies of a state with the dark-port
block engine; no difference-port operator is built. The counterexample
pairs, which are not fair mixtures of twin pairs, are given by their
exact distributions and reproduce their witness margins bit-stably.
"""

from __future__ import annotations

import numpy as np

from .fock import DensityOperator, make_fock
from .purity import PurityPolynomial, pair_dark_populations, purity_polynomial
from .reports import ScanResult

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
        failed=sum(1 for _, _, m in rows if not m >= -tolerance),
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
# margins: each an expression in (P, P_lam, P_lamlam) of a dark-port polynomial
# ---------------------------------------------------------------------------


def _derivatives(poly: PurityPolynomial, lam: np.ndarray) -> tuple:
    """(P, P_lam, P_lamlam): the polynomial and its first two lambda-derivatives."""
    return tuple(poly.at_lambda(lam, order) for order in range(3))


def _witness(poly: PurityPolynomial, lam: np.ndarray) -> np.ndarray:
    p, d1, d2 = _derivatives(poly, lam)
    return p * d2 - d1 ** 2


# ---------------------------------------------------------------------------
# log-convexity of purity in T
# ---------------------------------------------------------------------------


def _log_convexity(poly: PurityPolynomial, t_grid: np.ndarray) -> np.ndarray:
    # P P'' - P'^2 in T is 4 x the witness at lambda = 1 - 2T (dlambda/dT = -2),
    # evaluated in lambda: expanding (1 - 2T)^m into monomials in T cancels
    # catastrophically at large cutoff
    return 4.0 * _witness(poly, 1.0 - 2.0 * t_grid)


def log_convexity_corpus(states, t_grid) -> ScanResult:
    """Scan P * P'' - (P')^2 >= 0 over (state_id, operator) pairs and a T
    grid. Margins are exact polynomial derivatives, so a negative one is a
    property of the operator, not of quadrature."""
    polys = ((state_id, purity_polynomial(rho1)) for state_id, rho1 in states)
    return _scan("log_convexity", polys, t_grid, _log_convexity, SCAN_TOL)


# ---------------------------------------------------------------------------
# proven exponential-tilt log-convexity
# ---------------------------------------------------------------------------


def _ell(poly: PurityPolynomial, t_grid: np.ndarray) -> np.ndarray:
    # sum q m w^m = w P_w and sum q m^2 w^m = w P_w + w^2 P_ww
    w = 1.0 - 2.0 * t_grid
    p, d1, d2 = _derivatives(poly, w)
    return w * p * d1 + w ** 2 * (p * d2 - d1 ** 2)


def ell_log_convexity_corpus(states, t_grid) -> ScanResult:
    """The proven Cauchy-Schwarz bound (sum q m w^m)^2 <= (sum q w^m)(sum q m^2 w^m),
    w = 1 - 2T, on the difference-port distribution q of the twin pair of each
    (state_id, operator) pair, over a grid of T < 1/2: it must pass for every state."""
    if not np.all(np.asarray(t_grid, dtype=float) < 0.5):
        raise ValueError("the tilt base needs T < 1/2")
    polys = ((state_id, PurityPolynomial(fair_pair(rho1))) for state_id, rho1 in states)
    return _scan("ell_log_convexity", polys, t_grid, _ell, PROVEN_TOL,
                 clean="proven-case-verified")


# ---------------------------------------------------------------------------
# difference-port moment witness
# ---------------------------------------------------------------------------


def bell_like_pair() -> np.ndarray:
    """Superposition of no photons and a photon in each of the sum and
    difference modes; its difference-port populations are (1/2, 1/2)."""
    return np.array([0.5, 0.5])


def separable_01_pair() -> np.ndarray:
    """One photon sitting in the difference mode: populations (0, 1)."""
    return np.array([0.0, 1.0])


def twin_photon_pair() -> np.ndarray:
    """Literal |1, 1> input pair; interference gives difference-port
    populations (1/2, 0, 1/2) and the witness passes."""
    return fair_pair(make_fock(1, 2).density())


def fair_pair(rho: DensityOperator) -> np.ndarray:
    """Difference-port distribution of twin copies of rho, the fair case
    by construction."""
    return pair_dark_populations(rho, rho)


def unfairness_scan(pairs, lam_grid) -> ScanResult:
    """Moment witness over (state_id, q) pairs, q a difference-port
    distribution, and a lam grid inside [-1, 1]. Fair mixtures of twin pairs
    satisfy P_lam^2 <= P P_lamlam for P(lam) = sum_m q_m lam^m; a negative
    margin witnesses an operator that is not one."""
    if not np.all(np.abs(np.asarray(lam_grid, dtype=float)) <= 1.0):
        raise ValueError("the tilt parameter must satisfy |lam| <= 1")
    polys = ((state_id, PurityPolynomial(q)) for state_id, q in pairs)
    return _scan("unfairness_witness", polys, lam_grid, _witness, SCAN_TOL,
                 axis="lambda", unit="pairs")


# ---------------------------------------------------------------------------
# dark-port statistics
# ---------------------------------------------------------------------------


def _g2_excess(poly: PurityPolynomial, t_grid: np.ndarray) -> np.ndarray:
    """g2 - 1 of the dark port: loss weights its m-photon population by
    lam^m, lam = 1 - 2T, so g2 = P P_lamlam / P_lam^2. None where the mean
    lam P_lam / P is numerically zero; a NaN mean gives a NaN margin."""
    lam = 1.0 - 2.0 * t_grid
    p, d1, d2 = _derivatives(poly, lam)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lam * d1 / p <= MEAN_N_FLOOR, None, p * d2 / d1 ** 2 - 1.0)


def _dark_port_polynomial(rho1: DensityOperator) -> PurityPolynomial:
    if not rho1.physical:
        raise ValueError("dark-port g2 needs a positive operator, got physical=False")
    return PurityPolynomial(fair_pair(rho1))


def dark_port_g2_scan(states, t_grid) -> ScanResult:
    """Scan g2(dark port) >= 1 wherever g2 is defined, for twin copies of
    each (state_id, operator) pair on a grid inside 0 <= T <= 1/2."""
    grid = np.asarray(t_grid, dtype=float)
    if not np.all((grid >= 0.0) & (grid <= 0.5)):
        raise ValueError("the dark-port g2 scan needs 0 <= T <= 1/2")
    polys = ((state_id, _dark_port_polynomial(rho1)) for state_id, rho1 in states)
    return _scan("dark_port_g2", polys, grid, _g2_excess, G2_TOL)
