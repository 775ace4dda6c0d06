"""Typed results for named checks and conjecture scans, plus CSV serialization.

Every check produces a CheckReport; pass always means margin >= -tolerance.
CHECKS gives each check ``verify`` writes its report kind, tolerance and
claim. CSV output is deterministic: fixed column order, rows sorted before
writing, and floats rendered with repr so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field


@dataclass
class CheckReport:
    check_name: str
    state_id: str
    params: dict
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    passed: bool = field(init=False)
    claim: str = ""

    def __post_init__(self):
        # plain floats, so the CSV's repr never renders a NumPy scalar
        for name in ("lhs", "rhs", "margin", "tolerance"):
            setattr(self, name, float(getattr(self, name)))
        # the one pass rule of every check; a NaN margin fails
        self.passed = self.margin >= -self.tolerance


def inequality_report(check_name, state_id, params, lhs, rhs, tolerance, claim="") -> CheckReport:
    """Report for a claim of the form lhs <= rhs; margin = rhs - lhs."""
    return CheckReport(check_name, state_id, dict(params), lhs, rhs, rhs - lhs, tolerance,
                       claim=claim)


def equality_report(check_name, state_id, params, lhs, rhs, tolerance, claim="") -> CheckReport:
    """Report for a claim lhs = rhs; margin = -|lhs - rhs|."""
    return CheckReport(check_name, state_id, dict(params), lhs, rhs, -abs(lhs - rhs),
                       tolerance, claim=claim)


# the report kind, tolerance and claim of every check `verify` writes, keyed
# by its CSV check_name
CHECKS = {
    "dark_coefficients": (inequality_report, 1e-10, "dark-port coefficients are nonnegative"),
    "purity_convexity": (inequality_report, 1e-9, "P'' >= 0 on the applicable grid"),
    "purity_symmetry": (equality_report, 1e-10, "P(T) = P(1-T) for pure inputs"),
    "lossy_trace_match": (equality_report, 1e-10, "polynomial purity equals trace purity"),
    "pure_min_at_half": (inequality_report, 1e-10, "pure-state purity is minimized at T = 1/2"),
    "qcs_routes_agree": (equality_report, 1e-8, "independent coherence-scale routes agree"),
    "qcs_half_loss_identity": (equality_report, 1e-10,
                               "at half loss every input has scale 1 - q_1/q_0"),
    "qcs_half_loss_bound": (inequality_report, 1e-8,
                            "at half loss or more every input stays at or below unit scale"),
    "purity_route_chi": (equality_report, 1e-10,
                         "characteristic-function integral reproduces purity"),
    "purity_route_quasi": (equality_report, 1e-10,
                           "squared quasiprobability integral reproduces purity"),
    "purity_route_lossy_chi": (equality_report, 1e-10,
                               "lossy purity via the characteristic-function integral"),
    "cauchy_schwarz_ladder": (inequality_report, 1e-10, "|<a>|^2 <= <N>"),
    "ladder_loss_inequality": (inequality_report, 1e-10,
                               "Tr[N rho_T^2] <= Tr[a rho_T a^dag rho_T], T <= 1/2"),
    "pure_number_ratio": (inequality_report, 1e-10,
                          "Tr[N rho_T^2]/T <= Tr[N rho_{1-T}^2]/(1-T) for pure input"),
    "transpose_trick": (equality_report, 1e-10,
                        "Tr[a rho_T a^dag rho_T] = Tr[N rho_{1-T}^2] T/(1-T)"),
    "pure_second_order": (inequality_report, 1e-10,
                          "4Re<a^dag a^2><a^dag> - |<a^2>|^2 <= 2<N>^2 - <N> + <N^2>"),
    "second_derivative_forms": (equality_report, 1e-9,
                                "operator forms of d2P/dT2 agree with the exact polynomial"),
    "second_derivative_sign": (inequality_report, 1e-9, "d2P/dT2 >= 0 for pure (all T) and "
                               "mixed (T <= 1/2) inputs"),
    "bernstein_monotonic": (inequality_report, 1e-9, "(T^2 d/dT)^k (T purity) >= 0 on (0, 1], "
                            "complete monotonicity in 1/T"),
    "number_purity_monotonicity": (inequality_report, 1e-10,
                                   "Tr[N rho_T^2] nondecreasing and Tr[a rho_T a^dag rho_T]"
                                   "(1-T)/T nonincreasing in T"),
}


def check_report(check_name, state_id, params, lhs, rhs) -> CheckReport:
    """The report of check_name, of the kind, tolerance and claim of its CHECKS row."""
    kind, tolerance, claim = CHECKS[check_name]
    return kind(check_name, state_id, params, lhs, rhs, tolerance, claim=claim)


def format_params(params: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in params.items())


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


CHECK_COLUMNS = ["check_name", "state_id", "params", "lhs", "rhs", "margin", "tolerance", "pass"]


def check_rows(reports) -> list[list[str]]:
    rows = []
    for r in reports:
        rows.append([r.check_name, r.state_id, format_params(r.params), repr(r.lhs),
                     repr(r.rhs), repr(r.margin), repr(r.tolerance), str(r.passed).lower()])
    rows.sort()
    return rows


def write_check_csv(path, reports) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CHECK_COLUMNS)
        writer.writerows(check_rows(reports))


@dataclass
class ScanResult:
    """Outcome of a conjecture scan over a corpus and a parameter grid.

    rows holds (state_id, grid_value, margin) triples, and failed counts
    the rows that fail at the scan's tolerance; disposition is one of
    "no-violation-found", "violation", "proven-case-verified", or "empty".
    A point fails unless margin >= -tolerance, so a NaN margin fails. The
    refinement protocol: a state with a failing point is re-scanned on a
    10x finer grid at a 10x tighter tolerance, and its worst failing fine
    point, a NaN first, goes into violations. A violation is only declared
    after that step reproduces it. min_margin and argmin are taken over
    rows, a NaN row first; a scan without rows checked nothing and is
    always "empty".
    """

    conjecture: str
    corpus: str
    grid: str
    min_margin: float
    argmin: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    failed: int = 0
    disposition: str = "no-violation-found"

    def __post_init__(self):
        if not self.rows:
            self.disposition = "empty"


SCAN_COLUMNS = ["conjecture", "state_id", "T_or_lambda", "margin"]


def write_scan_csv(path, results) -> None:
    rows = []
    for res in results:
        for state_id, grid_value, margin in res.rows:
            rows.append([res.conjecture, state_id, repr(float(grid_value)), repr(float(margin))])
    rows.sort()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCAN_COLUMNS)
        writer.writerows(rows)
