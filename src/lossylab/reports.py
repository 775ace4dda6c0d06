"""Typed results for named checks and conjecture scans, plus CSV serialization.

Every check produces a CheckReport; pass always means margin >= -tolerance,
with the sign convention spelled out in the claim string. CSV output is
deterministic: fixed column order, rows sorted before writing, and floats
rendered with repr so identical runs are byte-identical.
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
    passed: bool
    claim: str = ""

    def __post_init__(self):
        # plain floats, so the CSV's repr never renders a NumPy scalar
        for name in ("lhs", "rhs", "margin", "tolerance"):
            setattr(self, name, float(getattr(self, name)))


def inequality_report(check_name, state_id, params, lhs, rhs, tolerance, claim="") -> CheckReport:
    """Report for a claim of the form lhs <= rhs; margin = rhs - lhs."""
    margin = rhs - lhs
    return CheckReport(check_name, state_id, dict(params), lhs, rhs, margin, tolerance,
                       bool(margin >= -tolerance), claim)


def equality_report(check_name, state_id, params, lhs, rhs, tolerance, claim="") -> CheckReport:
    """Report for a claim lhs = rhs; margin = -|lhs - rhs|."""
    margin = -abs(lhs - rhs)
    return CheckReport(check_name, state_id, dict(params), lhs, rhs, margin, tolerance,
                       bool(margin >= -tolerance), claim)


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

    rows holds (state_id, grid_value, margin) triples; disposition is one of
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
