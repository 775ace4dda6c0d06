"""The one pass rule: margin >= -tolerance, so a NaN margin fails; and the
check table against README's claim table."""

import re
from pathlib import Path

import numpy as np

from lossylab.conjectures import _scan
from lossylab.reports import CHECKS, CheckReport


def report(margin, tolerance=1e-9):
    return CheckReport("check", "state", {}, 0.0, 0.0, margin, tolerance)


def test_check_report_passes_at_minus_tolerance_only():
    assert report(-1e-9).passed is True
    assert report(np.nextafter(-1e-9, -np.inf)).passed is False
    assert report(np.nan).passed is False


def test_scan_counts_failed_rows_at_its_tolerance():
    def margins_on(item, grid):
        return [-5e-9, np.nan, 0.1]

    grid = [0.0, 0.5, 1.0]
    assert _scan("synthetic", [("s", None)], grid, margins_on, 1e-8).failed == 1
    assert _scan("synthetic", [("s", None)], grid, margins_on, 1e-9).failed == 2


def test_readme_claim_table_names_every_check_once():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Claims and checks", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    named = [name for row in rows for name in re.findall(r"`(\w+)`", row.split("|")[-2])]
    assert sorted(named) == sorted(CHECKS)
