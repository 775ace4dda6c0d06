"""Command-line interface: exit codes, CSV formats, config handling."""

import ast
import contextlib
import csv
import filecmp
import importlib
import importlib.util
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import float_spellings, grid_spellings, huge_step_counts

import lossylab
from lossylab.cli import (MAX_CUTOFF, MAX_GRID_POINTS, MAX_GRID_STEPS,
                          MAX_QUADRATURE_NODES, MAX_RADIAL_NODES, SWEEP_COLUMNS, ConfigError,
                          main, parse_grid, parse_quadrature, parse_states)
from lossylab.fock import PureState, random_pure
from lossylab.purity import min_purity_pure, purity, purity_polynomial, renyi_entropy, von_neumann
from lossylab.qcs import qcs_commutator
from lossylab.reports import CHECKS


def run(*argv):
    return main(list(argv))


def test_verify_single_photon(capsys, tmp_path):
    out = tmp_path / "checks.csv"
    assert run("verify", "--states", "fock:1", "--out", str(out)) == 0
    text = capsys.readouterr().out
    assert "failed" in text
    lines = text.strip().splitlines()
    summary = lines[-1]
    assert summary.startswith("checks: ")
    assert summary.endswith("0 failed")
    header = out.read_text().splitlines()[0]
    assert header == "check_name,state_id,params,lhs,rhs,margin,tolerance,pass"


def test_verify_suite_selection(capsys):
    assert run("verify", "--states", "fock:0", "--suite", "qcs") == 0
    n_qcs = int(capsys.readouterr().out.split("checks: ")[1].split(" ")[0])
    assert run("verify", "--states", "fock:0") == 0
    n_all = int(capsys.readouterr().out.split("checks: ")[1].split(" ")[0])
    assert 0 < n_qcs < n_all


def verify_rows(tmp_path, *argv):
    """The CSV rows of one verify run, as dicts."""
    out = tmp_path / "verify-rows.csv"
    run("verify", *argv, "--out", str(out))
    with open(out, newline="") as fh:
        return list(csv.DictReader(fh))


def test_every_check_the_suites_build_is_a_table_key(tmp_path, capsys):
    # statically: the modules that build verify's reports name, as the first
    # argument of a check_report call or as a CHECKS row they read, exactly
    # the table's keys
    built = set()
    for name in ("cli", "inequalities"):
        path = importlib.import_module(f"lossylab.{name}").__file__
        for node in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "check_report":
                built.add(node.args[0].value)
            elif isinstance(node, ast.Subscript) and getattr(node.value, "id", "") == "CHECKS":
                built.add(node.slice.value)
    assert built == set(CHECKS)
    # at run time, on a pure and a mixed state: the rows are exactly the keys
    argv = ("--states", "random:2", "--seed", "1", "--quadrature", "40:64")
    emitted = {r["check_name"] for r in verify_rows(tmp_path, *argv, "--suite", "all")}
    assert emitted == set(CHECKS)


def _spy_on_engine_and_loss_kernel(monkeypatch):
    """Lists that fill, during a run, with the operand of each dark-port
    engine call and with (operand, T) for each T the loss kernel gets.
    Holding the operands keeps their ids apart."""
    engine, kernel = [], []
    # by module path: lossylab.purity as an attribute is the function purity()
    purity_module, loss_module = (importlib.import_module(f"lossylab.{name}")
                                  for name in ("purity", "loss"))
    pair, blocks = purity_module.pair_dark_populations, loss_module._loss_blocks

    def counted_pair(rho, sigma):
        engine.append(rho)
        return pair(rho, sigma)

    def counted_blocks(rho, grid):
        kernel.extend((rho, float(t)) for t in grid)
        return blocks(rho, grid)

    monkeypatch.setattr(purity_module, "pair_dark_populations", counted_pair)
    monkeypatch.setattr(loss_module, "_loss_blocks", counted_blocks)
    return engine, kernel


@pytest.mark.parametrize("spec, count", [(("random:3",), 3),
                                         (("fock:3,coherent:1.2",), 2)])
def test_verify_runs_the_engine_once_and_each_loss_once_per_state(spec, count, monkeypatch,
                                                                   capsys):
    engine, kernel = _spy_on_engine_and_loss_kernel(monkeypatch)
    assert run("verify", "--states", *spec, "--seed", "1") == 0
    assert len(engine) == len({id(rho) for rho in engine}) == count
    # every state reaches the kernel, and no T reaches it twice for one state
    assert {id(rho) for rho, _ in kernel} == {id(rho) for rho in engine}
    per_state = {}
    for rho, t in kernel:
        per_state.setdefault(id(rho), []).append(t)
    for ts in per_state.values():
        assert len(ts) == len(set(ts)) > 20
    engine.clear()
    kernel.clear()
    assert run("verify", "--suite", "phasespace", "--states", *spec, "--seed", "1") == 0
    assert engine == []
    assert len(kernel) == 2 * count


@pytest.mark.parametrize("states", [("--states", "random:4", "--seed", "3"),
                                    ("--states", "fock:3,coherent:1.2,squeezed:0.6")])
def test_suites_in_isolation_write_the_rows_of_all_suites(states, tmp_path, capsys):
    def rows(suite):
        out = tmp_path / f"{suite}.csv"
        assert run("verify", *states, "--suite", suite, "--out", str(out)) == 0
        return out.read_bytes().splitlines()[1:]

    alone = [row for suite in ("purity", "qcs", "phasespace", "inequalities")
             for row in rows(suite)]
    assert sorted(alone) == sorted(rows("all"))


def test_file_vector_runs_the_pure_state_checks(tmp_path, capsys):
    path = tmp_path / "vec.npy"
    np.save(path, random_pure(7, 8).amplitudes)
    common = ("--quadrature", "40:64")
    from_file = verify_rows(tmp_path, "--states", f"file:{path}", *common)
    built = verify_rows(tmp_path, "--states", "random:1:8:0", "--seed", "7", *common)
    assert len(from_file) == len(built) == 51
    for a, b in zip(from_file, built):
        assert (a["check_name"], a["params"], a["pass"]) == (b["check_name"], b["params"],
                                                             b["pass"])
        for column in ("lhs", "rhs", "margin"):
            assert float(a[column]) == pytest.approx(float(b[column]), rel=0, abs=1e-12)


def test_purity_suite_at_cutoff_24(tmp_path, capsys):
    # the polynomial is evaluated in lambda = 1 - 2T; expanded into
    # monomials in T it cancels catastrophically at this cutoff
    out = tmp_path / "purity.csv"
    assert run("verify", "--states", "random:4:24", "--seed", "1", "--grid",
               "0:1:21", "--suite", "purity", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = {"purity_symmetry", "purity_convexity", "pure_min_at_half"}
    checked = [r for r in rows if r["check_name"] in names]
    assert {r["check_name"] for r in checked} == names
    assert all(r["pass"] == "true" for r in checked)


def test_qcs_half_loss_bound_covers_pure_inputs(tmp_path, capsys):
    out = tmp_path / "qcs.csv"
    assert run("verify", "--states", "random:1:8", "--seed", "1", "--grid",
               "0:1:11", "--suite", "qcs", "--out", str(out)) == 0
    with open(out, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["check_name"] == "qcs_half_loss_bound"]
    assert [r["state_id"] for r in rows] == ["random-pure:1"] * 5
    assert [r["params"] for r in rows] == [f"T={float(t)!r}" for t in np.linspace(0, 1, 11)[1:6]]
    assert all(r["pass"] == "true" for r in rows)


def test_qcs_suite_at_cutoff_64(tmp_path, capsys):
    # dense two-mode products would need several GB at this cutoff
    assert run("verify", "--states", "random:2:64", "--seed", "1", "--suite", "qcs",
               "--out", str(tmp_path / "qcs.csv")) == 0
    assert capsys.readouterr().out.strip().splitlines()[-1].endswith(" 0 failed")


@pytest.mark.parametrize("spec", ["random:6", "random:4:24", "random:2:64:5", "random:1:1",
                                  "fock:1,fock:7,coherent:1.3,squeezed:1.0,squeezed:2.0"])
def test_qcs_half_loss_identity_holds_for_every_state_off_the_grid(spec, tmp_path, capsys):
    # C_1/2^2 = 1 - q_1/q_0 for pure and mixed inputs alike: one row per
    # state although T = 1/2 is not on the grid
    rows = verify_rows(tmp_path, "--suite", "qcs", "--states", spec, "--grid", "0:1:20")
    identity = [r for r in rows if r["check_name"] == "qcs_half_loss_identity"]
    state_ids = [state_id for state_id, _ in parse_states(spec, 7, False)]
    assert sorted(r["state_id"] for r in identity) == sorted(state_ids)
    for r in identity:
        assert (r["params"], r["tolerance"], r["pass"]) == ("T=0.5", "1e-10", "true")
        assert abs(float(r["lhs"]) - float(r["rhs"])) <= 1e-10
        # a mixed input's scale falls below 1 by q_1/q_0
        assert r["state_id"].startswith("random-mixed") == (float(r["rhs"]) < 0.99)


def test_pure_min_at_half_reads_the_closed_form_against_the_polynomial(tmp_path, capsys):
    spec = "random:2:24:0,fock:7,coherent:1.3,squeezed:1.0"
    rows = {r["state_id"]: r for r in verify_rows(tmp_path, "--suite", "purity",
                                                  "--states", spec)
            if r["check_name"] == "pure_min_at_half"}
    states = parse_states(spec, 7, False)
    assert sorted(rows) == sorted(state_id for state_id, _ in states)
    for state_id, psi in states:
        lhs = float(rows[state_id]["lhs"])
        assert lhs == min_purity_pure(psi)
        assert lhs == pytest.approx(purity_polynomial(psi.density()).value(0.5), abs=1e-14)
        assert rows[state_id]["pass"] == "true"


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records the positional arguments
    of each call; returns the record."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_qcs_suite_builds_one_purity_polynomial_per_state(monkeypatch, capsys):
    # every purity polynomial is one dark-port population run
    calls = counting(monkeypatch, importlib.import_module("lossylab.purity"),
                     "pair_dark_populations")
    assert run("verify", "--states", "random:3", "--seed", "1", "--suite", "qcs",
               "--grid", "0:1:11") == 0
    assert len(calls) == 3


def test_sweep_runs_one_eigendecomposition_per_row(monkeypatch, capsys):
    # counts matrices, not calls: a block of T is decomposed as one stack
    calls = counting(monkeypatch, np.linalg, "eigvalsh")

    def decomposed():
        return sum(int(np.prod(np.shape(args[0])[:-2])) for args in calls)

    parse_states("random:1:8:3", 4, False)
    setup = decomposed()  # building the input state
    calls.clear()
    assert run("sweep", "--states", "random:1:8:3", "--seed", "4",
               "--grid", "0:1:9") == 0
    assert decomposed() == setup + 9


@pytest.mark.parametrize("states", ["squeezed:0.8", "random:1:8:3"])
def test_sweep_memory_stays_within_one_block(tmp_path, states, capsys):
    # the columns are computed one block of at most 2^13 entries at a time;
    # a stack over all 401 T at cutoff 25 would need about 16 MB. The first
    # run is untraced, so one-time imports and caches stay out of the peak
    argv = ("sweep", "--states", states, "--seed", "1", "--grid", "0:1:401",
            "--out", str(tmp_path / "sweep.csv"))
    assert run(*argv) == 0
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


@pytest.mark.parametrize("states", ["squeezed:0.8", "random:1:25:3"])
def test_verify_memory_does_not_grow_with_the_grid(states, capsys):
    # the qcs suite streams the grid one block at a time, and each state
    # keeps only the lossy states of the fixed T the other suites share:
    # keeping all 401 lossy states at cutoff 25 would add about 4 MB
    argv = ("verify", "--states", states, "--seed", "1", "--grid", "0:1:401")
    assert run(*argv) == 0
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_sweep_single_photon(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--states", "fock:1", "--grid", "0:1:5",
               "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "T,purity,h1,h2,c_squared,mean_n"
    assert len(lines) == 6
    for row in lines[1:]:
        t, pur, h1, h2, c2, mean_n = (float(x) for x in row.split(","))
        assert pur == pytest.approx((1 - t) ** 2 + t ** 2, abs=1e-12)
        assert mean_n == pytest.approx(t, abs=1e-12)
        assert h2 == pytest.approx(-np.log(pur), abs=1e-9)


def test_sweep_squeezed_vacuum(tmp_path):
    out = tmp_path / "sq.csv"
    assert run("sweep", "--states", "squeezed:0.5", "--grid", "0:1:3",
               "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_t = {float(r[0]): r for r in rows}
    assert float(by_t[0.5][4]) == pytest.approx(1.0, abs=1e-6)
    assert float(by_t[1.0][4]) == pytest.approx(np.cosh(1.0), abs=1e-4)
    assert float(by_t[1.0][5]) == pytest.approx(np.sinh(0.5) ** 2, abs=1e-4)
    assert float(by_t[0.5][5]) == pytest.approx(0.5 * np.sinh(0.5) ** 2, abs=1e-4)


@pytest.mark.parametrize("states, seed", [("squeezed:0.8", "1"), ("random:1:8:3", "6")])
def test_sweep_csv_matches_per_t_rows(tmp_path, per_t_loss, states, seed):
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--states", states, "--seed", seed, "--grid", "0:1:401",
               "--out", str(out)) == 0
    (_, state), = parse_states(states, int(seed), False)
    rho1 = state.density() if isinstance(state, PureState) else state
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    writer.writerow(SWEEP_COLUMNS)
    for t in np.linspace(0.0, 1.0, 401):
        rho_t = per_t_loss(rho1, float(t))
        pops = np.diag(rho_t.matrix).real
        writer.writerow([repr(float(t)), repr(purity(rho_t)), repr(von_neumann(rho_t)),
                         repr(renyi_entropy(rho_t, 2)),
                         repr(qcs_commutator(rho_t).c_squared),
                         repr(float(pops @ np.arange(pops.size)))])
    assert out.read_bytes() == expected.getvalue().encode()


def test_sweep_rejects_multiple_states():
    assert run("sweep", "--states", "fock:0,fock:1") == 2


@pytest.mark.parametrize("grid", ["0:1.5:4", "-0.5:1:4"])
@pytest.mark.parametrize("state", ["file", "fock:1"])
def test_sweep_rejects_grid_outside_unit_interval(state, grid, tmp_path, capsys):
    # the binomial map's continuation past T = 1 is no channel: for
    # diag(0.5, 0.5) its row at T = 1.5 has <N> = 0.75 above the input's 0.5
    if state == "file":
        path = tmp_path / "diag.npy"
        np.save(path, np.diag([0.5, 0.5]))
        state = f"file:{path}"
    out = tmp_path / "sweep.csv"
    assert run("sweep", "--states", state, f"--grid={grid}", "--out", str(out)) == 2
    assert "sweep grid must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()
    assert run("sweep", "--states", state, "--grid=0:1:3", "--out", str(out)) == 0


def test_phasespace_wigner_of_lossy_photon(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run("phasespace", "--states", "fock:1", "--s", "0", "--T", "0.5",
               "--points", "41", "--half-width", "4", "--out", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# s=0.0,T=0.5,state=fock:1")
    assert lines[1] == "re_alpha,im_alpha,value"
    values = np.array([float(line.split(",")[2]) for line in lines[2:]])
    assert values.size == 41 * 41
    # the balanced-loss single photon has a nonnegative distribution
    assert values.min() > -1e-9
    # deeper loss turns the origin negative at the Wigner order
    out2 = tmp_path / "grid2.csv"
    assert run("phasespace", "--states", "fock:1", "--s", "0", "--T", "0.75",
               "--points", "41", "--half-width", "4", "--out", str(out2)) == 0
    values2 = np.array([float(line.split(",")[2])
                        for line in out2.read_text().splitlines()[2:]])
    assert values2.min() == pytest.approx((2 / np.pi) * (1 - 2 * 0.75), abs=1e-6)


def test_phasespace_rejects_degenerate_grids(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    for flags in (["--points", "1"], ["--half-width", "0"], ["--half-width", "nan"]):
        assert run("phasespace", "--states", "fock:1", *flags, "--out", str(out)) == 2
        assert "grid" in capsys.readouterr().err
    assert not out.exists()


def test_phasespace_refuses_a_grid_whose_radius_overflows(tmp_path, capsys):
    # |alpha|^2 = 2e400 at the corners: refused before any arithmetic warns
    # (a RuntimeWarning is an error under pytest), not blamed on the state
    out = tmp_path / "grid.csv"
    assert run("phasespace", "--states", "fock:1", "--half-width", "1e200", "--points", "3",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "|alpha|^2" in err and "residue" not in err
    assert not out.exists()


@pytest.mark.parametrize("t", ["1.5", "-0.2", "nan"])
def test_phasespace_rejects_transmissivity_outside_unit_interval(t, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert run("phasespace", "--states", "fock:1", "--T", t, "--points", "11",
               "--out", str(out)) == 2
    assert "--T must lie in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("order", ["nan", "inf", "-inf"])
def test_phasespace_refuses_a_non_finite_order(order, tmp_path, capsys):
    # refused as the flag it is, before any kernel arithmetic can warn (a
    # RuntimeWarning is an error under pytest), not blamed on the state
    out = tmp_path / "grid.csv"
    assert run("phasespace", "--states", "fock:1", f"--s={order}", "--points", "11",
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "order s must be finite" in err and "residue" not in err
    assert not out.exists()


@pytest.mark.parametrize("t", ["0", "1"])
def test_phasespace_accepts_transmissivity_endpoints(t, capsys):
    assert run("phasespace", "--states", "fock:1", "--T", t, "--points", "11") == 0
    assert "1 passed" in capsys.readouterr().out


def test_cli_import_leaves_numpy_polynomial_and_scipy_unloaded():
    # each costs milliseconds per process, and the library needs neither:
    # polynomials are evaluated by one Horner loop, and scipy is a test oracle
    code = ("import sys, lossylab.cli; "
            "print([m for m in sys.modules if m.startswith(('numpy.polynomial', 'scipy'))])")
    src = str(Path(lossylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # scipy.ndimage costs tens of ms per process, and nothing in the library
    # needs it
    code = "import sys, lossylab.cli; print('scipy.ndimage' in sys.modules)"
    src = str(Path(lossylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"


NO_SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # from here on, importing scipy raises ImportError
import lossylab.cli as cli
out = sys.argv[1]
codes = []
for argv in (["verify", "--suite", "all", "--states", "random:2", "--quadrature", "40:64"],
             ["sweep", "--states", "squeezed:0.8"],
             ["phasespace", "--states", "random:1:6", "--s", "-1", "--points", "21"],
             ["phasespace", "--states", "random:1:6", "--s", "0", "--points", "21"],
             ["phasespace", "--states", "random:1:6", "--s", "0.3", "--points", "21"],
             ["conjecture", "--name", "log-convexity", "--states", "random:3"],
             ["conjecture", "--name", "unfairness", "--phi", "bell-like"]):
    codes.append(cli.main(argv + ["--out", out]))
print(*codes, sys.modules["scipy"])
"""


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: every command runs, and exits as it
    # should, in a process where it cannot be imported
    src = str(Path(lossylab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=env, timeout=300, check=True)
    assert done.stdout.splitlines()[-1] == "0 0 0 0 0 0 1 None"


def test_verify_inequalities_csv_cells_are_numbers(tmp_path):
    out = tmp_path / "ineq.csv"
    run("verify", "--states", "random:2", "--seed", "5", "--suite", "inequalities",
        "--quadrature", "40:64", "--out", str(out))
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = list(csv.reader(lines[1:]))
    assert rows
    for row in rows:
        for column in ("lhs", "rhs", "margin"):
            float(row[header.index(column)])


def test_conjecture_counterexamples_exit_nonzero(capsys):
    assert run("conjecture", "--name", "unfairness", "--phi", "bell-like") == 1
    text = capsys.readouterr().out
    assert "violation" in text
    # rows are counted at the scan's own tolerance, as the disposition is
    assert text.strip().endswith("checks: 21 run, 0 passed, 21 failed")
    assert run("conjecture", "--name", "unfairness", "--phi", "separable-01") == 1
    assert run("conjecture", "--name", "unfairness", "--phi", "no-such-pair") == 2


@pytest.mark.parametrize("name", ["log-convexity", "ell-log-convexity", "dark-port-g2"])
def test_phi_applies_only_to_unfairness(name, tmp_path, capsys):
    out = tmp_path / "scan.csv"
    assert run("conjecture", "--name", name, "--phi", "bell-like",
               "--out", str(out)) == 2
    assert "--phi applies only to --name unfairness" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, config", [
    (("--states", "nosuch:3"), ""),
    (("--seed", "7"), ""),
    (("--allow-nonpositive",), ""),
    ((), "states = random:5\n"),
    ((), "seed = 7\n"),
    ((), "allow-nonpositive = no\n"),
])
def test_phi_refuses_state_flags(flags, config, tmp_path, capsys):
    # --phi scans a named pair, so a state flag it would not read is refused,
    # even one set to its default
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "scan.csv"
    assert run("conjecture", "--name", "unfairness", "--phi", "bell-like",
               "--config", str(cfg), *flags, "--out", str(out)) == 2
    assert "--phi scans a named pair" in capsys.readouterr().err
    assert not out.exists()


def _scan_margins(path):
    with open(path, newline="") as fh:
        return {float(r["T_or_lambda"]): float(r["margin"]) for r in csv.DictReader(fh)}


def test_conjecture_named_pair_margins(tmp_path, capsys):
    out = tmp_path / "twin.csv"
    assert run("conjecture", "--name", "unfairness", "--phi", "twin-photon",
               "--out", str(out)) == 0
    margins = _scan_margins(out)
    assert len(margins) == 21
    for lam, margin in margins.items():
        assert margin == pytest.approx((1.0 - lam ** 2) / 2.0, abs=1e-12)
    out = tmp_path / "bell.csv"
    assert run("conjecture", "--name", "unfairness", "--phi", "bell-like",
               "--out", str(out)) == 1
    margins = _scan_margins(out)
    assert len(margins) == 21
    assert all(margin == -0.25 for margin in margins.values())


def test_empty_scan_exits_nonzero(capsys):
    # the vacuum pair has no dark-port photons, so g2 is never defined
    assert run("conjecture", "--name", "dark-port-g2", "--states", "fock:0") == 1
    text = capsys.readouterr().out
    assert "dark_port_g2: empty" in text
    assert "checks: 0 run" in text


def test_conjecture_scans_pass_on_random_corpus(capsys, tmp_path):
    out = tmp_path / "scan.csv"
    assert run("conjecture", "--name", "log-convexity", "--states", "random:4",
               "--out", str(out)) == 0
    assert "no-violation-found" in capsys.readouterr().out
    header = out.read_text().splitlines()[0]
    assert header == "conjecture,state_id,T_or_lambda,margin"
    assert run("conjecture", "--name", "unfairness", "--states", "random:3") == 0
    assert run("conjecture", "--name", "ell-log-convexity",
               "--states", "random:3", "--grid", "0.05:0.45:5") == 0
    assert run("conjecture", "--name", "dark-port-g2",
               "--states", "random:3", "--grid", "0:0.5:4") == 0


@pytest.mark.parametrize("command, flag, value", [
    *[(command, "--s", "0.3") for command in ("verify", "sweep", "conjecture")],
    *[(command, "--quadrature", "40:64")
      for command in ("sweep", "phasespace", "conjecture")],
    ("phasespace", "--grid", "0:1:3"),
    *[(command, "--tol", "1")
      for command in ("verify", "sweep", "phasespace", "conjecture")],
])
def test_flags_a_subcommand_does_not_read_exit_two(command, flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        run(command, "--states", "fock:1", flag, value)
    assert info.value.code == 2


@pytest.mark.parametrize("argv, grid, code", [
    (("verify", "--states", "random:3:12", "--seed", "5"), "-0:1:11", 0),
    (("sweep", "--states", "fock:1"), "-0:1:11", 0),
    (("sweep", "--states", "fock:1"), "-0.5:1:4", 2),
    (("conjecture", "--name", "unfairness", "--states", "fock:1"), "-1:1:21", 0),
])
def test_a_negative_grid_start_reads_the_same_as_one_or_two_words(argv, grid, code,
                                                                   tmp_path, capsys):
    two_words, one_word = tmp_path / "two.csv", tmp_path / "one.csv"
    assert run(*argv, "--grid", grid, "--out", str(two_words)) == code
    assert run(*argv, f"--grid={grid}", "--out", str(one_word)) == code
    assert two_words.exists() == one_word.exists() == (code == 0)
    assert code or two_words.read_bytes() == one_word.read_bytes()


@pytest.mark.parametrize("value", ["-1e-3", "-5e-1", "-1E-2", "-.5", "-0.5", "-1", "0.3",
                                   "-inf", "-nan", "-1e400"])
def test_an_order_reads_the_same_as_one_or_two_words(value, tmp_path, capsys):
    # argparse on its own reads only -12 and -1.5 as values: -1e-3 after
    # --s would be a flag
    two_words, one_word = tmp_path / "two.csv", tmp_path / "one.csv"
    argv = ("phasespace", "--state", "fock:1", "--points", "3")
    code = run(*argv, "--s", value, "--out", str(two_words))
    assert run(*argv, f"--s={value}", "--out", str(one_word)) == code
    assert code in (0, 2) and two_words.exists() == one_word.exists() == (code == 0)
    assert code or two_words.read_bytes() == one_word.read_bytes()
    assert (code == 0) == (value not in ("-inf", "-nan", "-1e400"))


def _outcome(argv, out):
    """(exit status, stdout, CSV bytes or None) of one in-process run of argv
    writing out, with every warning an error. Any exception but argparse's
    exit escapes, so a traceback fails the caller."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(stdout),
          contextlib.redirect_stderr(stderr)):
        warnings.simplefilter("error")
        try:
            code = main([*argv, "--out", str(out)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    return code, stdout.getvalue(), out.read_bytes() if out.exists() else None


@settings(max_examples=60, deadline=None)
@given(value=float_spellings())
def test_any_order_spelling_reads_the_same_as_one_or_two_words(value):
    argv = ("phasespace", "--state", "fock:1", "--points", "3")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "grid.csv"
        assert _outcome([*argv, "--s", value], out) == _outcome([*argv, f"--s={value}"], out)


GRID_COMMANDS = [("verify", "--suite", "purity"), ("verify", "--suite", "qcs"), ("sweep",),
                 *[("conjecture", "--name", name) for name in
                   ("log-convexity", "ell-log-convexity", "unfairness", "dark-port-g2")]]


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(GRID_COMMANDS), flag=st.sampled_from(["--grid", "--gri", "--g"]),
       grid=grid_spellings(max_steps=5))
def test_any_grid_spelling_reads_the_same_as_one_or_two_words(command, flag, grid):
    argv = (*command, "--states", "fock:1")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "rows.csv"
        assert _outcome([*argv, flag, grid], out) == _outcome([*argv, f"{flag}={grid}"], out)


@settings(max_examples=40, deadline=None)
@given(start=float_spellings(), stop=float_spellings(),
       steps=huge_step_counts(MAX_GRID_STEPS))
def test_a_huge_step_count_is_refused_before_any_grid_is_built(start, stop, steps):
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError):
            parse_grid(f"{start}:{stop}:{steps}")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


@pytest.mark.parametrize("argv", [
    ("conjecture", "--name", "unfairness", "--states", "fock:1"),
    ("verify", "--states", "random:3:12", "--seed", "5"),
])
@pytest.mark.parametrize("flag", ["--g", "--gr", "--gri"])
def test_an_abbreviated_grid_flag_takes_a_negative_start(argv, flag, tmp_path, capsys):
    full, short = tmp_path / "full.csv", tmp_path / "short.csv"
    code = run(*argv, "--grid=-1:1:21", "--out", str(full))
    assert run(*argv, flag, "-1:1:21", "--out", str(short)) == code
    assert full.exists() == short.exists() == (code == 0)
    assert code or full.read_bytes() == short.read_bytes()


def test_malformed_arguments_exit_two(capsys):
    assert run("sweep", "--states", "fock:1", "--grid", "0:1") == 2
    assert run("sweep", "--states", "fock:1", "--grid", "0:1:0") == 2
    assert run("verify", "--states", "unknown:3") == 2
    assert run("verify", "--states", "fock:abc") == 2
    with pytest.raises(SystemExit) as info:
        run("no-such-command")
    assert info.value.code == 2


@pytest.mark.parametrize("state", ["coherent:inf", "squeezed:inf", "squeezed:-inf",
                                   "coherent:nan", "coherent:1e300", "squeezed:1e300"])
def test_non_finite_or_oversized_state_parameter_exits_two(state, capsys):
    # the ladder is sized from the parameter, so it must be finite and small
    # enough for the sizing rule not to overflow
    assert run("verify", "--suite", "purity", "--states", state) == 2
    assert repr(state) in capsys.readouterr().err


@pytest.mark.parametrize("state", ["coherent:3e4", "squeezed:8", "random:1:100000:1",
                                   "fock:100000000"])
def test_ladder_beyond_max_cutoff_exits_two_before_allocating(state, capsys):
    # each would need a dense matrix of gigabytes or more; the spec alone is
    # refused, so nothing of that size is allocated
    tracemalloc.start()
    try:
        assert run("verify", "--suite", "purity", "--states", state) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert f"at most {MAX_CUTOFF}" in capsys.readouterr().err


def test_corpus_beyond_the_entry_budget_exits_two_before_allocating(capsys):
    # 100 states of 2048 levels would be 100 dense matrices of 64 MiB
    tracemalloc.start()
    try:
        assert run("verify", "--suite", "purity", "--states", "random:100:2048") == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert f"at most {MAX_CUTOFF ** 2} are allowed" in capsys.readouterr().err
    # the budget counts every family of the spec together
    with pytest.raises(ConfigError, match="matrix entries together"):
        parse_states(f"fock:{MAX_CUTOFF - 2},fock:1", 7, False)
    for spec in ("random:0", "random:-3:8"):
        with pytest.raises(ConfigError, match="COUNT of at least 1"):
            parse_states(spec, 7, False)


def _benchmark_state_specs():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
        return sorted({op.states for name in workloads.WORKLOADS
                       for op in workloads.build_ops(name, 1)})
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("spec", _benchmark_state_specs())
def test_benchmark_state_specs_fit_the_budget(spec):
    assert parse_states(spec, 1, False)


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "purity"),
    ("sweep",),
    *[("conjecture", "--name", name) for name in
      ("log-convexity", "ell-log-convexity", "unfairness", "dark-port-g2")],
])
def test_grid_beyond_max_steps_exits_two_before_allocating(argv, capsys):
    # 10^10 points would be an 80 GB grid array
    tracemalloc.start()
    try:
        assert run(*argv, "--states", "fock:1", "--grid", "0:1:10000000000") == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert f"1 to {MAX_GRID_STEPS} steps" in capsys.readouterr().err


@pytest.mark.parametrize("points", [MAX_GRID_POINTS + 1, 10 ** 9])
def test_grid_points_beyond_max_exit_two_before_allocating(points, capsys):
    # 10^9 points per axis would be a 16 EB array of complex grid points
    tracemalloc.start()
    try:
        assert run("phasespace", "--states", "fock:1", "--points", str(points)) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert f"at most {MAX_GRID_POINTS} points per axis" in capsys.readouterr().err


def test_a_radial_rule_too_short_fails_closed(tmp_path, capsys):
    # 40:64 is below the exact rule 40:79 of a state at cutoff 40, where both
    # phase-space routes are off by up to 0.027: it is refused, naming the
    # exact rule, and no CSV is written
    out = tmp_path / "short.csv"
    assert run("verify", "--suite", "phasespace", "--states", "random:1:40:0", "--seed", "1",
               "--quadrature", "40:64", "--out", str(out)) == 2
    captured = capsys.readouterr()
    assert "needs at least 40:79" in captured.err
    assert "checks:" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--states", "squeezed:2.0"),
                                  ("--states", "squeezed:2.0", "--quadrature", "223:445"),
                                  ("--states", "fock:60", "--quadrature", "62:123")])
def test_phasespace_suite_is_exact_at_and_above_the_state_rule(argv, tmp_path, capsys):
    # squeezed:2.0 is on 223 levels; fock:60 on 62
    rows = verify_rows(tmp_path, "--suite", "phasespace", *argv)
    assert capsys.readouterr().out.strip().endswith("checks: 4 run, 4 passed, 0 failed")
    assert len(rows) == 4
    for row in rows:
        assert abs(float(row["lhs"]) - float(row["rhs"])) <= 1e-12, row


def test_a_state_beyond_the_quadrature_budget_exits_two_before_any_check(capsys,
                                                                         monkeypatch):
    # fock:400 is on 402 levels: its exact rule 402:803 has more than
    # MAX_QUADRATURE_NODES nodes, and is refused before it is built; the
    # message names the phasespace suite as the one that cannot run, and
    # the suites that can
    for suite in ("phasespace", "all"):
        tracemalloc.start()
        try:
            assert run("verify", "--suite", suite, "--states", "fock:400") == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        captured = capsys.readouterr()
        assert captured.err == (
            "error: the phasespace suite cannot run on 'fock:400', but --suite "
            "purity|qcs|inequalities can: its exact quadrature needs at most "
            f"{MAX_QUADRATURE_NODES} nodes in all, got 402 x 803\n")
        assert "checks:" not in captured.out
    # the budget binds only where the phasespace suite runs: fock:8 is on 10
    # levels, and its exact rule 10:19 has 190 nodes
    monkeypatch.setattr(lossylab.cli, "MAX_QUADRATURE_NODES", 189)
    assert run("verify", "--suite", "qcs", "--states", "fock:8") == 0
    assert run("verify", "--suite", "all", "--states", "fock:8") == 2
    assert "got 10 x 19" in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("1000000:128", f"1 to {MAX_RADIAL_NODES} radial nodes"),
    ("0:128", f"1 to {MAX_RADIAL_NODES} radial nodes"),
    ("80:0", "at least 1 angular node"),
])
def test_quadrature_beyond_bounds_exits_two_before_allocating(spec, message, capsys):
    # 10^6 radial nodes would be an 8 TB Jacobi matrix
    tracemalloc.start()
    try:
        assert run("verify", "--suite", "phasespace", "--states", "fock:1",
                   "--quadrature", spec) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert message in capsys.readouterr().err


def test_quadrature_radial_bound():
    assert parse_quadrature(f"{MAX_RADIAL_NODES}:1").n_radial == MAX_RADIAL_NODES
    with pytest.raises(ConfigError, match=f"1 to {MAX_RADIAL_NODES} radial nodes"):
        parse_quadrature(f"{MAX_RADIAL_NODES + 1}:1")


def test_quadrature_total_bound():
    # parsed only: a refused rule would allocate its radial x angular points
    # in every complex array over it
    radial = MAX_RADIAL_NODES
    quad = parse_quadrature(f"{radial}:{MAX_QUADRATURE_NODES // radial}")
    assert quad.n_radial * quad.n_angular == MAX_QUADRATURE_NODES
    for spec in (f"{radial}:{MAX_QUADRATURE_NODES // radial + 1}", "1:100000000",
                 f"1:{MAX_QUADRATURE_NODES + 1}"):
        with pytest.raises(ConfigError, match=f"at most {MAX_QUADRATURE_NODES} nodes"):
            parse_quadrature(spec)


def test_grid_steps_bound():
    assert parse_grid(f"0:1:{MAX_GRID_STEPS}").size == MAX_GRID_STEPS
    with pytest.raises(ConfigError, match=f"1 to {MAX_GRID_STEPS} steps"):
        parse_grid(f"0:1:{MAX_GRID_STEPS + 1}")


def test_oversized_operator_file_exits_two_before_reading(tmp_path, capsys):
    # a 2049 x 2049 matrix is 32 MiB on disk; only its header is read
    path = tmp_path / "big.npy"
    np.lib.format.open_memmap(path, mode="w+", dtype=float,
                              shape=(MAX_CUTOFF + 1, MAX_CUTOFF + 1)).flush()
    tracemalloc.start()
    try:
        assert run("verify", "--suite", "purity", "--states", f"file:{path}") == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20
    assert f"at most {MAX_CUTOFF}" in capsys.readouterr().err


def test_max_cutoff_bounds_every_family(tmp_path):
    # fock:N sizes its ladder N + 2; the vector alone is cheap at the bound
    [(_, psi)] = parse_states(f"fock:{MAX_CUTOFF - 2}", 7, False)
    assert psi.cutoff == MAX_CUTOFF
    path = tmp_path / "long.npy"
    np.save(path, np.ones(MAX_CUTOFF + 1))
    for spec in (f"fock:{MAX_CUTOFF - 1}", f"random:1:{MAX_CUTOFF + 1}", f"file:{path}"):
        with pytest.raises(ConfigError, match=f"at most {MAX_CUTOFF}"):
            parse_states(spec, 7, False)


@pytest.mark.parametrize("suite", ["inequalities", "qcs"])
def test_one_level_operator_file_passes(suite, tmp_path, capsys):
    path = tmp_path / "vacuum.npy"
    np.save(path, np.ones((1, 1), dtype=complex))
    assert run("verify", "--suite", suite, "--states", f"file:{path}") == 0


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3", "1.7e308:-1.7e308:3"])
def test_non_finite_grid_exits_two(capsys, grid):
    # the last grid's ends are finite, but stop - start overflows its step
    assert run("verify", "--states", "fock:1", "--grid", grid) == 2
    assert run("sweep", "--states", "fock:1", "--grid", grid) == 2
    for name in ("log-convexity", "dark-port-g2", "unfairness"):
        assert run("conjecture", "--name", name, "--states", "fock:1",
                   "--grid", grid) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["-1e300:1e300:3", "0:1.7976931348623157e308:4"])
def test_overflowing_purity_rows_fail_closed(grid, tmp_path, capsys):
    # P overflows at T = 1e300, and P(T) - P(1 - T) is inf - inf: the
    # symmetry row fails on NaN without a warning (an error under pytest).
    # The second grid is finite, although linspace overflows building it,
    # and 1 - 2T overflows at its end, so more rows fail on NaN there
    assert np.all(np.isfinite(parse_grid(grid)))
    rows = verify_rows(tmp_path, "--suite", "purity", "--states", "fock:1", f"--grid={grid}")
    failed = {r["check_name"]: r["margin"] for r in rows if r["pass"] == "false"}
    assert "purity_symmetry" in failed and set(failed.values()) == {"nan"}
    assert capsys.readouterr().out.strip().endswith(f" {len(failed)} failed")


def test_overflowing_scan_fails_closed(capsys):
    for name, grid, count in [
        # the purity polynomial overflows to inf - inf = NaN margins at these T
        ("log-convexity", "1e30:1e40:3", 3),
        # P overflows at the largest float, where the grid and its
        # refinement overflow inside linspace
        ("log-convexity", "0:1.7976931348623157e308:2", 1),
        # the tilt base 1 - 2T overflows the tilted moments to inf
        ("ell-log-convexity", "-1e12:-1e12:1", 1),
    ]:
        assert run("conjecture", "--name", name, "--states", "random:1",
                   f"--grid={grid}") == 1
        text = capsys.readouterr().out
        assert f"{name.replace('-', '_')}: violation" in text
        assert "min margin nan" in text
        assert text.strip().endswith(f"{count} failed")


def test_unfairness_grid_outside_witness_domain_exits_two(capsys):
    assert run("conjecture", "--name", "unfairness", "--states", "random:1",
               "--grid=-3:3:3") == 2
    assert "|lam| <= 1" in capsys.readouterr().err


def test_unfairness_domain_is_refused_before_any_dark_port_distribution(monkeypatch,
                                                                        capsys):
    calls = counting(monkeypatch, importlib.import_module("lossylab.cli"), "fair_pair")
    assert run("conjecture", "--name", "unfairness", "--states", "random:2",
               "--grid=-3:3:3") == 2
    assert calls == []


def test_dark_port_grid_below_zero_exits_two(capsys):
    # sqrt(1 - 2T) > 1 would amplify difference-port photons, off the scan's domain
    assert run("conjecture", "--name", "dark-port-g2", "--states", "random:1",
               "--grid=-1000:0.4:3") == 2
    assert "0 <= T <= 1/2" in capsys.readouterr().err


def test_dark_port_g2_rejects_an_indefinite_operator_file(tmp_path, capsys):
    # the scan needs a state; an operator let in by --allow-nonpositive is refused
    path = tmp_path / "indef.npy"
    np.save(path, np.diag([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]))
    (_, rho), = parse_states(f"file:{path}", 0, True)
    assert not rho.physical and rho.eigenvalues is None
    assert run("conjecture", "--name", "dark-port-g2", "--states", f"file:{path}",
               "--allow-nonpositive") == 2
    assert "physical=False" in capsys.readouterr().err


def test_allow_nonpositive_keeps_a_positive_operator_file_physical(tmp_path, capsys):
    path = tmp_path / "pos.npy"
    np.save(path, np.diag([0.25, 0.5, 0.25]))
    (_, rho), = parse_states(f"file:{path}", 0, True)
    assert rho.physical
    np.testing.assert_allclose(rho.eigenvalues, [0.25, 0.25, 0.5])
    assert run("conjecture", "--name", "dark-port-g2", "--states", f"file:{path}",
               "--allow-nonpositive") == 0


def test_indefinite_operator_file_fails_closed(tmp_path, capsys):
    # let in by --allow-nonpositive, the operator still fails the purity
    # battery: its dark-port coefficients go negative, and no flag loosens
    # the check's tolerance
    path = tmp_path / "indef.npy"
    np.save(path, np.diag([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0, 0.0]))
    out = tmp_path / "checks.csv"
    assert run("verify", "--suite", "purity", "--states", f"file:{path}",
               "--allow-nonpositive", "--out", str(out)) == 1
    with open(out, newline="") as fh:
        failed = [r["check_name"] for r in csv.DictReader(fh) if r["pass"] == "false"]
    assert failed == ["dark_coefficients"]


def test_file_state_loading(tmp_path, capsys):
    vec = np.zeros(4)
    vec[1] = 1.0
    path = tmp_path / "one.npy"
    np.save(path, vec)
    out = tmp_path / "file_sweep.csv"
    assert run("sweep", "--states", f"file:{path}", "--grid", "0:1:3",
               "--out", str(out)) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_t = {float(r[0]): r for r in rows}
    assert float(by_t[0.5][1]) == pytest.approx(0.5, abs=1e-12)

    # square matrices load as density operators
    mat = np.diag([0.25, 0.75]).astype(complex)
    mpath = tmp_path / "mixed.npy"
    np.save(mpath, mat)
    assert run("sweep", "--states", f"file:{mpath}", "--grid", "0:1:3",
               "--out", str(tmp_path / "m.csv")) == 0

    # an indefinite matrix needs the explicit escape hatch
    bad = np.diag([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0])
    bpath = tmp_path / "indef.npy"
    np.save(bpath, bad)
    assert run("conjecture", "--name", "log-convexity",
               "--states", f"file:{bpath}") == 2
    assert run("conjecture", "--name", "log-convexity",
               "--states", f"file:{bpath}", "--allow-nonpositive") == 0


@pytest.mark.parametrize("flags", [(), ("--allow-nonpositive",)])
def test_non_finite_operator_file_exits_two(tmp_path, capsys, flags):
    for name, mat in (("nan", [[np.nan, 0.0], [0.0, 1.0]]),
                      ("inf", [[1.0, 0.0], [0.0, np.inf]]),
                      ("vec", [np.nan, 1.0])):
        path = tmp_path / f"{name}.npy"
        np.save(path, np.array(mat, dtype=complex))
        assert run("verify", "--suite", "purity", "--states", f"file:{path}",
                   *flags) == 2
        assert "finite" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# sweep settings\nstates = fock:1\ngrid = 0:1:3\nseed = 3\n")
    out = tmp_path / "cfg_sweep.csv"
    assert run("sweep", "--config", str(cfg), "--out", str(out)) == 0
    assert len(out.read_text().splitlines()) == 4

    # explicit flags win over file values
    out2 = tmp_path / "cfg_sweep2.csv"
    assert run("sweep", "--config", str(cfg), "--grid", "0:1:5",
               "--out", str(out2)) == 0
    assert len(out2.read_text().splitlines()) == 6

    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    assert run("sweep", "--config", str(bad)) == 2

    # a key must be a flag of the chosen subcommand; sweep has no --s
    bad.write_text("s = 0.3\n")
    assert run("sweep", "--config", str(bad)) == 2
    assert "unknown config key 's'" in capsys.readouterr().err
    # each value is read by its flag's own type
    bad.write_text("seed = abc\n")
    assert run("sweep", "--config", str(bad)) == 2
    assert "bad value for config key 'seed'" in capsys.readouterr().err

    # a false switch leaves positivity checked
    path = tmp_path / "indef.npy"
    np.save(path, np.diag([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0, 0.0]))
    off = tmp_path / "off.cfg"
    off.write_text("allow_nonpositive = false\n")
    assert run("verify", "--suite", "purity", "--states", f"file:{path}",
               "--config", str(off)) == 2
    assert "operator file rejected" in capsys.readouterr().err


DETERMINISTIC_RUNS = [
    ("verify", "--states", "random:2", "--seed", "11", "--suite", "purity"),
    ("sweep", "--states", "random:1:8:3", "--seed", "11", "--grid", "0:1:41"),
    *[("conjecture", "--name", name, "--states", "random:3", "--seed", "11")
      for name in ("log-convexity", "ell-log-convexity", "unfairness",
                   "dark-port-g2")],
]


def test_deterministic_output(tmp_path, capsys):
    for i, argv in enumerate(DETERMINISTIC_RUNS):
        a = tmp_path / f"{i}a.csv"
        b = tmp_path / f"{i}b.csv"
        for path in (a, b):
            assert run(*argv, "--out", str(path)) == 0
        assert filecmp.cmp(a, b, shallow=False), argv
