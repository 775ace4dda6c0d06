"""Command-line interface: exit codes, CSV formats, config handling."""

import csv
import filecmp
import importlib

import numpy as np
import pytest

from lossylab.cli import main, parse_states


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


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
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
    calls = counting(monkeypatch, np.linalg, "eigvalsh")
    parse_states("random:1:8:3", 4, False)
    setup = len(calls)  # building the input state
    calls.clear()
    assert run("sweep", "--states", "random:1:8:3", "--seed", "4",
               "--grid", "0:1:9") == 0
    assert len(calls) == setup + 9


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


def test_sweep_rejects_multiple_states():
    assert run("sweep", "--states", "fock:0,fock:1") == 2


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
    assert run("conjecture", "--name", "unfairness", "--phi", "separable-01") == 1
    assert run("conjecture", "--name", "unfairness", "--phi", "no-such-pair") == 2


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


def test_malformed_arguments_exit_two(capsys):
    assert run("sweep", "--states", "fock:1", "--grid", "0:1") == 2
    assert run("sweep", "--states", "fock:1", "--grid", "0:1:0") == 2
    assert run("verify", "--states", "unknown:3") == 2
    assert run("verify", "--states", "fock:abc") == 2
    with pytest.raises(SystemExit) as info:
        run("no-such-command")
    assert info.value.code == 2


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3"])
def test_non_finite_grid_exits_two(capsys, grid):
    assert run("verify", "--states", "fock:1", "--grid", grid) == 2
    assert run("sweep", "--states", "fock:1", "--grid", grid) == 2
    for name in ("log-convexity", "dark-port-g2", "unfairness"):
        assert run("conjecture", "--name", name, "--states", "fock:1",
                   "--grid", grid) == 2
    assert "finite" in capsys.readouterr().err


def test_overflowing_scan_fails_closed(capsys):
    for name, grid, count in [
        # the purity polynomial overflows to inf - inf = NaN margins at these T
        ("log-convexity", "1e30:1e40:3", 3),
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


def test_dark_port_grid_below_zero_exits_two(capsys):
    # sqrt(1 - 2T) > 1 would amplify difference-port photons, off the scan's domain
    assert run("conjecture", "--name", "dark-port-g2", "--states", "random:1",
               "--grid=-1000:0.4:3") == 2
    assert "0 <= T <= 1/2" in capsys.readouterr().err


def test_dark_port_g2_rejects_an_indefinite_operator_file(tmp_path, capsys):
    # the scan needs a state; an operator let in by --allow-nonpositive is refused
    path = tmp_path / "indef.npy"
    np.save(path, np.diag([2.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]))
    assert run("conjecture", "--name", "dark-port-g2", "--states", f"file:{path}",
               "--allow-nonpositive") == 2
    assert "physical=False" in capsys.readouterr().err


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


def test_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        assert run("verify", "--states", "random:2", "--seed", "11",
                   "--suite", "purity", "--out", str(path)) == 0
    assert filecmp.cmp(a, b, shallow=False)
