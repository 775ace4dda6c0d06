"""lossylab benchmark: three CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 25 --trace 0

Run from the repository root. Each pass of a workload is a fresh child
process (``child.py``) with BLAS pinned to one thread, which sends the
workload's ops one at a time and checks each output before the next.
Passes repeat until ``--seconds`` have gone by, at least two of them, so
each output can be compared byte for byte across passes.

``--trace 0`` prints the end-to-end metrics (medians over passes),
``--trace 1`` the per-layer metrics of traced passes, alternated with
untraced ones. ``README.md`` defines every metric and the known defects.
The last line of stdout is the result JSON; the full run record and the
spans are kept under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUP_SAMPLES = 11
RUN_BUDGET_S = 160.0
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "ops_ok_ratio": "ratio", "checks_ok_ratio": "ratio"}

FUNCTION_METRICS = {
    "phasespace.quasi_prob": ("calls", "self_s"),
    "phasespace.char_fn": ("self_s",),
    "phasespace.overlap_from_quasi": ("self_s",),
    "phasespace.laplace_purity": ("self_s",),
    "phasespace.purity_from_chi": ("self_s",),
    "phasespace.purity_lossy_from_chi": ("self_s",),
    "phasespace.write_grid_csv": ("self_s",),
    "reports.write_check_csv": ("self_s",),
    "reports.write_scan_csv": ("self_s",),
    "fock.beam_splitter_unitary": ("calls", "self_s"),
    "purity.dark_port_distribution": ("calls", "self_s"),
    "purity.pair_dark_populations": ("calls", "self_s"),
    "conjectures.beamsplit_pair": ("calls", "self_s"),
    "conjectures.dark_port_state": ("self_s",),
    "fock.tensor": ("self_s",),
    "fock.partial_trace": ("self_s",),
    "loss.apply_loss": ("calls", "self_s"),
    "loss.kraus_set": ("self_s",),
    "qcs.qcs_commutator": ("self_s",),
    "qcs.qcs_two_copy": ("self_s",),
    "qcs.qcs_purity_rate": ("self_s",),
    "qcs.qcs_lindblad": ("self_s",),
    "fock.construct": ("calls", "self_s"),
    "cli.parse_states": ("self_s",),
}


class BenchmarkError(Exception):
    pass


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def run_child(workload, seed, work: Path, tag: str, deadline: float, trace=False,
              setup_only=False) -> dict:
    record = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work / tag), "--record", str(record),
           "--trace", "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **PINNED_THREADS)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{tag}: child exceeded the run budget") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not record.is_file():
        raise BenchmarkError(f"{tag}: child exited {proc.returncode}")
    return json.loads(record.read_text())


def run_passes(workload, seed, seconds, trace, work: Path):
    deadline = time.monotonic() + RUN_BUDGET_S
    start = time.monotonic()
    passes = []
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        t0 = time.monotonic()
        rec = run_child(workload, seed, work, f"pass{len(passes)}", deadline, trace=traced)
        rec["traced"] = traced
        passes.append(rec)
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now - start >= seconds:
            break
        if now + (now - t0) > deadline - 10.0:
            if len(passes) < MIN_PASSES:
                raise BenchmarkError("a pass takes too long for two to fit the run budget")
            break
    setups = [p["setup_s"] for p in passes]
    while not trace and len(setups) < SETUP_SAMPLES:
        rec = run_child(workload, seed, work, f"setup{len(setups)}", deadline,
                        setup_only=True)
        setups.append(rec["setup_s"])
    return passes, setups


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def judge(passes):
    """attempted, failed, correct, and per-op status lines. An op whose CSV
    differs from the same op's CSV in the first pass fails in that pass."""
    attempted = failed = 0
    lines = []
    first = passes[0]["ops"]
    for p in passes:
        for i, op in enumerate(p["ops"]):
            attempted += 1
            if op["digest"] != first[i]["digest"]:
                op["status"] = "failed"
                op["reason"] = f"output differs from pass 0 ({op['digest']} vs {first[i]['digest']})"
            if op["status"] == "failed":
                failed += 1
    for i, op in enumerate(first):
        statuses = sorted({p["ops"][i]["status"] for p in passes})
        median_s = statistics.median(p["ops"][i]["op_s"] for p in passes)
        reasons = {p["ops"][i]["reason"] for p in passes if p["ops"][i]["reason"]}
        line = f"op {op['op']}: {'/'.join(statuses)}, {median_s:.3f} s"
        if reasons:
            line += " -- " + "; ".join(sorted(reasons))[:300]
        lines.append(line)
    return attempted, failed, failed == 0, lines


def end_to_end(passes, setups) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    rows = sum(op["check_rows"] for op in ops)
    rows_failed = sum(op["check_rows_failed"] for op in ops)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "ops_ok_ratio": sum(op["status"] == "ok" for op in ops) / len(ops),
        "checks_ok_ratio": (rows - rows_failed) / rows if rows else 0.0,
    }


def layer_metrics(summary: dict, wall_s: float, absent: set) -> dict:
    """Per-layer metrics of one traced pass from the child's span summary.
    Functions the package no longer has count as 0 and land in ``absent``."""
    functions, counters = summary["functions"], summary["counters"]

    def fn(name, key):
        if name not in functions:
            absent.add(name)
        return functions.get(name, {}).get(key, 0)

    def counter(name, key):
        return counters.get(name, {}).get(key, 0)

    out = {}
    for name, keys in FUNCTION_METRICS.items():
        for key in keys:
            out[f"{name}.{key}"] = fn(name, key)
    points = counter("phasespace.quasi_prob", "points")
    out["phasespace.quasi_prob.points"] = points
    out["phasespace.quasi_prob.s_per_point"] = (
        fn("phasespace.quasi_prob", "self_s") / points if points else 0.0)
    out["phasespace.char_fn.points"] = counter("phasespace.char_fn", "points")
    out["phasespace.write_grid_csv.bytes"] = counter("phasespace.write_grid_csv", "bytes")
    out["reports.bytes"] = counter("reports.bytes", "bytes")
    for name in ("fock.beam_splitter_unitary", "loss.kraus_set"):
        hits, misses = counter(name, "hits"), counter(name, "misses")
        out[f"{name}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["fock.beam_splitter_unitary.bytes_computed"] = counter(
        "fock.beam_splitter_unitary", "bytes_computed")
    calls = fn("conjectures.beamsplit_pair", "calls")
    out["conjectures.beamsplit_pair.distinct_ratio"] = (
        summary["distinct"].get("conjectures.beamsplit_pair", 0) / calls if calls else 0.0)
    out["purity.entropy.self_s"] = (fn("purity.von_neumann", "self_s")
                                    + fn("purity.renyi_entropy", "self_s"))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in functions.items()
                                     if k.startswith(layer + "."))
    out["trace.spans"] = summary["spans"]
    out["trace.overhead_s"] = summary["overhead_s"]
    out["trace.attributed_ratio"] = summary["root_s"] / wall_s
    return out


def per_layer(passes) -> tuple[dict, list]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    absent = set()
    per_pass = [layer_metrics(p["trace"], p["wall_s"], absent) for p in traced]
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.wall_delta_s"] = (statistics.median(p["wall_s"] for p in traced)
                                     - statistics.median(p["wall_s"] for p in plain))
    summary = traced[-1]["trace"]
    top = sorted(summary["functions"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
    notes = [f"self time {name}: {v['self_s']:.3f} s over {v['calls']} calls"
             for name, v in top]
    if absent:
        notes.append("absent (reported as 0): " + ", ".join(sorted(absent)))
    if summary["cache_less"]:
        notes.append("no cache (hit ratio reported as 0): " + ", ".join(summary["cache_less"]))
    return metrics, notes


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    return {"self_s": "s", "s_per_point": "s", "overhead_s": "s", "wall_delta_s": "s",
            "bytes": "bytes", "bytes_computed": "B_computed", "hit_ratio": "ratio",
            "distinct_ratio": "ratio", "attributed_ratio": "ratio"}.get(suffix, "count")


def machine_facts(passes) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            **passes[0]["versions"], "pinned": PINNED_THREADS}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lossylab" / "cli.py").is_file():
        print(f"error: no lossylab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, args.trace, work)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, correct, lines = judge(passes)
    if args.trace:
        metrics, notes = per_layer(passes)
    else:
        metrics, notes = end_to_end(passes, setups), []

    facts = machine_facts(passes)
    print("machine: " + json.dumps(facts))
    csv_rows = sum(op["csv_rows"] for op in passes[0]["ops"])
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(passes[0]['ops'])} ops writing {csv_rows} CSV rows each, "
          f"{len(setups)} set-ups")
    for line in lines + notes:
        print(line)
    for defect in sorted({op["reason"] for p in passes for op in p["ops"]
                          if op["status"] == "known-defect"}):
        print(f"known defect reproduced: {defect}: {KNOWN_DEFECTS[defect]}")
    (work / "record.json").write_text(json.dumps(
        {"args": vars(args), "machine": facts, "passes": passes, "setups": setups,
         "metrics": metrics}, indent=1))
    for csv_file in work.glob("*/*.csv"):
        csv_file.unlink()
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
