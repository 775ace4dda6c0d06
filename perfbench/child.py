"""One fresh process: set up, then (unless --setup-only) run one pass of a
workload as a closed-loop client, one ``lossylab.cli.main(argv)`` call at a
time, checking each op's output before issuing the next.

Run by ``run.py``, which pins BLAS to one thread in the environment and
reads the JSON record this writes to ``--record``.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import numpy  # noqa: E402,F401
import scipy  # noqa: E402,F401
from lossylab import cli  # noqa: E402

from workloads import build_ops  # noqa: E402


def build_inputs(workload: str, seed: int):
    """The op list and, per op, the states its checker needs, expanded by
    the CLI's own parser with the op's seed."""
    ops = build_ops(workload, seed)
    states = [cli.parse_states(op.states, op.seed, False) for op in ops]
    return ops, states


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class CheckContext:
    """What the checkers call: the library's independent routes, bound
    before the tracer is installed so checks leave no spans, and the
    displaced-sum reference."""

    def __init__(self):
        from checks import DisplacedSum
        from lossylab.fock import DensityOperator
        from lossylab.phasespace import wigner_from_parity
        from lossylab.purity import purity_polynomial
        self.density_operator = lambda m: DensityOperator(m, m.shape[0])
        self.as_density = lambda st: st.density() if hasattr(st, "amplitudes") else st
        self.wigner_from_parity = wigner_from_parity
        self.purity_polynomial = purity_polynomial
        self.displaced_sum = DisplacedSum()


def blas_threads():
    """Threads OpenBLAS reports for this process, or None if unreadable."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def versions() -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def run_pass(ops, states, ctx, work: Path, tracer) -> tuple[list, float, float]:
    from checks import evaluate
    main = sys.modules["lossylab.cli"].main  # the traced wrapper when tracing
    records = []
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    for i, (op, op_states) in enumerate(zip(ops, states)):
        out_path = work / f"{i:02d}-{op.name}.csv"
        argv = [str(out_path) if a == "OUT" else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        t0 = time.perf_counter()
        if tracer:
            tracer.op_id, tracer.active = i, True
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        finally:
            if tracer:
                tracer.active = False
        op_s = time.perf_counter() - t0
        record = evaluate(op, rc, err.getvalue(), out_path, op_states, ctx, error)
        record["op_s"] = op_s
        record["check_s"] = time.perf_counter() - t0 - op_s
        records.append(record)
    return records, time.perf_counter() - wall0, _cpu_s() - cpu0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops, states = build_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - SETUP_START
    record = {"setup_s": setup_s, "versions": versions()}
    if not args.setup_only:
        work = Path(args.work)
        work.mkdir(parents=True, exist_ok=True)
        ctx = CheckContext()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        ops_records, wall_s, cpu_s = run_pass(ops, states, ctx, work, tracer)
        record.update(ops=ops_records, wall_s=wall_s, cpu_s=cpu_s)
        if tracer:
            record["trace"] = tracer.summary()
            tracer.write_spans(work / "spans.tsv")
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.record).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
