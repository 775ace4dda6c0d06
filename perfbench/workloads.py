"""The three CLI workloads, generated from the workload seed.

Each op is one ``lossylab.cli.main(argv)`` call. The seed reaches the
program only through the CLI's own ``--seed`` flag, so the same seed gives
the same inputs. ``OUT`` in an argv is replaced by the op's CSV path.

Why these workloads:

* ``battery``: broad small-matrix traffic through every layer. ``verify``
  repeats the same T grid, so ``kraus_set`` hits its cache; the two sweeps
  use 401 distinct T each and evict it. The quadrature is 40:64 because the
  CLI default 80:128 takes about 86 s per pass.
* ``wigner-grid``: nearly all time is in ``quasi_prob``; the five cases
  cover its s <= 0 route (level series) and its s > 0 route (Gaussian
  form), so a kernel that speeds one route and slows the other shows. Each
  grid writes 81 x 81 = 6561 CSV rows.
* ``dark-port``: the two-mode engine at cutoffs 16 and 24 with no phase
  space; dense d^2 x d^2 beam-splitter products take most of the time and
  the dense matrices set peak RSS.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BATTERY_SUITES = ("purity", "qcs", "phasespace", "inequalities")
BATTERY_QUADRATURE = "40:64"
GRID_POINTS = 81
SWEEP_STEPS = 401

# Seed defects kept in the workloads on purpose. An op tagged with one of
# these ids may fail only in the recorded way; any other failure, and any
# failure of an untagged op, is an unexpected failure.
KNOWN_DEFECTS = {
    "gaussian-form-cancellation":
        "phasespace on fock:20 at s=0.3 exits 2 with an imaginary residue: "
        "the finite Gaussian-operator sum used for s > 0 cancels "
        "catastrophically at large photon number",
    "t-polynomial-expansion":
        "verify --suite purity fails purity_symmetry, purity_convexity and "
        "pure_min_at_half for random pure states at cutoff >= 12: "
        "PurityPolynomial.as_t_polynomial() expands (1-2T)^m into monomials "
        "and cancels catastrophically, while value() still matches the trace",
    "numpy-scalar-repr":
        "verify --suite inequalities writes the second_derivative_forms rhs as "
        "'np.float64(...)': the report is built with a NumPy scalar and the "
        "CSV writer renders it with repr, so the column is not a number",
}


@dataclass(frozen=True)
class Op:
    """One CLI call plus what its checker needs to know about it.

    ``states`` is the state spec and ``seed`` the seed the CLI expands it
    with; the checker rebuilds the same states to compute references.
    """

    name: str
    kind: str  # verify | sweep | phasespace | scan
    argv: tuple
    states: str
    seed: int
    params: dict = field(default_factory=dict)
    known_defect: str | None = None


def _verify(name, states, seed, suite, quadrature=None, known_defect=None):
    argv = ["verify", "--states", states, "--seed", str(seed), "--grid", "0:1:21",
            "--suite", suite]
    if quadrature:
        argv += ["--quadrature", quadrature]
    return Op(name, "verify", tuple(argv + ["--out", "OUT"]), states, seed,
              {"suite": suite}, known_defect)


def _sweep(name, states, seed):
    grid = f"0:1:{SWEEP_STEPS}"
    argv = ("sweep", "--states", states, "--seed", str(seed), "--grid", grid,
            "--out", "OUT")
    return Op(name, "sweep", argv, states, seed, {"steps": SWEEP_STEPS})


def _phasespace(name, states, seed, s, t=None, known_defect=None):
    argv = ["phasespace", "--state", states, "--seed", str(seed), "--s", repr(s),
            "--points", str(GRID_POINTS)]
    if t is not None:
        argv += ["--T", repr(t)]
    return Op(name, "phasespace", tuple(argv + ["--out", "OUT"]), states, seed,
              {"s": s, "T": t, "points": GRID_POINTS}, known_defect)


def _scan(name, conjecture, states, seed, grid=None):
    argv = ["conjecture", "--name", conjecture, "--states", states,
            "--seed", str(seed)]
    if grid:
        argv += ["--grid", grid]
    return Op(name, "scan", tuple(argv + ["--out", "OUT"]), states, seed,
              {"conjecture": conjecture})


def battery(seed: int) -> list[Op]:
    """verify on the default corpus (random:5) one (state, suite) per op,
    then two sweeps over 401 distinct T."""
    ops = []
    for i in range(5):
        # random:5 alternates pure (even index) and rank-3 mixed states with
        # seeds seed..seed+4; one-state specs with seed+i give the same states
        spec = "random:1:8:0" if i % 2 == 0 else "random:1:8:3"
        for suite in BATTERY_SUITES:
            defect = "numpy-scalar-repr" if suite == "inequalities" else None
            ops.append(_verify(f"verify-{suite}-{i}", spec, seed + i, suite,
                               quadrature=BATTERY_QUADRATURE, known_defect=defect))
    ops.append(_sweep("sweep-mixed8", "random:1:8:3", seed + 5))
    ops.append(_sweep("sweep-squeezed0.8", "squeezed:0.8", seed))
    return ops


def wigner_grid(seed: int) -> list[Op]:
    mixed = "random:1:8:3"
    return [
        _phasespace("lossy-fock1-s0", "fock:1", seed, 0.0, t=0.5),
        _phasespace("mixed8-s-0.5", mixed, seed, -0.5),
        _phasespace("mixed8-s-1", mixed, seed, -1.0),
        _phasespace("mixed8-s0.3", mixed, seed, 0.3),
        _phasespace("fock20-s0.3", "fock:20", seed, 0.3,
                    known_defect="gaussian-form-cancellation"),
    ]


def dark_port(seed: int) -> list[Op]:
    return [
        _scan("g2-cutoff16", "dark-port-g2", "random:2:16", seed, grid="0:0.5:6"),
        _scan("unfairness-cutoff16", "unfairness", "random:4:16", seed),
        _scan("unfairness-cutoff24", "unfairness", "random:1:24", seed),
        _verify("verify-purity-cutoff24", "random:4:24", seed, "purity",
                known_defect="t-polynomial-expansion"),
        _scan("log-convexity-cutoff8", "log-convexity", "random:20", seed),
    ]


OPS_BY_WORKLOAD = {"battery": battery, "wigner-grid": wigner_grid, "dark-port": dark_port}
WORKLOADS = tuple(OPS_BY_WORKLOAD)


def build_ops(workload: str, seed: int) -> list[Op]:
    return OPS_BY_WORKLOAD[workload](seed)
