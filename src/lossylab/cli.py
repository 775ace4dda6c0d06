"""Batch command line front end.

Four subcommands: ``verify`` runs named check batteries and writes a check
CSV, ``sweep`` tabulates purity, entropies, coherence scale, and mean
photon number against transmissivity, ``phasespace`` exports a
quasiprobability grid, and ``conjecture`` runs the conjecture scans.
Each subcommand takes only the flags it reads, and declares each default
on its flag; the one exception is that a ``verify`` suite that does not
read ``--grid`` or ``--quadrature`` ignores it, so one command line runs
any suite. ``conjecture --phi`` scans a named pair and refuses the state
flags. A ``--config`` file's key=value pairs become the chosen
subcommand's defaults, so explicit flags win and an unknown key is a
configuration error. A check or scan row passes when its margin is
>= -tolerance, so a NaN margin fails; each tolerance is fixed by its check,
and no flag changes it.
Exit status is 0 for success with no violations, 1 when any check or scan
reports a violation or a scan has no rows, and 2 on configuration errors
(including non-finite state entries or parameters). Identical
configuration and seed produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import math
import re
import sys

import numpy as np

from .conjectures import (bell_like_pair, dark_port_g2_scan,
                          ell_log_convexity_corpus, fair_pair,
                          log_convexity_corpus, separable_01_pair,
                          twin_photon_pair, unfairness_scan)
from .fock import (DensityOperator, PureState, make_coherent, make_fock,
                   make_squeezed_vacuum, random_mixed, random_pure)
from .inequalities import (bernstein_check, cauchy_schwarz_ladder,
                           ladder_loss_inequality, number_purity_monotonicity,
                           pure_number_ratio_inequality, pure_second_order_inequality,
                           second_derivative_forms, second_derivative_sign,
                           transpose_trick_identity)
from .loss import apply_loss, loss_blocks
from .phasespace import (GridSpec, Quadrature2D, default_grid, exact_rule, laplace_purity,
                         overlap_from_quasi, quasi_prob_grid, write_grid_csv)
from .purity import StateRecord, purities, purity, renyi_entropy, von_neumann
from .qcs import (commutator_norms, qcs_commutator, qcs_lindblad,
                  qcs_purity_rate, qcs_two_copy)
from .reports import check_report, write_check_csv, write_scan_csv

DEFAULT_CUTOFF = 8
DEFAULT_RANK = 3
# the largest ladder a state spec may ask for: one dense c x c complex matrix
# is then 64 MiB, and a whole spec's states together hold at most that many
# matrix entries
MAX_CUTOFF = 2 ** 11
# the most points a grid may ask for; the largest grid in use has 401
MAX_GRID_STEPS = 2 ** 16
# the most points per axis a phasespace grid may ask for: its n x n complex
# points are then 64 MiB; the largest grid in use has 201
MAX_GRID_POINTS = 2 ** 11
# the most radial nodes a quadrature may ask for: the rule's Jacobi matrix is
# then 8 MiB
MAX_RADIAL_NODES = 2 ** 10
# the most nodes a quadrature may ask for in all, radial times angular: each
# complex array over them is then 4 MiB; the exact rule (c, 2c - 1) of a
# state on c levels fits for c <= 362
MAX_QUADRATURE_NODES = 2 ** 18
CONJECTURES = ("log-convexity", "ell-log-convexity", "unfairness", "dark-port-g2")
PAIR_BUILDERS = {
    "bell-like": bell_like_pair,
    "separable-01": separable_01_pair,
    "twin-photon": twin_photon_pair,
}
# the state flags conjecture --phi reads none of, each with a default other
# than its flag's
PHI_UNREAD = {"states": "", "seed": "-1", "allow_nonpositive": "1"}


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be start:stop:steps, got {spec!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad grid {spec!r}: {exc}") from None
    if not (np.isfinite(start) and np.isfinite(stop)):
        raise ConfigError(f"grid {spec!r} needs a finite start and stop")
    if not 1 <= steps <= MAX_GRID_STEPS:
        raise ConfigError(f"grid needs 1 to {MAX_GRID_STEPS} steps, got {steps}")
    return np.linspace(start, stop, steps)


def parse_quadrature(spec: str) -> Quadrature2D:
    try:
        radial, angular = map(int, spec.split(":"))
    except ValueError:
        raise ConfigError(f"quadrature must be radial:angular integers, got {spec!r}") from None
    return _within_node_budget(Quadrature2D(radial, angular), "quadrature")


def _within_node_budget(quad: Quadrature2D, context: str) -> Quadrature2D:
    """quad, refused before any node is built unless within the node budget."""
    radial, angular = quad.n_radial, quad.n_angular
    if not 1 <= radial <= MAX_RADIAL_NODES:
        raise ConfigError(f"{context} needs 1 to {MAX_RADIAL_NODES} radial nodes, got {radial}")
    if angular < 1:
        raise ConfigError(f"{context} needs at least 1 angular node, got {angular}")
    if radial * angular > MAX_QUADRATURE_NODES:
        raise ConfigError(f"{context} needs at most {MAX_QUADRATURE_NODES} nodes in all, "
                          f"got {radial} x {angular}")
    return quad


def _read_operator_file(path: str) -> np.ndarray:
    """The vector or square matrix saved at path, as complex entries. The
    file is mapped, not read, until its shape is checked against the
    budget, so an oversized file is refused before its data is in memory."""
    try:
        mapped = np.load(path, mmap_mode="r")
    except OSError as exc:
        raise ConfigError(f"cannot read operator file {path!r}: {exc}") from None
    shape = getattr(mapped, "shape", ())
    if len(shape) not in (1, 2) or shape[0] != shape[-1]:
        raise ConfigError("operator file must hold a vector or a square matrix")
    _within_budget(shape[0], f"file:{path}")
    return np.array(mapped, dtype=complex)


def _file_operator(mat: np.ndarray, allow_nonpositive: bool) -> PureState | DensityOperator:
    """The state of a file's vector or matrix; a vector is a pure state."""
    if mat.ndim == 1:
        return PureState(mat, mat.size)
    try:
        return DensityOperator(mat, mat.shape[0])
    except ValueError as exc:
        if not allow_nonpositive:
            raise ConfigError(f"operator file rejected: {exc}") from None
    # only a matrix that fails the positivity check is let in unphysical;
    # a non-finite, non-Hermitian or off-trace one fails again here
    try:
        return DensityOperator(mat, mat.shape[0], physical=False)
    except ValueError as exc:
        raise ConfigError(f"operator file rejected: {exc}") from None


def parse_states(spec: str, seed: int, allow_nonpositive: bool):
    """Expand a comma-separated state family spec into (state_id, state)
    pairs. Pure families keep their PureState form so pure-only checks can
    fire; random mixtures come back as DensityOperator. The spec is sized
    before any state is built, and refused when its states together need
    more than MAX_CUTOFF^2 matrix entries."""
    builds, entries = [], 0
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        need, build = _family(item, seed, allow_nonpositive)
        entries += need
        if entries > MAX_CUTOFF ** 2:
            raise ConfigError(f"the states of {spec!r} need at least {entries} matrix "
                              f"entries together; at most {MAX_CUTOFF ** 2} are allowed")
        builds.append(build)
    if not builds:
        raise ConfigError("no states specified")
    return [pair for build in builds for pair in build()]


def _family(item: str, seed: int, allow_nonpositive: bool):
    """(matrix entries, build) of one family spec: the entries its states
    need as density matrices, and a call that builds its (state_id, state)
    pairs."""
    head, sep, tail = item.partition(":")
    if head == "fock":
        n = _as_number(int, tail, item)
        cutoff = _within_budget(max(n + 2, 4), item)
        return cutoff ** 2, lambda: [(item, make_fock(n, cutoff))]
    if head == "coherent":
        alpha = _as_number(complex, tail, item)
        cutoff = _ladder_size(lambda: abs(alpha) ** 2 + 9.0 * abs(alpha) + 8.0, 8, item)
        return cutoff ** 2, lambda: [(item, make_coherent(alpha, cutoff))]
    if head == "squeezed":
        r = _as_number(float, tail, item)
        cutoff = _ladder_size(lambda: 16.0 * np.sinh(abs(r)) ** 2 + 12.0, 12, item)
        return cutoff ** 2, lambda: [(item, make_squeezed_vacuum(r, cutoff))]
    if head == "random":
        parts = tail.split(":") if tail else ["1"]
        count = _as_number(int, parts[0], item)
        if count < 1:
            raise ConfigError(f"{item!r} needs a COUNT of at least 1")
        cutoff = _as_number(int, parts[1], item) if len(parts) > 1 else DEFAULT_CUTOFF
        _within_budget(cutoff, item)
        rank = _as_number(int, parts[2], item) if len(parts) > 2 else None
        return count * cutoff ** 2, lambda: _random_family(seed, count, cutoff, rank)
    if head == "file":
        if not sep:
            raise ConfigError("file spec needs a path, file:PATH")
        mat = _read_operator_file(tail)
        return mat.shape[0] ** 2, lambda: [(item, _file_operator(mat, allow_nonpositive))]
    raise ConfigError(f"unknown state family {item!r}")


def _random_family(seed: int, count: int, cutoff: int, rank) -> list:
    """count random states seeded seed, seed + 1, ...: pure for rank 0, and
    at every even index when no rank is given; mixed of the rank (or
    DEFAULT_RANK) otherwise."""
    out = []
    for i in range(count):
        s = seed + i
        if rank == 0 or (rank is None and i % 2 == 0):
            out.append((f"random-pure:{s}", random_pure(s, cutoff)))
        else:
            out.append((f"random-mixed:{s}", random_mixed(s, cutoff, rank or DEFAULT_RANK)))
    return out


def _as_number(kind, text: str, context: str):
    """text read as kind (int, float or complex); a float or complex must be
    finite."""
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"bad {kind.__name__} in {context!r}") from None
    if kind is not int and not cmath.isfinite(value):
        raise ConfigError(f"non-finite number in {context!r}")
    return value


def _ladder_size(levels, floor: int, context: str) -> int:
    """ceil(levels()), at least floor: the cutoff a state family sizes from
    its parameter. A parameter too large for the sizing rule to evaluate is
    a configuration error."""
    try:
        with np.errstate(over="raise"):
            size = max(math.ceil(levels()), floor)
    except (OverflowError, FloatingPointError):
        raise ConfigError(f"{context!r} is too large to size a ladder for") from None
    return _within_budget(size, context)


def _within_budget(cutoff: int, context: str) -> int:
    """cutoff, refused before anything is built when above MAX_CUTOFF."""
    if cutoff > MAX_CUTOFF:
        raise ConfigError(f"{context!r} needs {cutoff} ladder levels; "
                          f"at most {MAX_CUTOFF} are allowed")
    return cutoff


def read_config_file(path: str) -> dict:
    """Plain key=value lines; blank lines and # comments ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    return values


def _density(state) -> DensityOperator:
    return state.density() if isinstance(state, PureState) else state


# ---------------------------------------------------------------------------
# verify batteries
# ---------------------------------------------------------------------------


def _purity_suite(record, t_grid, quad):
    # evaluated in the lambda = 1 - 2T basis: expanding (1 - 2T)^m into
    # monomials in T cancels catastrophically at large cutoff
    poly, pure, sid = record.poly, record.pure, record.state_id
    values = poly.value(t_grid)
    yield check_report("dark_coefficients", sid, {}, 0.0, float(np.min(poly.coefficients)))
    # convexity holds everywhere for pure inputs but is only guaranteed up
    # to half transmissivity for mixed ones
    convex_grid = t_grid if pure else t_grid[t_grid <= 0.5]
    if convex_grid.size:
        yield check_report("purity_convexity", sid, {}, 0.0,
                           float(np.min(poly.derivative(convex_grid, 2))))
    if pure:
        mirrored = poly.value(1.0 - t_grid)
        yield check_report("purity_symmetry", sid, {},
                           float(np.max(np.abs(values - mirrored))), 0.0)
    t_match = [t for t in (float(t_grid[0]), float(t_grid[t_grid.size // 2]),
                           float(t_grid[-1])) if 0.0 <= t <= 1.0]
    for t, rho_t in zip(t_match, record.lossy(t_match)):
        yield check_report("lossy_trace_match", sid, {"T": t}, poly.value(t), purity(rho_t))
    if pure:
        yield check_report("pure_min_at_half", sid, {}, poly.value(0.5), float(np.min(values)))


def _qcs_suite(record, t_grid, quad):
    sid = record.state_id
    t_lossy = [float(t) for t in t_grid if 0.0 < t <= 1.0]
    for t, rho_t in zip(t_lossy, record.lossy_path(t_lossy)):
        values = [qcs_commutator(rho_t).c_squared,
                  qcs_two_copy(rho_t).c_squared,
                  qcs_lindblad(rho_t).c_squared,
                  qcs_purity_rate(record.poly, t).c_squared]
        yield check_report("qcs_routes_agree", sid, {"T": t}, max(values) - min(values), 0.0)
        if record.pure and abs(t - 0.5) < 1e-12:
            yield check_report("qcs_balanced_pure", sid, {"T": t}, values[0], 1.0)
        if t <= 0.5:
            yield check_report("qcs_half_loss_bound", sid, {"T": t}, values[0], 1.0)


def _phasespace_suite(record, t_grid, quad):
    rho1, sid = record.rho1, record.state_id
    exact = purity(rho1)
    yield check_report("purity_route_chi", sid, {}, laplace_purity(rho1, 1.0, quad), exact)
    yield check_report("purity_route_quasi", sid, {"s": 0.0},
                       overlap_from_quasi(rho1, rho1, 0.0, quad), exact)
    t_lossy = (0.25, 0.6)
    for t, rho_t in zip(t_lossy, record.lossy(t_lossy)):
        yield check_report("purity_route_lossy_chi", sid, {"T": t},
                           laplace_purity(rho1, t, quad), purity(rho_t))


def _inequality_suite(record, t_grid, quad):
    yield cauchy_schwarz_ladder(record)
    yield bernstein_check(record)
    yield number_purity_monotonicity(record, np.linspace(0.05, 1.0, 20))
    yield ladder_loss_inequality(record, 0.3)
    yield second_derivative_forms(record, 0.3)
    yield second_derivative_sign(record, 0.3)
    if record.pure:
        yield transpose_trick_identity(record, 0.3)
        yield pure_number_ratio_inequality(record, 0.3)
        yield pure_second_order_inequality(record)


# each suite takes one state's StateRecord, which derives rho1, P and rho_T
# once for all suites, and the shared t_grid and quad; it yields finished
# reports, each of the kind, tolerance and claim of its reports.CHECKS row
BATTERIES = {
    "purity": _purity_suite,
    "qcs": _qcs_suite,
    "phasespace": _phasespace_suite,
    "inequalities": _inequality_suite,
}


def cmd_verify(args) -> int:
    states = parse_states(args.states, args.seed, args.allow_nonpositive)
    t_grid = parse_grid(args.grid)
    quad = None if args.quadrature is None else parse_quadrature(args.quadrature)
    suites = BATTERIES.values() if args.suite == "all" else [BATTERIES[args.suite]]
    if _phasespace_suite in suites and quad is None:
        # the phasespace suite sizes each state's rule: bounded before any check runs
        for state_id, state in states:
            _within_node_budget(exact_rule(state), f"the phasespace suite cannot run on "
                                f"{state_id!r}, but --suite purity|qcs|inequalities can: "
                                "its exact quadrature")
    reports = []
    for state_id, state in states:
        record = StateRecord(state_id, state)
        # the other suites keep the lossy states of their fixed T, and the
        # qcs suite streams the grid through them, so it runs last; the rows
        # stay in suite order
        by_suite = {suite: list(suite(record, t_grid, quad))
                    for suite in sorted(suites, key=lambda suite: suite is _qcs_suite)}
        reports += [report for suite in suites for report in by_suite[suite]]
    if args.out:
        write_check_csv(args.out, reports)
    failed = sum(1 for r in reports if not r.passed)
    print(f"checks: {len(reports)} run, {len(reports) - failed} passed, "
          f"{failed} failed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


SWEEP_COLUMNS = ["T", "purity", "h1", "h2", "c_squared", "mean_n"]


def cmd_sweep(args) -> int:
    states = parse_states(args.states, args.seed, args.allow_nonpositive)
    if len(states) != 1:
        raise ConfigError("sweep expects exactly one state")
    _, state = states[0]
    rho1 = _density(state)
    t_grid = parse_grid(args.grid)
    if not np.all((t_grid >= 0.0) & (t_grid <= 1.0)):
        raise ConfigError(f"sweep grid must lie in [0, 1], got {args.grid!r}")
    rows = []
    # purity and C^2 per block of T; the entropies and <N> per row
    for matrices, states in loss_blocks(rho1, t_grid):
        pur = purities(matrices)
        c_squared = commutator_norms(matrices) / pur
        for rho_t, p, c2 in zip(states, pur, c_squared):
            pops = np.diag(rho_t.matrix).real
            mean_n = float(pops @ np.arange(pops.size))
            rows.append([repr(float(t_grid[len(rows)])),
                         repr(float(p)),
                         repr(von_neumann(rho_t)),
                         repr(renyi_entropy(rho_t, 2)),
                         repr(float(c2)),
                         repr(mean_n)])
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SWEEP_COLUMNS)
            writer.writerows(rows)
    print(f"checks: {len(rows)} run, {len(rows)} passed, 0 failed")
    return 0


# ---------------------------------------------------------------------------
# phasespace
# ---------------------------------------------------------------------------


def cmd_phasespace(args) -> int:
    t = args.transmissivity
    if t is not None and not 0.0 <= t <= 1.0:
        raise ConfigError(f"--T must lie in [0, 1], got {t!r}")
    if args.points is not None and args.points > MAX_GRID_POINTS:
        raise ConfigError(f"phasespace grid needs at most {MAX_GRID_POINTS} points per axis, "
                          f"got {args.points}")
    states = parse_states(args.states, args.seed, args.allow_nonpositive)
    if len(states) != 1:
        raise ConfigError("phasespace expects exactly one state")
    state_id, state = states[0]
    rho1 = _density(state)
    rho = apply_loss(rho1, t) if t is not None else rho1
    spec = default_grid(rho)
    grid = GridSpec(spec.half_width if args.half_width is None else args.half_width,
                    spec.n if args.points is None else args.points)
    qgrid = quasi_prob_grid(rho, args.s, grid)
    if not np.all(np.isfinite(qgrid.values)):
        print("grid evaluation produced non-finite values", file=sys.stderr)
        return 1
    if args.out:
        write_grid_csv(args.out, qgrid, state_id, transmissivity=t)
    print(f"checks: 1 run, 1 passed, 0 failed "
          f"(min {qgrid.min_value():.6g}, integral {qgrid.integral():.6g})")
    return 0


# ---------------------------------------------------------------------------
# conjecture scans
# ---------------------------------------------------------------------------


def cmd_conjecture(args) -> int:
    if args.phi is not None and args.name != "unfairness":
        raise ConfigError("--phi applies only to --name unfairness")
    default_grid = "-1:1:21" if args.name == "unfairness" else "0:1:21"
    grid = parse_grid(default_grid if args.grid is None else args.grid)
    if args.name == "unfairness":
        if args.phi is not None:
            if args.phi not in PAIR_BUILDERS:
                raise ConfigError(
                    f"unknown pair {args.phi!r}; choose from "
                    f"{', '.join(sorted(PAIR_BUILDERS))}")
            pairs = [(args.phi, PAIR_BUILDERS[args.phi]())]
        else:
            states = parse_states(args.states, args.seed, args.allow_nonpositive)
            # lazy, so the scan refuses a grid outside its domain before any q is built
            pairs = ((sid, fair_pair(_density(st))) for sid, st in states)
        result = unfairness_scan(pairs, grid)
    else:
        states = [(sid, _density(st)) for sid, st in
                  parse_states(args.states, args.seed, args.allow_nonpositive)]
        if args.name == "log-convexity":
            result = log_convexity_corpus(states, grid)
        elif args.name == "ell-log-convexity":
            capped = grid[grid < 0.5]
            if capped.size == 0:
                raise ConfigError("ell-log-convexity needs grid points below 1/2")
            result = ell_log_convexity_corpus(states, capped)
        else:
            capped = grid[grid <= 0.5]
            if capped.size == 0:
                raise ConfigError("dark-port-g2 needs grid points at or below 1/2")
            result = dark_port_g2_scan(states, capped)
    if args.out:
        write_scan_csv(args.out, [result])
    total = len(result.rows)
    print(f"{result.conjecture}: {result.disposition} over {result.corpus}, "
          f"grid {result.grid}, min margin {result.min_margin:.6g}")
    print(f"checks: {total} run, {total - result.failed} passed, {result.failed} failed")
    return 1 if result.disposition in ("violation", "empty") else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The lossylab parser. config maps a subcommand to the key=value pairs
    of a config file, which become that subcommand's defaults."""
    parser = argparse.ArgumentParser(
        prog="lossylab",
        description="verification batteries for loss-channel identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, help, run):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--states", "--state", dest="states", default="random:5",
                       help="comma-separated families: fock:N, coherent:A, "
                            "squeezed:R, random:COUNT[:CUTOFF[:RANK]], file:PATH")
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--out", help="CSV output path")
        p.add_argument("--allow-nonpositive", action="store_true",
                       help="accept indefinite trace-one operator files")
        p.add_argument("--config",
                       help="key=value file of this subcommand's flags; "
                            "explicit flags win")
        return p

    p_verify = subcommand("verify", "run a named check battery", cmd_verify)
    p_verify.add_argument("--suite", choices=[*BATTERIES, "all"], default="all")
    p_verify.add_argument("--grid", default="0:1:21",
                          help="start:stop:steps, read by the purity and qcs suites")
    p_verify.add_argument("--quadrature", metavar="R:THETA",
                          help="radial:angular quadrature sizes, read by the phasespace "
                               "suite (default: C:2C-1 for a state on C levels, exact)")

    p_sweep = subcommand("sweep", "tabulate observables against T", cmd_sweep)
    p_sweep.add_argument("--grid", default="0:1:21", help="start:stop:steps")

    p_phase = subcommand("phasespace", "export a quasiprobability grid",
                         cmd_phasespace)
    p_phase.add_argument("--s", type=float, default=0.0,
                         help="quasiprobability order")
    p_phase.add_argument("--T", dest="transmissivity", type=float)
    p_phase.add_argument("--points", type=int)
    p_phase.add_argument("--half-width", type=float)

    p_conj = subcommand("conjecture", "run a conjecture scan", cmd_conjecture)
    p_conj.add_argument("--name", choices=CONJECTURES, default="log-convexity")
    p_conj.add_argument("--grid",
                        help="start:stop:steps (default -1:1:21 for unfairness, "
                             "0:1:21 otherwise)")
    p_conj.add_argument("--phi",
                        help="named pair operator for the unfairness witness: "
                             + ", ".join(sorted(PAIR_BUILDERS)))

    for name, values in (config or {}).items():
        sub.choices[name].set_defaults(**config_defaults(sub.choices[name], values))
    return parser


def config_defaults(parser: argparse.ArgumentParser, values: dict) -> dict:
    """Config-file values as defaults of parser's flags. A key is a flag's
    destination (``--half-width`` is half_width, ``--T`` transmissivity);
    each value is read by the flag's own type and choices, and a switch is
    on for 1, true, yes or on."""
    flags = {a.dest: a for a in parser._actions if a.dest not in ("help", "config")}
    defaults = {}
    for key, raw in values.items():
        action = flags.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if action.nargs == 0:
            defaults[action.dest] = raw.lower() in ("1", "true", "yes", "on")
            continue
        try:
            value = action.type(raw) if action.type else raw
            if action.choices is not None and value not in action.choices:
                raise ValueError(raw)
        except ValueError:
            raise ConfigError(f"bad value for config key {key!r}") from None
        defaults[action.dest] = value
    return defaults


def _refuse_state_flags_with_phi(declared, argv, config: dict) -> None:
    """``conjecture --phi`` scans a named pair, so it refuses every state
    flag, set on the command line or as a config key. ``declared`` is argv
    parsed under the flags' declared defaults; parsed again under other
    defaults, a flag that argv sets reads the same."""
    probe = build_parser({"conjecture": PHI_UNREAD}).parse_args(argv)
    given = ["--" + dest.replace("_", "-") for dest in PHI_UNREAD
             if dest in config or getattr(declared, dest) == getattr(probe, dest)]
    if given:
        raise ConfigError(f"--phi scans a named pair and takes no {', '.join(given)}")


def _glue_negative_grid(argv) -> list[str]:
    """argv with ``--grid SPEC`` written ``--grid=SPEC`` where SPEC starts with
    a minus and a number, as ``-1:1:21`` does, which argparse reads as a flag.
    Any prefix argparse takes for ``--grid`` (``--g``, ``--gr``, ``--gri``) is
    glued alike."""
    glued = []
    for arg in argv:
        if (glued and len(glued[-1]) > 2 and "--grid".startswith(glued[-1])
                and re.match(r"-[\d.]", arg)):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    return glued


def main(argv=None) -> int:
    argv = _glue_negative_grid(sys.argv[1:] if argv is None else argv)
    try:
        declared = args = build_parser().parse_args(argv)
        config = {}
        if args.config:
            # parsed again with the file's values as defaults: explicit flags win
            config = read_config_file(args.config)
            args = build_parser({args.command: config}).parse_args(argv)
        if args.command == "conjecture" and args.phi is not None:
            _refuse_state_flags_with_phi(declared, argv, config)
        return args.run(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
