"""Batch command line front end.

Four subcommands: ``verify`` runs named check batteries and writes a check
CSV, ``sweep`` tabulates purity, entropies, coherence scale, and mean
photon number against transmissivity, ``phasespace`` exports a
quasiprobability grid, and ``conjecture`` runs the conjecture scans.
Exit status is 0 for success with no violations, 1 when any check or scan
reports a violation or a scan has no rows, and 2 on configuration errors
(including non-finite state entries). Identical
configuration and seed produce byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import csv
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
                           pure_number_ratio_inequality,
                           pure_second_order_inequality,
                           second_derivative_forms, transpose_trick_identity)
from .loss import apply_loss
from .phasespace import (GridSpec, Quadrature2D, default_grid, laplace_purity,
                         overlap_from_quasi, purity_from_chi,
                         purity_lossy_from_chi, quasi_prob_grid,
                         write_grid_csv)
from .purity import purity, purity_polynomial, renyi_entropy, von_neumann
from .qcs import qcs_commutator, qcs_lindblad, qcs_purity_rate, qcs_two_copy
from .reports import (equality_report, inequality_report, write_check_csv,
                      write_scan_csv)

DEFAULT_CUTOFF = 8
DEFAULT_RANK = 3
SUITES = ("purity", "qcs", "phasespace", "inequalities", "all")
CONJECTURES = ("log-convexity", "ell-log-convexity", "unfairness", "dark-port-g2")
PAIR_BUILDERS = {
    "bell-like": bell_like_pair,
    "separable-01": separable_01_pair,
    "twin-photon": twin_photon_pair,
}


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
    if steps < 1:
        raise ConfigError("grid needs at least one step")
    return np.linspace(start, stop, steps)


def parse_quadrature(spec: str) -> Quadrature2D:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ConfigError(f"quadrature must be radial:angular, got {spec!r}")
    try:
        return Quadrature2D(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad quadrature {spec!r}: {exc}") from None


def load_operator_file(path: str, allow_nonpositive: bool) -> DensityOperator:
    try:
        mat = np.load(path)
    except OSError as exc:
        raise ConfigError(f"cannot read operator file {path!r}: {exc}") from None
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim == 1:
        psi = PureState(mat, mat.size)
        return psi.density()
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigError("operator file must hold a vector or a square matrix")
    try:
        return DensityOperator(mat, mat.shape[0], physical=not allow_nonpositive)
    except ValueError as exc:
        raise ConfigError(f"operator file rejected: {exc}") from None


def parse_states(spec: str, seed: int, allow_nonpositive: bool):
    """Expand a comma-separated state family spec into (state_id, state)
    pairs. Pure families keep their PureState form so pure-only checks can
    fire; random mixtures come back as DensityOperator."""
    out = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        head, sep, tail = item.partition(":")
        if head == "fock":
            n = _as_int(tail, item)
            out.append((item, make_fock(n, max(n + 2, 4))))
        elif head == "coherent":
            alpha = _as_complex(tail, item)
            cutoff = max(int(np.ceil(abs(alpha) ** 2 + 9.0 * abs(alpha) + 8.0)), 8)
            out.append((item, make_coherent(alpha, cutoff)))
        elif head == "squeezed":
            r = _as_float(tail, item)
            cutoff = max(int(np.ceil(16.0 * np.sinh(abs(r)) ** 2 + 12.0)), 12)
            out.append((item, make_squeezed_vacuum(r, cutoff)))
        elif head == "random":
            parts = tail.split(":") if tail else ["1"]
            count = _as_int(parts[0], item)
            cutoff = _as_int(parts[1], item) if len(parts) > 1 else DEFAULT_CUTOFF
            rank = _as_int(parts[2], item) if len(parts) > 2 else None
            for i in range(count):
                s = seed + i
                if rank == 0 or (rank is None and i % 2 == 0):
                    out.append((f"random-pure:{s}", random_pure(s, cutoff)))
                else:
                    out.append((f"random-mixed:{s}",
                                random_mixed(s, cutoff, rank or DEFAULT_RANK)))
        elif head == "file":
            if not sep:
                raise ConfigError("file spec needs a path, file:PATH")
            out.append((item, load_operator_file(tail, allow_nonpositive)))
        else:
            raise ConfigError(f"unknown state family {item!r}")
    if not out:
        raise ConfigError("no states specified")
    return out


def _as_int(text: str, context: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"bad integer in {context!r}") from None


def _as_float(text: str, context: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"bad number in {context!r}") from None


def _as_complex(text: str, context: str) -> complex:
    try:
        return complex(text)
    except ValueError:
        raise ConfigError(f"bad complex number in {context!r}") from None


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


def _purity_suite(state_id, state, t_grid, tol):
    rho1 = _density(state)
    pure = isinstance(state, PureState)
    # evaluated in the lambda = 1 - 2T basis: expanding (1 - 2T)^m into
    # monomials in T cancels catastrophically at large cutoff
    poly = purity_polynomial(rho1)
    values = poly.value(t_grid)
    # convexity holds everywhere for pure inputs but is only guaranteed up
    # to half transmissivity for mixed ones
    convex_grid = t_grid if pure else t_grid[t_grid <= 0.5]
    reports = [
        inequality_report("dark_coefficients", state_id, {},
                          0.0, float(np.min(poly.coefficients)), tol or 1e-10,
                          claim="dark-port coefficients are nonnegative"),
    ]
    if convex_grid.size:
        reports.append(inequality_report(
            "purity_convexity", state_id, {},
            0.0, float(np.min(poly.derivative(convex_grid, 2))), tol or 1e-9,
            claim="P'' >= 0 on the applicable grid"))
    if pure:
        mirrored = poly.value(1.0 - t_grid)
        reports.append(equality_report(
            "purity_symmetry", state_id, {},
            float(np.max(np.abs(values - mirrored))), 0.0, tol or 1e-10,
            claim="P(T) = P(1-T) for pure inputs"))
    for t in (float(t_grid[0]), float(t_grid[t_grid.size // 2]), float(t_grid[-1])):
        if not 0.0 <= t <= 1.0:
            continue
        reports.append(equality_report(
            "lossy_trace_match", state_id, {"T": t},
            poly.value(t), purity(apply_loss(rho1, t)), tol or 1e-10,
            claim="polynomial purity equals trace purity"))
    if pure:
        reports.append(inequality_report(
            "pure_min_at_half", state_id, {}, poly.value(0.5), float(np.min(values)),
            tol or 1e-10, claim="pure-state purity is minimized at T = 1/2"))
    return reports


def _qcs_suite(state_id, state, t_grid, tol):
    rho1 = _density(state)
    pure = isinstance(state, PureState)
    agree_tol = tol or 1e-8
    reports = []
    for t in t_grid:
        t = float(t)
        if not 0.0 < t <= 1.0:
            continue
        rho_t = apply_loss(rho1, t)
        values = [qcs_commutator(rho_t).c_squared,
                  qcs_two_copy(rho_t).c_squared,
                  qcs_lindblad(rho1, t).c_squared]
        rate = qcs_purity_rate(rho1, t)
        if not rate.degenerate:
            values.append(rate.c_squared)
        spread = max(values) - min(values)
        reports.append(equality_report(
            "qcs_routes_agree", state_id, {"T": t}, spread, 0.0, agree_tol,
            claim="independent coherence-scale routes agree"))
        if pure and abs(t - 0.5) < 1e-12:
            reports.append(equality_report(
                "qcs_balanced_pure", state_id, {"T": t},
                values[0], 1.0, agree_tol,
                claim="pure input at half transmissivity gives unit scale"))
        if not pure and t <= 0.5:
            reports.append(inequality_report(
                "qcs_mixed_bound", state_id, {"T": t},
                values[0], 1.0, agree_tol,
                claim="mixed input below half transmissivity stays at or "
                      "below unit scale"))
    return reports


def _phasespace_suite(state_id, state, t_grid, tol, quad):
    rho1 = _density(state)
    route_tol = tol or 1e-5
    exact = purity(rho1)
    reports = [
        equality_report("purity_route_chi", state_id, {"s": -0.4},
                        purity_from_chi(rho1, -0.4, quad), exact, route_tol,
                        claim="characteristic-function integral reproduces purity"),
        equality_report("purity_route_quasi", state_id, {"s": 0.0},
                        overlap_from_quasi(rho1, rho1, 0.0, quad), exact, route_tol,
                        claim="squared quasiprobability integral reproduces purity"),
    ]
    for t in (0.25, 0.6):
        lossy = purity(apply_loss(rho1, t))
        reports.append(equality_report(
            "purity_route_lossy_chi", state_id, {"T": t},
            purity_lossy_from_chi(rho1, t, 0.0, quad), lossy, route_tol,
            claim="lossy purity via the damped characteristic integral"))
        reports.append(equality_report(
            "purity_route_laplace", state_id, {"T": t},
            laplace_purity(rho1, t, quad), lossy, route_tol,
            claim="lossy purity via the phase-averaged transform"))
    return reports


def _inequality_suite(state_id, state, t_grid, tol):
    rho1 = _density(state)
    reports = [
        cauchy_schwarz_ladder(rho1, state_id),
        bernstein_check(rho1, state_id=state_id),
        number_purity_monotonicity(rho1, np.linspace(0.05, 1.0, 20), state_id),
        ladder_loss_inequality(rho1, 0.3, state_id),
        second_derivative_forms(state, 0.3, state_id),
    ]
    if isinstance(state, PureState):
        reports += [
            transpose_trick_identity(state, 0.3, state_id),
            pure_number_ratio_inequality(state, 0.3, state_id),
            pure_second_order_inequality(state, state_id),
        ]
    return reports


def cmd_verify(args) -> int:
    states = parse_states(args.states, args.seed, args.allow_nonpositive)
    t_grid = parse_grid(args.grid)
    quad = parse_quadrature(args.quadrature)
    reports = []
    for state_id, state in states:
        if args.suite in ("purity", "all"):
            reports += _purity_suite(state_id, state, t_grid, args.tol)
        if args.suite in ("qcs", "all"):
            reports += _qcs_suite(state_id, state, t_grid, args.tol)
        if args.suite in ("phasespace", "all"):
            reports += _phasespace_suite(state_id, state, t_grid, args.tol, quad)
        if args.suite in ("inequalities", "all"):
            reports += _inequality_suite(state_id, state, t_grid, args.tol)
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
    rows = []
    for t in t_grid:
        t = float(t)
        rho_t = apply_loss(rho1, t)
        pops = np.diag(rho_t.matrix).real
        mean_n = float(pops @ np.arange(pops.size))
        rows.append([repr(t),
                     repr(purity(rho_t)),
                     repr(von_neumann(rho_t)),
                     repr(renyi_entropy(rho_t, 2)),
                     repr(qcs_commutator(rho_t).c_squared),
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
    states = parse_states(args.states, args.seed, args.allow_nonpositive)
    if len(states) != 1:
        raise ConfigError("phasespace expects exactly one state")
    state_id, state = states[0]
    rho1 = _density(state)
    t = args.transmissivity
    rho = apply_loss(rho1, t) if t is not None else rho1
    if args.points is not None or args.half_width is not None:
        spec = default_grid(rho)
        grid = GridSpec(
            half_width=spec.half_width if args.half_width is None else args.half_width,
            n=spec.n if args.points is None else args.points)
    else:
        grid = default_grid(rho)
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
    results = []
    if args.name == "unfairness":
        lam_grid = parse_grid("-1:1:21" if args.grid_defaulted else args.grid)
        if args.phi:
            if args.phi in PAIR_BUILDERS:
                pairs = [(args.phi, PAIR_BUILDERS[args.phi]())]
            else:
                raise ConfigError(
                    f"unknown pair {args.phi!r}; choose from "
                    f"{', '.join(sorted(PAIR_BUILDERS))}")
        else:
            states = parse_states(args.states, args.seed, args.allow_nonpositive)
            pairs = [(sid, fair_pair(_density(st))) for sid, st in states]
        results.append(unfairness_scan(pairs, lam_grid))
    else:
        states = [(sid, _density(st)) for sid, st in
                  parse_states(args.states, args.seed, args.allow_nonpositive)]
        t_grid = parse_grid(args.grid)
        if args.name == "log-convexity":
            results.append(log_convexity_corpus(states, t_grid))
        elif args.name == "ell-log-convexity":
            capped = t_grid[t_grid < 0.5]
            if capped.size == 0:
                raise ConfigError("ell-log-convexity needs grid points below 1/2")
            results.append(ell_log_convexity_corpus(states, capped))
        elif args.name == "dark-port-g2":
            capped = t_grid[t_grid <= 0.5]
            if capped.size == 0:
                raise ConfigError("dark-port-g2 needs grid points at or below 1/2")
            results.append(dark_port_g2_scan(states, capped))
        else:
            raise ConfigError(f"unknown conjecture {args.name!r}")
    if args.out:
        write_scan_csv(args.out, results)
    bad = [r for r in results if r.disposition in ("violation", "empty")]
    total = sum(len(r.rows) for r in results)
    row_tol = args.tol if args.tol is not None else 1e-9
    failed = sum(1 for r in results for (_, _, m) in r.rows if not m >= -row_tol)
    for r in results:
        print(f"{r.conjecture}: {r.disposition} over {r.corpus}, grid {r.grid}, "
              f"min margin {r.min_margin:.6g}")
    print(f"checks: {total} run, {total - failed} passed, {failed} failed")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lossylab",
        description="verification batteries for loss-channel identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--states", "--state", dest="states", default=None,
                       help="comma-separated families: fock:N, coherent:A, "
                            "squeezed:R, random:COUNT[:CUTOFF[:RANK]], file:PATH")
        p.add_argument("--grid", default=None, help="start:stop:steps")
        p.add_argument("--s", type=float, default=None,
                       help="quasiprobability order")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="override the default check tolerance")
        p.add_argument("--allow-nonpositive", action="store_true", default=None,
                       help="accept indefinite trace-one operator files")
        p.add_argument("--quadrature", default=None, metavar="R:THETA",
                       help="radial:angular quadrature sizes")
        p.add_argument("--config", default=None,
                       help="key=value file; explicit flags win")

    p_verify = sub.add_parser("verify", help="run a named check battery")
    common(p_verify)
    p_verify.add_argument("--suite", choices=SUITES, default="all")

    p_sweep = sub.add_parser("sweep", help="tabulate observables against T")
    common(p_sweep)

    p_phase = sub.add_parser("phasespace", help="export a quasiprobability grid")
    common(p_phase)
    p_phase.add_argument("--T", dest="transmissivity", type=float, default=None)
    p_phase.add_argument("--points", type=int, default=None)
    p_phase.add_argument("--half-width", type=float, default=None)

    p_conj = sub.add_parser("conjecture", help="run a conjecture scan")
    common(p_conj)
    p_conj.add_argument("--name", choices=CONJECTURES, default="log-convexity")
    p_conj.add_argument("--phi", default=None,
                        help="named pair operator for the witness: "
                             + ", ".join(sorted(PAIR_BUILDERS)))
    return parser


CONFIG_DEFAULTS = {
    "states": "random:5",
    "grid": "0:1:21",
    "s": 0.0,
    "seed": 7,
    "allow_nonpositive": False,
    "quadrature": "80:128",
}

CONFIG_CASTS = {
    "s": float,
    "seed": int,
    "tol": float,
    "transmissivity": float,
    "points": int,
    "half_width": float,
    "allow_nonpositive": lambda v: str(v).lower() in ("1", "true", "yes", "on"),
}


def apply_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset flags from the config file, then from built-in defaults."""
    file_values = read_config_file(args.config) if args.config else {}
    args.grid_defaulted = args.grid is None and "grid" not in file_values
    for key, raw in file_values.items():
        if not hasattr(args, key):
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key) is None:
            cast = CONFIG_CASTS.get(key, str)
            try:
                setattr(args, key, cast(raw))
            except ValueError:
                raise ConfigError(f"bad value for config key {key!r}") from None
    for key, fallback in CONFIG_DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, fallback)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = apply_config(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "phasespace":
            return cmd_phasespace(args)
        return cmd_conjecture(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
