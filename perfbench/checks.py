"""Output checks for every op, each against a route independent of the
code path that produced the output.

* verify: the CSV ``pass`` column, with each row's margin and verdict
  recomputed from its lhs, rhs and tolerance, and the exit status.
* sweep: every row against a loss channel written here from its
  binomial closed form (no Kraus operators), with purity, entropies from
  eigenvalues, mean photon number and the coherence scale from
  Tr[rho^2 (2N+1)] - Tr[rho a rho a^dag] - Tr[rho a^dag rho a].
* phasespace: the Fock closed form at every grid point for Fock inputs,
  ``wigner_from_parity`` at sampled s = 0 points, a displaced-population
  sum built here from an eigendecomposition of a^dag - a at other orders,
  and the grid integral (= 1) for s <= 0.
* scan: dark-port g2, witness and log-convexity margins recomputed from
  the spectral dark-port populations (``purity_polynomial``) instead of
  the dense two-mode conjugation the scans use; purity values are tied
  to the binomial loss channel above.

Rows that fail count in ``check_rows_failed``; nothing is dropped.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

SCAN_ROW_TOL = 1e-9  # the CLI's own per-row tolerance for scan margins
T_POLY_CHECKS = {"purity_symmetry", "purity_convexity", "pure_min_at_half"}
SAMPLED_POINTS = 12
PARITY_CUTOFF = 50  # ample for the lossy single photon within |alpha| <= 2.5
EIG_FLOOR = 1e-14


class CheckFailure(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


def density_matrix(state) -> np.ndarray:
    amps = getattr(state, "amplitudes", None)
    if amps is not None:
        return np.outer(amps, np.conj(amps))
    return np.asarray(state.matrix)


def output_facts(path) -> tuple[str | None, int]:
    """SHA-256 of the CSV and its data rows (header and # lines excluded)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return None, 0
    lines = [line for line in data.splitlines() if not line.startswith(b"#")]
    return hashlib.sha256(data).hexdigest(), max(0, len(lines) - 1)


# ---------------------------------------------------------------------------
# independent reference routes
# ---------------------------------------------------------------------------


def lossy_reference(rho: np.ndarray, t: float) -> np.ndarray:
    """E_T[rho]_jk = sum_l rho_{j+l,k+l} sqrt(C(j+l,l) C(k+l,l))
    T^((j+k)/2) (1-T)^l, summed directly."""
    c = rho.shape[0]
    out = np.zeros_like(rho, dtype=complex)
    for l in range(c):
        j = np.arange(c - l)
        log_binom = 0.5 * (gammaln(j + l + 1) - gammaln(j + 1) - gammaln(l + 1))
        w = np.exp(log_binom) * np.sqrt(t) ** j * np.sqrt(1.0 - t) ** l
        out[: c - l, : c - l] += w[:, None] * rho[l:, l:] * w[None, :]
    return out


def purity_of(rho: np.ndarray) -> float:
    return float(np.sum(np.abs(rho) ** 2))


def entropies(rho: np.ndarray) -> tuple[float, float]:
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    eigs = eigs[eigs > EIG_FLOOR]
    return float(-np.sum(eigs * np.log(eigs))), float(-np.log(np.sum(eigs ** 2)))


def coherence_scale(rho: np.ndarray) -> float:
    """C^2 = (Tr[rho^2 (2N+1)] - Tr[rho a rho a^dag] - Tr[rho a^dag rho a]) / P,
    the commutator definition with the sum over X and P done by hand; two
    padding levels keep the truncated ladder operators exact."""
    c = rho.shape[0] + 2
    m = np.zeros((c, c), dtype=complex)
    m[:-2, :-2] = rho
    a = np.diag(np.sqrt(np.arange(1, c, dtype=float)), 1)
    n = np.arange(c, dtype=float)
    sq = m @ m
    first = np.sum(np.diag(sq).real * (2.0 * n + 1.0))
    cross = np.trace(m @ a @ m @ a.T).real + np.trace(m @ a.T @ m @ a).real
    return float((first - cross) / purity_of(rho))


def fock_quasi(n: int, alpha: np.ndarray, s: float) -> np.ndarray:
    """s-ordered quasiprobability of |n><n| for -1 < s < 1, closed form."""
    u = (s + 1.0) / (s - 1.0)
    x = np.abs(alpha) ** 2
    lag = eval_genlaguerre(n, 0, 4.0 * x / (1.0 - s * s))
    return 2.0 / (math.pi * (1.0 - s)) * u ** n * np.exp(-2.0 * x / (1.0 - s)) * lag


class DisplacedSum:
    """P(alpha, s) = 2/(pi(1-s)) sum_k u^k <k|D(alpha)^dag rho D(alpha)|k>.

    D(r e^{i phi}) = R(phi) exp(r (a^dag - a)) R(phi)^dag with R = e^{i phi N};
    the exponential comes from one eigendecomposition of the tridiagonal
    Hermitian i(a^dag - a) on a ladder far above the summed levels, so no
    Laguerre closed form is involved.
    """

    def __init__(self, ladder: int = 200):
        off = np.sqrt(np.arange(1, ladder, dtype=float))
        h = np.zeros((ladder, ladder), dtype=complex)
        h[np.arange(1, ladder), np.arange(ladder - 1)] = 1j * off   # i a^dag
        h[np.arange(ladder - 1), np.arange(1, ladder)] = -1j * off  # -i a
        self.w, self.v = np.linalg.eigh(h)

    def __call__(self, rho: np.ndarray, alpha: complex, s: float) -> float:
        # for s > 0, |u| > 1 amplifies rounding in high levels, so sum fewer;
        # callers keep |alpha| small there, where those levels are empty
        levels = 80 if s <= 0.0 else 40
        c = rho.shape[0]
        r, phi = abs(alpha), np.angle(alpha)
        # exp(r (a^dag - a)) = exp(-i r H), restricted to rows < c, cols < levels
        block = (self.v[:c] * np.exp(-1j * r * self.w)) @ self.v[:levels].conj().T
        rot_rows = np.exp(1j * phi * np.arange(c))
        rot_cols = np.exp(-1j * phi * np.arange(levels))
        d = rot_rows[:, None] * block * rot_cols[None, :]
        pops = np.einsum("nk,nm,mk->k", d.conj(), rho, d).real
        u = (s + 1.0) / (s - 1.0)
        return float(2.0 / (math.pi * (1.0 - s)) * np.sum(u ** np.arange(levels) * pops))


# ---------------------------------------------------------------------------
# per-kind checkers; each returns (check rows, failing rows)
# ---------------------------------------------------------------------------


def _read_csv(path, header):
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise CheckFailure("no CSV written") from None
    _require(rows and rows[0] == header, f"CSV header is {rows[:1]}")
    return rows[1:]


VERIFY_HEADER = ["check_name", "state_id", "params", "lhs", "rhs", "margin",
                 "tolerance", "pass"]


def check_verify(op, rc, out_path, states, ctx):
    rows = _read_csv(out_path, VERIFY_HEADER)
    _require(rows, "verify wrote no check rows")
    failing = []
    any_false = False
    for name, state_id, _, lhs, rhs, margin, tol, passed in rows:
        margin, tol = float(margin), float(tol)
        _require(passed == str(margin >= -tol).lower(),
                 f"{name}/{state_id}: pass column disagrees with margin")
        problems = [] if passed == "true" else ["pass=false"]
        any_false = any_false or bool(problems)
        for field in (lhs, rhs):
            try:
                float(field)
            except ValueError:
                kind = "numpy-repr" if field.startswith("np.") else "unparseable"
                problems.append(f"{kind}: {field}")
        if problems:
            failing.append((name, state_id, "; ".join(problems)))
    _require(rc == (1 if any_false else 0), f"exit {rc} with {len(failing)} failing rows")
    return len(rows), failing


def check_sweep(op, rc, out_path, states, ctx):
    _require(rc == 0, f"exit {rc}")
    rows = _read_csv(out_path, ["T", "purity", "h1", "h2", "c_squared", "mean_n"])
    steps = op.params["steps"]
    _require(len(rows) == steps, f"{len(rows)} rows, expected {steps}")
    rho = density_matrix(states[0][1])
    levels = np.arange(rho.shape[0], dtype=float)
    failing = []
    for row, t_expected in zip(rows, np.linspace(0.0, 1.0, steps)):
        t, p, h1, h2, c2, mean_n = (float(v) for v in row)
        rho_t = lossy_reference(rho, t)
        ref_h1, ref_h2 = entropies(rho_t)
        ref_c2 = coherence_scale(rho_t)
        errors = (abs(t - t_expected), abs(p - purity_of(rho_t)),
                  abs(h1 - ref_h1), abs(h2 - ref_h2),
                  abs(c2 - ref_c2) / max(1.0, ref_c2),
                  abs(mean_n - float(np.diag(rho_t).real @ levels)))
        if not max(errors) <= 1e-9:
            failing.append(("sweep_row", f"T={t!r}", f"error {max(errors):.3g}"))
    return len(rows), failing


def check_phasespace(op, rc, out_path, states, ctx):
    _require(rc == 0, f"exit {rc}")
    try:
        with open(out_path, newline="") as fh:
            descriptor = fh.readline()
            rows = list(csv.reader(fh))
    except FileNotFoundError:
        raise CheckFailure("no CSV written") from None
    s, t, n = op.params["s"], op.params["T"], op.params["points"]
    _require(descriptor.startswith(f"# s={s!r},"), f"descriptor {descriptor!r}")
    _require(rows and rows[0] == ["re_alpha", "im_alpha", "value"], "bad header")
    data = np.array(rows[1:], dtype=float)
    _require(data.shape == (n * n, 3), f"grid shape {data.shape}")
    _require(bool(np.all(np.isfinite(data))), "non-finite grid value")
    alpha = data[:, 0] + 1j * data[:, 1]
    values = data[:, 2]
    rho = density_matrix(states[0][1])
    if t is not None:
        rho = lossy_reference(rho, t)
    failing = []
    checked = 0
    step = (data[n, 0] - data[0, 0]) * (data[1, 1] - data[0, 1])
    if s <= 0.0:
        checked += 1
        integral = math.fsum(values) * step
        if not abs(integral - 1.0) <= 1e-9:
            failing.append(("grid_integral", op.states, repr(integral)))
    if op.states.startswith("fock:"):
        checked += 1
        pops = np.diag(rho).real
        ref = sum(p * fock_quasi(k, alpha, s) for k, p in enumerate(pops) if p > 0.0)
        err = np.abs(values - ref)
        bad = int(np.sum(~(err <= 1e-9 * max(1.0, float(np.max(np.abs(ref)))))))
        if bad:
            failing.append(("fock_closed_form", op.states, f"{bad} points"))
    # sampled points: near the origin for s > 0, where the displaced-level
    # sum of the reference route does not cancel
    radius = 2.5 if s <= 0.0 else 0.7
    near = np.nonzero(np.abs(alpha) <= radius)[0]
    rng = np.random.default_rng(op.seed)
    picks = rng.choice(near, size=min(SAMPLED_POINTS, near.size), replace=False)
    for i in sorted(picks):
        if s == 0.0:
            ref = ctx.wigner_from_parity(ctx.density_operator(rho), complex(alpha[i]),
                                         PARITY_CUTOFF)
        else:
            ref = ctx.displaced_sum(rho, complex(alpha[i]), s)
        if not abs(values[i] - ref) <= 1e-8 * max(1.0, abs(ref)):
            failing.append(("sampled_point", op.states, f"alpha={alpha[i]!r}"))
    return checked + len(picks), failing


def _g2_margin(q, lam):
    m = np.arange(q.size, dtype=float)
    p = q * np.power(lam, m)
    mean = float(p @ m) / float(np.sum(p))
    if mean <= 1e-12:
        return None
    return float(p @ (m * (m - 1.0))) * float(np.sum(p)) / float(p @ m) ** 2 - 1.0


def _witness_margin(q, lam):
    m = np.arange(q.size, dtype=float)
    zeroth = float(np.sum(q * np.power(lam, m)))
    first = float(np.sum(q[1:] * m[1:] * np.power(lam, m[1:] - 1.0)))
    second = float(np.sum(q[2:] * m[2:] * (m[2:] - 1.0) * np.power(lam, m[2:] - 2.0)))
    return zeroth * second - first ** 2


def check_scan(op, rc, out_path, states, ctx):
    rows = _read_csv(out_path, ["conjecture", "state_id", "T_or_lambda", "margin"])
    _require(rows, "scan wrote no rows")
    by_state = {}
    for _, state_id, x, margin in rows:
        by_state.setdefault(state_id, []).append((float(x), float(margin)))
    _require(set(by_state) == {sid for sid, _ in states},
             f"scan rows cover {sorted(by_state)}")
    conjecture = op.params["conjecture"]
    failing = []
    for state_id, state in states:
        poly = ctx.purity_polynomial(ctx.as_density(state))
        q = np.asarray(poly.coefficients)
        rho = density_matrix(state)
        for x, margin in by_state[state_id]:
            if conjecture == "dark-port-g2":
                ref = _g2_margin(q, 1.0 - 2.0 * x)
                _require(ref is not None, f"{state_id}: row at T={x} where g2 is undefined")
            elif conjecture == "unfairness":
                ref = _witness_margin(q, x)
            else:
                p, d1, d2 = (float(poly.value(x)), float(poly.derivative(x, 1)),
                             float(poly.derivative(x, 2)))
                _require(abs(p - purity_of(lossy_reference(rho, x))) <= 1e-10,
                         f"{state_id}: polynomial purity off the loss channel at T={x}")
                ref = p * d2 - d1 * d1
            _require(abs(margin - ref) <= 1e-7 * max(1.0, abs(ref)),
                     f"{state_id}: margin {margin!r} vs reference {ref!r} at {x}")
            if margin < -SCAN_ROW_TOL:
                failing.append((conjecture, state_id, f"margin {margin!r} at {x!r}"))
    # the CLI exits 1 only for a violation its refinement step confirms
    _require(rc == 0 or (rc == 1 and failing), f"exit {rc}")
    return len(rows), failing


CHECKERS = {"verify": check_verify, "sweep": check_sweep,
            "phasespace": check_phasespace, "scan": check_scan}


# ---------------------------------------------------------------------------
# known defects
# ---------------------------------------------------------------------------


def matches_known_defect(op, rc, stderr, failing) -> bool:
    """True when a failed op failed exactly the way its recorded defect does."""
    if op.known_defect == "gaussian-form-cancellation":
        return rc == 2 and "imaginary residue" in stderr
    if op.known_defect == "t-polynomial-expansion":
        return rc == 1 and bool(failing) and all(
            name in T_POLY_CHECKS and state_id.startswith("random-pure")
            and problem == "pass=false" for name, state_id, problem in failing)
    if op.known_defect == "numpy-scalar-repr":
        return bool(failing) and all(problem.startswith("numpy-repr")
                                     for _, _, problem in failing)
    return False


def evaluate(op, rc, stderr, out_path, states, ctx, error=None):
    """Classify one op: ok, known-defect (its recorded failure reproduced),
    or failed. Returns a dict for the pass record."""
    digest, csv_rows = output_facts(out_path)
    record = {"op": op.name, "exit": rc, "check_rows": 0, "check_rows_failed": 0,
              "digest": digest, "csv_rows": csv_rows, "reason": ""}
    failing = []
    if error is not None:
        reason = f"exception: {error}"
    else:
        try:
            rows, failing = CHECKERS[op.kind](op, rc, out_path, states, ctx)
            record["check_rows"] = rows
            record["check_rows_failed"] = len(failing)
            reason = "" if not failing else f"{len(failing)} failing rows, e.g. {failing[0]}"
        except CheckFailure as exc:
            reason = str(exc)
        except (ValueError, IndexError, OSError) as exc:
            reason = f"check could not read the output: {exc!r}"
    if not reason:
        record["status"] = "ok"
    elif op.known_defect and matches_known_defect(op, rc, stderr, failing):
        record["status"] = "known-defect"
        record["reason"] = op.known_defect
    else:
        record["status"] = "failed"
        record["reason"] = reason or stderr.strip()[-200:]
    return record
