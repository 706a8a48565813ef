"""Check every output row of a run against the oracle.

An operation is one output row: an ``eval`` request, a ``zero-scan`` grid
point, or a row of a reference job (a ``compare`` point, a ``muntz-check``
identity, one ``certify``, ``c-bounds`` or ``mellin`` result).  A row fails,
for one or more of these reasons, when

- ``raised``: its request raised, printed no JSON, or exited with a code its
  own report does not explain;
- ``tol_miss``: a value misses the oracle by more than the requested
  tolerance (for brackets and certificates: the true value lies outside);
- ``err_miss``: the returned ``abs_err`` is smaller than the actual deviation;
- ``zero_missed``: on the critical line, a true zero inside the window has no
  candidate within one grid step (charged to the grid row nearest the zero);
- ``zero_spurious``: a candidate has no true zero within one grid step
  (charged to the grid row nearest the candidate).

Failures already present at the seed commit (see ``KNOWN_HEIGHT`` and the
control line below) are marked ``known``: they count against ``pass_share``
but not as unexpected failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import oracle
from workloads import TOLERANCE, Request, compare_points, parse_complex, scan_grid

REASONS = ("raised", "tol_miss", "err_miss", "zero_missed", "zero_spurious")

# zeta_ref's accelerated eta series loses accuracy like exp(pi |Im s| / 2); at
# the seed commit its error passes 1e-8 near |Im s| = 49, and every closed-form
# path built on it fails with it.  Oracle misses of zeta_ref-based rows above
# this height are the known defect, not benchmark bugs.  Below it, zeta_ref's
# abs_err (a rounding floor near 1e-14) understates the deviation by up to ~3x
# for about 2% of points at |Im s| = 20..45: also known at seed.
KNOWN_HEIGHT = 45.0
# On the control line the absolute candidate threshold of 1e-3 lets local
# minima of |R| through from the third zero (v ~ 25) upward.
CRITICAL_LINE = 0.5
# c(u) is checked against the c-bounds bracket at these u.
C_GRID = (0.02, 0.1, 0.25, 0.5, 0.75, 0.98)


@dataclass
class Verdict:
    reasons: set = field(default_factory=set)
    known: bool = False


@dataclass
class Outcome:
    verdicts: list
    zero_errs: list = field(default_factory=list)


# float() also reads the CLI's "nan" and "inf" strings.
def _dev_miss(value: complex, truth, abs_err=None) -> set:
    dev = oracle.deviation(value, truth)
    reasons = set()
    if not dev <= TOLERANCE:
        reasons.add("tol_miss")
    if abs_err is not None and not float(abs_err) >= dev:
        reasons.add("err_miss")
    return reasons


def _raised(req: Request) -> Outcome:
    return Outcome([Verdict({"raised"}) for _ in range(max(1, req.rows))])


def check(req: Request, rc, out, truth: oracle.Truth) -> Outcome:
    """Verdicts for one request; ``rc`` is None when the call raised."""
    if rc is None or not isinstance(out, dict):
        return _raised(req)
    try:
        outcome, expected_rc = _CHECKS[req.kind](req, out, truth)
    except (KeyError, TypeError, ValueError):
        return _raised(req)
    if rc != expected_rc or not outcome.verdicts:
        return _raised(req)
    return outcome


def _eval(req, out, truth):
    s = complex(*req.params["s"])
    value = complex(float(out["value_re"]), float(out["value_im"]))
    v = Verdict(_dev_miss(value, truth.zeta(s), out["abs_err"]))
    v.known = bool(v.reasons) and req.params["method"] == "ref" and (
        abs(s.imag) >= KNOWN_HEIGHT or v.reasons == {"err_miss"})
    return Outcome([v]), 0


def _scan(req, out, truth):
    u, step = req.params["u"], req.params["step"]
    rows = out["rows"]
    vs = [float(r["v"]) for r in rows]
    verdicts = []
    for r, v in zip(rows, vs):
        res = complex(float(r["re_res"]), float(r["im_res"]))
        verdicts.append(Verdict(_dev_miss(res, truth.residual(complex(u, v)))))
    lo, hi = req.params["v_min"], req.params["v_max"]
    zeros = [float(g) for g in truth.zeros() if lo < g < hi] if u == CRITICAL_LINE else []
    text = out["candidates"]
    cands = [float(c) for c in text.split(";")] if text else []
    if len(cands) != out["n_candidates"]:
        raise ValueError("candidate count disagrees with the list")

    def nearest_row(v):
        return min(range(len(vs)), key=lambda i: abs(vs[i] - v))

    zero_errs = []
    for g in zeros:
        if not any(abs(c - g) <= step for c in cands):
            verdicts[nearest_row(g)].reasons.add("zero_missed")
    for c in cands:
        errs = [abs(c - g) for g in zeros if abs(c - g) <= step]
        if errs:
            zero_errs.append(min(errs))
        else:
            verdicts[nearest_row(c)].reasons.add("zero_spurious")
    for v in verdicts:
        v.known = v.reasons == {"zero_spurious"} and u != CRITICAL_LINE
    return Outcome(verdicts, zero_errs), 0


def _compare(req, out, truth):
    expected = compare_points(req.params["seed"], req.params["points"], req.params["re_min"],
                              req.params["re_max"], req.params["im_min"], req.params["im_max"])
    if len(out["rows"]) != len(expected):
        raise ValueError("compare returned another number of rows")
    verdicts = []
    for row in out["rows"]:
        s = complex(float(row["s_re"]), float(row["s_im"]))
        if row["flag"]:
            verdicts.append(Verdict({"raised"}))
            continue
        reasons = set()
        for key in ("via_d", "via_e", "via_f", "ref"):
            reasons |= _dev_miss(parse_complex(row[key]), truth.zeta(s))
        verdicts.append(Verdict(reasons, known=bool(reasons) and reasons <= {"tol_miss"}
                                and abs(s.imag) >= KNOWN_HEIGHT))
    expected_rc = 1 if float(out["max_dev"]) > float(out["tolerance"]) else 0
    return Outcome(verdicts), expected_rc


def _muntz(req, out, truth):
    # Each row is the residual of an exact identity: the true value is 0.
    verdicts = []
    for row in out["rows"]:
        residual, tol = float(row["residual"]), float(row["tolerance"])
        ok = residual <= tol and bool(row["ok"]) == (residual < tol)
        verdicts.append(Verdict(set() if ok else {"tol_miss"}))
    expected_rc = 0 if float(out["n_failures"]) == 0 else 1
    return Outcome(verdicts), expected_rc


def _certify(req, out, truth):
    u0, v0 = req.params["u0"], req.params["v0"]
    c_true = truth.c(u0)
    lower, upper = float(out["c_lower"]), float(out["c_upper"])
    lhs, rhs, holds = float(out["lhs"]), float(out["rhs"]), bool(out["holds"])
    sound = (
        lower <= c_true <= upper
        and oracle.deviation(lhs, oracle.certify_lhs(u0, v0)) <= TOLERANCE
        and rhs >= oracle.certify_rhs_floor(u0, v0, c_true) - TOLERANCE
        and holds == (lhs > rhs)
    )
    return Outcome([Verdict(set() if sound else {"tol_miss"})]), 0 if holds else 1


def _cbounds(req, out, truth):
    lower, upper = float(out["lower"]), float(out["upper"])
    inside = all(lower <= truth.c(u) <= upper for u in C_GRID)
    return Outcome([Verdict(set() if inside else {"tol_miss"})]), 0


def _mellin(req, out, truth):
    alpha = complex(*req.params["alpha"])
    value = complex(float(out["value_re"]), float(out["value_im"]))
    return Outcome([Verdict(_dev_miss(value, truth.mellin("p", alpha), out["abs_err"]))]), 0


_CHECKS = {
    "eval": _eval,
    "scan": _scan,
    "compare": _compare,
    "muntz": _muntz,
    "certify": _certify,
    "cbounds": _cbounds,
    "mellin": _mellin,
}


def prefill(req: Request, truth: oracle.Truth) -> None:
    """Compute the reference values a request will need (before timing)."""
    p = req.params
    if req.kind == "eval":
        truth.zeta(complex(*p["s"]))
    elif req.kind == "scan":
        for v in scan_grid(p["v_min"], p["v_max"], p["step"]):
            truth.zeta(complex(p["u"], float(v)))
        truth.zeros()
    elif req.kind == "compare":
        for s in compare_points(p["seed"], p["points"], p["re_min"], p["re_max"],
                                p["im_min"], p["im_max"]):
            truth.zeta(s)
    elif req.kind == "certify":
        truth.c(p["u0"])
    elif req.kind == "cbounds":
        for u in C_GRID:
            truth.c(u)
    elif req.kind == "mellin":
        truth.mellin("p", complex(*p["alpha"]))
