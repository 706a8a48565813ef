"""Command-line surface: evaluation, strip comparison, zero scanning,
certification, c(u) bounds, the section-5 identity suite, and direct kernel
Mellin transforms, with deterministic machine-readable output.

Exit codes: 0 success, 1 tolerance breach, 2 usage error, 3 domain/pole error.
Config precedence: flags > DILOG_ZETA_CONFIG key=value file > defaults.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DomainError, PoleError
from .kernels import KernelId
from .mellin import MellinMethod, PeriodSumConfig, kernel_integral
from .muntz import (
    corollary_5_5_residual,
    gaussian,
    mellin_fourier_phi,
    mellin_fourier_phi_numeric,
    mellin_numeric,
    mellin_theta_check,
    muntz_lhs_rhs,
    muntz_rederivation_residual,
    triangle,
)
from .specfun import zeta_ref
from .zerofree import c_bracket, certify, scan_line
from .zeta_reps import zeta_via_d, zeta_via_e, zeta_via_f

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


@dataclass(frozen=True)
class RunConfig:
    """Run-wide knobs shared by all subcommands.

    ``n_periods`` and ``tail_order`` go to PeriodSumConfig as they are: None
    lets the period sums choose N (up to N_MAX) and K from ``tolerance``; a
    number pins it.  The CLI takes tail orders 0, 1 and 2 only.
    """

    tolerance: float = 1e-8
    n_periods: Optional[int] = None
    tail_order: Optional[int] = None
    output_format: str = "json"
    seed: int = 42

    def __post_init__(self) -> None:
        if not (1e-14 <= self.tolerance <= 1e-2):
            raise ValueError("tolerance must lie in [1e-14, 1e-2]")
        if self.tail_order not in (None, 0, 1, 2):
            raise ValueError("tail_order must be 0, 1 or 2")
        if self.output_format not in ("json", "csv", "text"):
            raise ValueError("output_format must be json, csv or text")
        self.period_cfg()  # PeriodSumConfig checks n_periods

    def period_cfg(self) -> PeriodSumConfig:
        return PeriodSumConfig(self.n_periods, self.tail_order, self.tolerance)


def parse_complex(text: str) -> complex:
    """Parse the fixed literal grammar ``<float>[+|-]<float>i`` (no spaces)."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(
            f"invalid complex literal {text!r}: expected <float>[+|-]<float>i with no spaces"
        )
    return complex(float(m.group(1)), float(m.group(2)))


def format_complex(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


def _fmt(x: float) -> str:
    """17 significant digits; non-finite values become string codes."""
    if isinstance(x, str):
        return x
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".17g")


def _json_safe(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else _fmt(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit(report: dict, rows: Optional[list] = None, fmt: str = "json", out=None) -> None:
    """Render a flat report (and optional row list) in the selected format.

    JSON: one flat object with sorted keys (rows nested under "rows").
    CSV: header + rows, 17 significant digits, LF line endings.
    Text: ``key = value`` lines.
    """
    out = out if out is not None else sys.stdout
    if fmt == "json":
        payload = dict(report)
        if rows is not None:
            payload["rows"] = rows
        out.write(json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False))
        out.write("\n")
        return
    if fmt == "csv":
        if rows:
            header = list(rows[0].keys())
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_csv_cell(row[k]) for k in header) + "\n")
        else:
            keys = sorted(report)
            out.write(",".join(keys) + "\n")
            out.write(",".join(_csv_cell(report[k]) for k in keys) + "\n")
        return
    for key in sorted(report):
        out.write(f"{key} = {report[key]}\n")
    if rows:
        for row in rows:
            out.write("  ".join(f"{k}={row[k]}" for k in row) + "\n")


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


# --- config loading -------------------------------------------------------------


_CONFIG_KEYS = {"tolerance": float, "n_periods": int, "tail_order": int,
                "output_format": str, "seed": int}


def _load_env_config() -> dict:
    path = os.environ.get("DILOG_ZETA_CONFIG")
    if not path:
        return {}
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line not key=value: {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _CONFIG_KEYS[key](raw.strip())
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values = _load_env_config()
    for key in _CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


# --- subcommands ----------------------------------------------------------------


# The --method names of the compare and mellin subcommands.
_METHODS = {"closed": MellinMethod.CLOSED_FORM, "period": MellinMethod.PERIOD_SUM,
            "gamma": MellinMethod.GAMMA_SERIES}


def cmd_eval(args: argparse.Namespace, cfg: RunConfig) -> int:
    s = parse_complex(args.s)
    cfg_ps = cfg.period_cfg()
    method = args.method
    if method == "ref":
        result = zeta_ref(s)
    elif method == "d":
        result = zeta_via_d(s, MellinMethod.PERIOD_SUM, cfg_ps)
    elif method == "e":
        result = zeta_via_e(s, MellinMethod.PERIOD_SUM, cfg_ps)
    else:
        result = zeta_via_f(s, MellinMethod.PERIOD_SUM, cfg_ps)
    report = {
        "s": format_complex(s),
        "method": method,
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "abs_err": result.abs_err,
        "work": result.work,
    }
    _emit(report, fmt=cfg.output_format)
    return EXIT_OK


def cmd_compare(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    rng = np.random.RandomState(cfg.seed)
    re_vals = rng.uniform(args.re_min, args.re_max, args.points)
    im_vals = rng.uniform(args.im_min, args.im_max, args.points)
    method = _METHODS[args.method]
    cfg_ps = cfg.period_cfg()
    rows = []
    max_dev_all = 0.0
    for re_s, im_s in zip(re_vals, im_vals):
        s = complex(re_s, im_s)
        try:
            ref = zeta_ref(s).value
            vd = zeta_via_d(s, method, cfg_ps).value
            ve = zeta_via_e(s, method, cfg_ps).value
            vf = zeta_via_f(s, method, cfg_ps).value
        except (DomainError, PoleError) as exc:
            rows.append({
                "s_re": float(re_s), "s_im": float(im_s),
                "via_d": "", "via_e": "", "via_f": "", "ref": "",
                "max_dev": "", "flag": type(exc).__name__,
            })
            continue
        dev = max(abs(vd - ref), abs(ve - ref), abs(vf - ref))
        max_dev_all = max(max_dev_all, dev)
        rows.append({
            "s_re": float(re_s), "s_im": float(im_s),
            "via_d": format_complex(vd), "via_e": format_complex(ve),
            "via_f": format_complex(vf), "ref": format_complex(ref),
            "max_dev": dev, "flag": "",
        })
    report = {"max_dev": max_dev_all, "tolerance": cfg.tolerance,
              "points": args.points, "method": args.method}
    _emit(report, rows=rows, fmt=cfg.output_format)
    return EXIT_OK if max_dev_all <= cfg.tolerance else EXIT_TOLERANCE


def cmd_zero_scan(args: argparse.Namespace, cfg: RunConfig) -> int:
    report = scan_line(
        args.u, args.v_min, args.v_max, args.step,
        cfg=cfg.period_cfg(), threshold=args.threshold,
    )
    rows = [
        {"v": v, "re_res": re_r, "im_res": im_r, "abs_res": ab}
        for (v, re_r, im_r, ab) in report.rows
    ]
    summary = {
        "u": report.u,
        "candidates": ";".join(_fmt(v) for v in report.candidate_zeros),
        "n_candidates": len(report.candidate_zeros),
    }
    _emit(summary, rows=rows, fmt=cfg.output_format)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace, cfg: RunConfig) -> int:
    cert = certify(args.u0, args.v0, args.N)
    report = {
        "u0": cert.u0, "v0": cert.v0, "n_periods": cert.n_periods,
        "c_lower": cert.c_lower, "c_upper": cert.c_upper,
        "lhs": cert.lhs, "rhs": cert.rhs, "holds": cert.holds,
    }
    _emit(report, fmt=cfg.output_format)
    return EXIT_OK if cert.holds else EXIT_TOLERANCE


def cmd_c_bounds(args: argparse.Namespace, cfg: RunConfig) -> int:
    lower, upper = c_bracket(args.N)
    _emit({"N": args.N, "lower": lower, "upper": upper}, fmt=cfg.output_format)
    return EXIT_OK


def muntz_suite(tolerance: float) -> list[dict]:
    """The section-5 identity residuals used by ``muntz-check``."""
    tri, gau = triangle(), gaussian()
    checks: list[dict] = []

    def add(name: str, residual: float, tol: float) -> None:
        checks.append({"check": name, "residual": float(residual),
                       "tolerance": tol, "ok": bool(residual < tol)})

    for f in (tri, gau):
        for s in (0.3, 0.5, 0.7, 0.5 + 2j, 0.5 - 2j):
            lhs = mellin_numeric(f, s, decay=(f.decay_c, f.decay_delta)).value * zeta_ref(s).value
            rhs = mellin_theta_check(f, s).value
            add(f"muntz-{f.name}-s={format_complex(complex(s))}", abs(lhs - rhs), tolerance)
    for f in (tri, gau):
        for s in (0.5, 0.3 + 2j, 0.7):
            lhs, rhs = muntz_lhs_rhs(f, s)
            add(f"symmetrized-{f.name}-s={format_complex(complex(s))}", abs(lhs - rhs), tolerance)
    for f in (tri, gau):
        for x in (0.31, 1.7, 4.2):
            add(f"cor5.5-{f.name}-x={x}", abs(corollary_5_5_residual(f, x)), tolerance)
    for s in (0.3, 0.6):
        lhs = mellin_fourier_phi_numeric(s).value * zeta_ref(s).value
        rhs = mellin_numeric(tri, 1.0 - s, decay=(tri.decay_c, tri.decay_delta)).value \
            * zeta_ref(1.0 - s).value
        add(f"prop5.8-triangle-s={_fmt(s)}", abs(lhs - rhs), tolerance)
    for s in (0.3, 0.5, 0.7):
        add(f"e5.15-s={_fmt(s)}",
            abs(mellin_fourier_phi(s) - mellin_fourier_phi_numeric(s).value), tolerance)
        add(f"prop5.10-s={_fmt(s)}",
            abs(mellin_fourier_phi(s) * zeta_ref(s).value
                - zeta_ref(1.0 - s).value / ((1.0 - s) * (2.0 - s))), tolerance)
        add(f"rederivation-s={_fmt(s)}", muntz_rederivation_residual(s), tolerance)
    return checks


def cmd_muntz_check(args: argparse.Namespace, cfg: RunConfig) -> int:
    tol = cfg.tolerance if args.strict else 1e-5
    rows = muntz_suite(tol)
    n_fail = sum(0 if r["ok"] else 1 for r in rows)
    report = {"n_checks": len(rows), "n_failures": n_fail,
              "worst": max(r["residual"] for r in rows)}
    _emit(report, rows=rows, fmt=cfg.output_format)
    return EXIT_OK if n_fail == 0 else EXIT_TOLERANCE


def cmd_mellin(args: argparse.Namespace, cfg: RunConfig) -> int:
    alpha = parse_complex(args.alpha)
    kernel = KernelId.ALT if args.kernel == "f" else KernelId(args.kernel)
    r = kernel_integral(kernel, alpha, _METHODS[args.method], cfg.period_cfg())
    report = {
        "kernel": args.kernel, "alpha": format_complex(alpha), "method": args.method,
        "value_re": r.value.real, "value_im": r.value.imag,
        "abs_err": r.abs_err, "work": r.work,
    }
    _emit(report, fmt=cfg.output_format)
    return EXIT_OK


# --- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 2 on usage errors, as contracted
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _add_common(p: argparse.ArgumentParser) -> None:
    for key, kind in _CONFIG_KEYS.items():  # RunConfig validates the values
        p.add_argument("--" + key.replace("_", "-"), type=kind)


def make_parser() -> _Parser:
    parser = _Parser(prog="dilogzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate zeta(s) by one representation")
    p.add_argument("--s", required=True)
    p.add_argument("--method", choices=("d", "e", "f", "ref"), required=True)
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="compare all representations on a seeded grid")
    p.add_argument("--re-min", type=float, default=0.05)
    p.add_argument("--re-max", type=float, default=0.95)
    p.add_argument("--im-min", type=float, default=-20.0)
    p.add_argument("--im-max", type=float, default=20.0)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--method", choices=("closed", "period"), default="closed")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("zero-scan", help="scan the zero residual along a vertical line")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--v-min", type=float, required=True)
    p.add_argument("--v-max", type=float, required=True)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--threshold", type=float, default=1e-3)
    _add_common(p)
    p.set_defaults(func=cmd_zero_scan)

    p = sub.add_parser("certify", help="zero-free certificate at (u0, v0)")
    p.add_argument("--u0", type=float, required=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--N", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("c-bounds", help="bracket for the constant c(u)")
    p.add_argument("--N", type=int, default=100)
    _add_common(p)
    p.set_defaults(func=cmd_c_bounds)

    p = sub.add_parser("muntz-check", help="run the section-5 identity suite")
    p.add_argument("--strict", action="store_true",
                   help="use --tolerance instead of the default 1e-5 suite tolerance")
    _add_common(p)
    p.set_defaults(func=cmd_muntz_check)

    p = sub.add_parser("mellin", help="kernel Mellin integral D/E/F at alpha")
    p.add_argument("--kernel", choices=("p", "ptilde", "q", "f"), required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--method", choices=("closed", "period", "gamma"), default="closed")
    _add_common(p)
    p.set_defaults(func=cmd_mellin)

    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> _Parser:
    """The parser, built once per process; parsing leaves it unchanged."""
    return make_parser()


def _join_complex_flags(argv: Sequence[str]) -> list[str]:
    """Fold ``--s -0.5+1i`` into ``--s=-0.5+1i`` so argparse does not read a
    leading-minus complex literal as an option."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--s", "--alpha") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_complex_flags(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except (DomainError, PoleError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def console_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_entry()
