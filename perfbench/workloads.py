"""Seeded workload generators.

Each generator turns a seed into a stream of ``Request`` objects: the argv
list that the ``dilogzeta`` CLI receives, plus the parameters the checker needs.
The program sees only the argv lists; ``run.py --print-argv`` prints them so a
run can be replayed by hand.

Every request asks for ``--tolerance 1e-8`` and none sets ``--n-periods``: the
truncation stays at the CLI default, so a change that chooses it from the
tolerance is measured against the same accuracy demand.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

TOLERANCE = 1e-8
TOL_ARG = ["--tolerance", "1e-8"]
SCAN_STEP = 0.01  # the zero-scan default step; never passed explicitly

# Kronecker-sequence increments: any prefix of the stream covers the height
# range evenly, so the share of requests above a given |Im s| hardly depends
# on where a timed run happens to stop.
_G1 = (math.sqrt(5.0) - 1.0) / 2.0
_G2 = math.sqrt(2.0) - 1.0


@dataclass(frozen=True)
class Request:
    kind: str
    argv: list
    params: dict = field(default_factory=dict)
    rows: int = 1  # output rows expected; a request that raises fails this many


@dataclass(frozen=True)
class Workload:
    name: str
    requests: list
    cycle: int  # length of one representative cycle (the smoke-run size)


def _frac(x: float) -> float:
    return x - math.floor(x)


def fmt_complex(x: float, y: float) -> str:
    return f"{x:.10g}{y:+.10g}i"


# --- eval ---------------------------------------------------------------------

EVAL_CYCLE = ("d", "e", "d", "f", "ref")  # d:e:f:ref = 2:1:1:1
EVAL_STREAM = 1000
EVAL_HEIGHT = 100.0


def eval_workload(seed: int, n: int = EVAL_STREAM) -> Workload:
    rng = random.Random(seed)
    start = {m: (rng.random(), rng.random()) for m in sorted(set(EVAL_CYCLE))}
    count = dict.fromkeys(start, 0)
    reqs = []
    for j in range(n):
        method = EVAL_CYCLE[j % len(EVAL_CYCLE)]
        a, b = start[method]
        k = count[method]
        count[method] += 1
        y = -EVAL_HEIGHT + 2.0 * EVAL_HEIGHT * _frac(a + k * _G1)
        x = 0.05 + 0.9 * (0.001 + 0.998 * _frac(b + k * _G2))  # 0.05 < Re s < 0.95
        text = fmt_complex(x, y)
        s = parse_complex(text)
        reqs.append(Request(
            kind="eval",
            argv=["eval", "--s", text, "--method", method, *TOL_ARG],
            params={"s": [s.real, s.imag], "method": method},
        ))
    return Workload("eval", reqs, cycle=len(EVAL_CYCLE))


_COMPLEX_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def parse_complex(text: str) -> complex:
    """Parse the CLI's complex literal ``<float>[+|-]<float>i``."""
    m = _COMPLEX_RE.match(text)
    if m is None:
        raise ValueError(f"not a complex literal: {text!r}")
    return complex(float(m.group(1)), float(m.group(2)))


# --- scan ---------------------------------------------------------------------

SCAN_ZEROS = 10  # the first ten zeros: heights 14.1 to 49.8
SCAN_LINES = (0.5, 0.3)  # the critical line, then the control line
SCAN_WIDTH = 0.2
SCAN_JITTER = 0.04
SCAN_CYCLES = 2


def scan_grid(v_min: float, v_max: float, step: float = SCAN_STEP) -> np.ndarray:
    """The grid the CLI scans (same expression as ``zerofree.scan_line``)."""
    return np.arange(v_min, v_max + 0.5 * step, step)


def scan_workload(seed: int, zeros: list) -> Workload:
    """Windows of width 0.2 around each of the first ten zeros, in a seeded
    order with a seeded offset, each scanned on u = 0.5 and then u = 0.3."""
    rng = random.Random(seed)
    reqs = []
    for _ in range(SCAN_CYCLES):
        order = list(range(SCAN_ZEROS))
        rng.shuffle(order)
        for k in order:
            gamma = float(zeros[k])
            while True:  # no grid point within step/10 of the zero
                centre = gamma + rng.uniform(-SCAN_JITTER, SCAN_JITTER)
                lo = f"{centre - SCAN_WIDTH / 2:.6f}"
                hi = f"{centre + SCAN_WIDTH / 2:.6f}"
                grid = scan_grid(float(lo), float(hi))
                if np.min(np.abs(grid - gamma)) >= SCAN_STEP / 10:
                    break
            for u in SCAN_LINES:
                reqs.append(Request(
                    kind="scan",
                    argv=["zero-scan", "--u", str(u), "--v-min", lo, "--v-max", hi, *TOL_ARG],
                    params={"u": u, "v_min": float(lo), "v_max": float(hi), "step": SCAN_STEP},
                    rows=len(grid),
                ))
    return Workload("scan", reqs, cycle=len(SCAN_LINES))


# --- reference ------------------------------------------------------------------

REF_VARIANTS = 4
REF_BANDS = 20  # compare requests per pass, one per height band of |Im s| <= 100
REF_POINTS = 10
REF_CBOUNDS_N = 1_000_000
REF_MELLIN = 3
# The grid of scripts/certificate_sweep.py.
CERT_U = [float(f"{u:.6g}") for u in np.linspace(0.05, 0.45, 9)]
CERT_V = [float(f"{v:.6g}") for v in np.linspace(0.2, 3.0, 15)]
CERT_N = 100


def compare_points(seed: int, points: int, re_min: float, re_max: float,
                   im_min: float, im_max: float) -> list:
    """The points ``dilogzeta compare`` draws for these flags."""
    rng = np.random.RandomState(seed)
    xs = rng.uniform(re_min, re_max, points)
    ys = rng.uniform(im_min, im_max, points)
    return [complex(x, y) for x, y in zip(xs, ys)]


def _interleave(groups: list) -> list:
    """Spread each group evenly over the pass, so that any prefix of a pass
    holds every kind of job in about its full-pass proportion."""
    keyed = []
    for g, items in enumerate(groups):
        for i, item in enumerate(items):
            keyed.append(((i + 0.5) / len(items), g, item))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [item for _, _, item in keyed]


def reference_workload(seed: int) -> Workload:
    rng = random.Random(seed)
    reqs = []
    band = 2.0 * EVAL_HEIGHT / REF_BANDS
    for _ in range(REF_VARIANTS):
        compare = []
        for b in range(REF_BANDS):
            im_lo = -EVAL_HEIGHT + b * band
            flags = {"re_min": 0.05, "re_max": 0.95, "im_min": im_lo, "im_max": im_lo + band}
            cli_seed = rng.randrange(2 ** 31)
            compare.append(Request(
                kind="compare",
                argv=["compare", "--method", "closed", "--points", str(REF_POINTS),
                      "--re-min", "0.05", "--re-max", "0.95",
                      "--im-min", f"{im_lo:g}", "--im-max", f"{im_lo + band:g}",
                      "--seed", str(cli_seed), *TOL_ARG],
                params={"seed": cli_seed, "points": REF_POINTS, **flags},
                rows=REF_POINTS,
            ))
        certify = [
            Request(kind="certify",
                    argv=["certify", "--u0", f"{u:g}", "--v0", f"{v:g}", "--N", str(CERT_N), *TOL_ARG],
                    params={"u0": u, "v0": v})
            for u in CERT_U for v in CERT_V
        ]
        mellin = []
        for _ in range(REF_MELLIN):
            text = fmt_complex(round(rng.uniform(-4.0, -1.5), 6), round(rng.uniform(-4.0, 4.0), 6))
            alpha = parse_complex(text)
            mellin.append(Request(
                kind="mellin",
                argv=["mellin", "--kernel", "p", "--alpha", text, "--method", "gamma", *TOL_ARG],
                params={"alpha": [alpha.real, alpha.imag]},
            ))
        muntz = [Request(kind="muntz", argv=["muntz-check", *TOL_ARG])]
        cbounds = [Request(kind="cbounds", argv=["c-bounds", "--N", str(REF_CBOUNDS_N), *TOL_ARG],
                           params={"N": REF_CBOUNDS_N})]
        reqs.extend(_interleave([compare, certify, mellin, muntz, cbounds]))
    return Workload("reference", reqs, cycle=len(reqs) // REF_VARIANTS)


WORKLOADS = ("eval", "scan", "reference")
