#!/usr/bin/env python3
"""Compare the three kernel representations of zeta against the reference
evaluator on a seeded random grid in the critical strip and report the worst
deviation per method.

Usage: python scripts/strip_comparison.py [--points 200] [--tolerance 1e-8]
       [--n-periods N]

The period sums choose N and the tail order from --tolerance; --n-periods
pins N instead (with tail order 2), as in the CLI.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from dilogzeta import (
    MellinMethod,
    PeriodSumConfig,
    zeta_ref,
    zeta_via_d,
    zeta_via_e,
    zeta_via_f,
)


@dataclass(frozen=True)
class GridConfig:
    points: int = 200
    re_min: float = 0.05
    re_max: float = 0.95
    im_abs: float = 20.0
    seed: int = 42
    tolerance: float = 1e-8
    n_periods: Optional[int] = None


def run(cfg: GridConfig) -> None:
    rng = np.random.RandomState(cfg.seed)
    re_vals = rng.uniform(cfg.re_min, cfg.re_max, cfg.points)
    im_vals = rng.uniform(-cfg.im_abs, cfg.im_abs, cfg.points)
    ps = PeriodSumConfig(n_periods=cfg.n_periods, tolerance=cfg.tolerance)
    worst = {"d": 0.0, "e": 0.0, "f": 0.0}
    worst_closed = {"d": 0.0, "e": 0.0, "f": 0.0}
    t0 = time.perf_counter()
    for re_s, im_s in zip(re_vals, im_vals):
        s = complex(re_s, im_s)
        ref = zeta_ref(s).value
        for name, fn in (("d", zeta_via_d), ("e", zeta_via_e), ("f", zeta_via_f)):
            worst[name] = max(worst[name], abs(fn(s, MellinMethod.PERIOD_SUM, ps).value - ref))
            worst_closed[name] = max(
                worst_closed[name], abs(fn(s, MellinMethod.CLOSED_FORM, ps).value - ref)
            )
    elapsed = time.perf_counter() - t0
    periods = cfg.n_periods or f"from tolerance {cfg.tolerance:g}"
    print(f"points: {cfg.points}  n_periods: {periods}  elapsed: {elapsed:.2f}s")
    print("method,worst_period_sum,worst_closed_form")
    for name in ("d", "e", "f"):
        print(f"{name},{worst[name]:.3e},{worst_closed[name]:.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=200)
    ap.add_argument("--tolerance", type=float, default=1e-8)
    ap.add_argument("--n-periods", type=int, default=None)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    run(GridConfig(points=args.points, seed=args.seed, tolerance=args.tolerance,
                   n_periods=args.n_periods))


if __name__ == "__main__":
    main()
