#!/usr/bin/env python3
"""Scan the zero residual along vertical lines: the critical line window
around the first nontrivial zero, and an off-line control at Re s = 0.3.

Usage: python scripts/zero_scan_experiment.py [--v-min 12] [--v-max 16]
       [--tolerance 1e-8] [--n-periods N]

The period sums choose N and the tail order from --tolerance; --n-periods
pins N instead (with tail order 2), as in the CLI.
"""

from __future__ import annotations

import argparse
import time

from dilogzeta import PeriodSumConfig, scan_line


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--v-min", type=float, default=12.0)
    ap.add_argument("--v-max", type=float, default=16.0)
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--tolerance", type=float, default=1e-8)
    ap.add_argument("--n-periods", type=int, default=None)
    args = ap.parse_args()
    cfg = PeriodSumConfig(n_periods=args.n_periods, tolerance=args.tolerance)
    for u in (0.5, 0.3):
        t0 = time.perf_counter()
        report = scan_line(u, args.v_min, args.v_max, args.step, cfg=cfg)
        elapsed = time.perf_counter() - t0
        cands = ", ".join(f"{v:.6f}" for v in report.candidate_zeros) or "none"
        print(f"u = {u}: candidates: {cands}  ({len(report.rows)} grid points, {elapsed:.1f}s)")


if __name__ == "__main__":
    main()
