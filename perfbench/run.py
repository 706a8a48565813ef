#!/usr/bin/env python3
"""The dilogzeta benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload eval --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The command

1. generates the workload's request stream from ``--seed`` (``--print-argv``
   prints it as ``dilogzeta`` command lines and stops);
2. computes the mpmath oracle for every request before timing, cached per
   workload and seed in ``.perfbench_cache/``;
3. starts fresh interpreters (``worker.py``) that drive ``dilogzeta.cli.main``
   in-process as a closed loop with one client: five of them measure set-up
   time, and the middle one also runs the timed loop for ``--seconds``;
4. checks every output row against the oracle (``checker.py``) and prints a
   summary, then one JSON line with ``correct``, ``attempted``, ``failed`` and
   the metrics: the end-to-end ones with ``--trace 0``, the per-layer ones,
   from a run with span wrappers installed (``spans.py``), with ``--trace 1``.

``failed`` counts rows that fail outside the known-defect classes of
``checker.py``; ``correct`` is true when there are none.  Rows in a known
class still count against ``pass_share``.  METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
BUDGET_S = 170.0  # the whole command must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "ops_per_kref": "1/kref",
    "req_kref_p50": "kref",
    "req_kref_p90": "kref",
    "pass_share": "share",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "zeta_reps.calls": "count",
    "zeta_reps.self_s": "s",
    "zeta_reps.err_over_dev": "ratio",
    "mellin.period_sum.calls": "count",
    "mellin.period_sum.periods": "count",
    "mellin.period_sum.self_s": "s",
    "mellin.period_sum.ns_per_period": "ns",
    "mellin.period_sum.err_over_dev": "ratio",
    "mellin.closed.calls": "count",
    "mellin.closed.self_s": "s",
    "mellin.gamma_series.calls": "count",
    "mellin.gamma_series.self_s": "s",
    "specfun.zeta_ref.calls": "count",
    "specfun.zeta_ref.self_s": "s",
    "specfun.zeta_ref.tol_miss": "count",
    "specfun.inc_gamma.calls": "count",
    "specfun.inc_gamma.self_s": "s",
    "zerofree.residual.calls": "count",
    "zerofree.residual.self_s": "s",
    "zerofree.refine.self_s": "s",
    "zerofree.refine_share": "share",
    "zerofree.certify.calls": "count",
    "zerofree.certify.self_s": "s",
    "muntz.calls": "count",
    "muntz.self_s": "s",
    "kernels.kernel_eval.calls": "count",
    "bench.self_s": "s",
    "check.raised": "count",
    "check.tol_miss": "count",
    "check.err_miss": "count",
    "check.zero_missed": "count",
    "check.zero_spurious": "count",
    "check.known": "count",
    "check.fail_share": "share",
    "check.zero_err": "1",
    "trace.wall_s": "s",
    "trace.overhead_share": "share",
}


def build(name: str, seed: int, truth: oracle.Truth) -> workloads.Workload:
    if name == "eval":
        return workloads.eval_workload(seed)
    if name == "scan":
        return workloads.scan_workload(seed, [float(g) for g in truth.zeros()])
    return workloads.reference_workload(seed)


def launch(job: dict, deadline: float) -> dict:
    """Run one worker interpreter to completion and return its report, with
    ``setup_s`` measured from just before the launch."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("time budget spent before the run finished")
    env = {k: v for k, v in os.environ.items() if not k.startswith("DILOG_ZETA_")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t_launch = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, env=env, timeout=remaining,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["t_first"] - t_launch
    return report


def run(name: str, seed: int, seconds: float, trace: bool, setups: int = 5,
        smoke: bool = False) -> dict:
    """One benchmark run; returns the result object that is printed last."""
    deadline = time.monotonic() + BUDGET_S
    truth = oracle.Truth(None if smoke else CACHE / f"{name}-{seed}.json")
    wl = build(name, seed, truth)
    stream = wl.requests[: wl.cycle] if smoke else wl.requests
    for req in stream:
        checker.prefill(req, truth)
    truth.save()

    results_path = CACHE / f"results-{os.getpid()}.jsonl"
    results_path.parent.mkdir(parents=True, exist_ok=True)
    job = {"src": str(SRC), "requests": [req.argv for req in stream], "trace": trace,
           "setup_only": False, "results_path": str(results_path),
           "seconds": 0.0 if smoke else seconds, "min_requests": len(stream) if smoke else 2}
    # Set-up probes go before and after the timed run, so that they sample
    # the same stretch of machine time as the run itself.
    probes = 0 if trace else setups - 1
    probe = {**job, "setup_only": True, "results_path": None}
    setup_times = [launch(probe, deadline)["setup_s"] for _ in range(probes // 2)]
    try:
        report = launch(job, deadline)
        results = [json.loads(line) for line in results_path.read_text().splitlines()]
    finally:
        results_path.unlink(missing_ok=True)
    setup_times.append(report["setup_s"])
    setup_times += [launch(probe, deadline)["setup_s"] for _ in range(probes - probes // 2)]

    outcomes = [checker.check(stream[k], rc, out, truth) for k, rc, out, *_ in results]
    rows = [v for o in outcomes for v in o.verdicts]
    bad = [v for v in rows if v.reasons]
    unexpected = [v for v in bad if not v.known]
    for (k, rc, _, note, *_), o in zip(results, outcomes):
        if any(not v.known for v in o.verdicts if v.reasons):
            print(f"unexpected failure: dilogzeta {shlex.join(stream[k].argv)} -> rc={rc} "
                  f"{sorted(set().union(*(v.reasons for v in o.verdicts)))} {note or ''}".rstrip())

    if trace:
        metrics = layer_metrics(report, outcomes, rows, truth)
    else:
        timed, timed_rows = results[1:], sum(len(o.verdicts) for o in outcomes[1:])
        kref = reference_times([(r[5], r[4]) for r in timed], report["reference"])
        cost = [r[4] / k for r, k in zip(timed, kref)]
        deciles = statistics.quantiles(cost, n=10, method="inclusive")
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_kref": timed_rows / sum(cost),
            "req_kref_p50": deciles[4],
            "req_kref_p90": deciles[8],
            "pass_share": 1.0 - len(bad) / len(rows),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        raw = statistics.quantiles([r[4] for r in timed], n=10, method="inclusive")
        print(f"{name} seed={seed}: {len(timed)} timed requests, {timed_rows} timed rows in "
              f"{report['wall_s']:.3f} s; wall clock {timed_rows / report['wall_s']:.6g} rows/s, "
              f"p50 {raw[4] * 1e3:.6g} ms, p90 {raw[8] * 1e3:.6g} ms; 1 kref = "
              f"{statistics.median(d for _, d in report['reference']) * 1e3:.4g} ms (median of "
              f"{len(report['reference'])}); set-up runs: "
              + " ".join(f"{t:.3f} s" for t in setup_times))
    reasons = {r: sum(r in v.reasons for v in rows) for r in checker.REASONS}
    print(f"checked {len(rows)} rows: {len(bad)} failed ({len(bad) - len(unexpected)} in known "
          f"classes, {len(unexpected)} unexpected); by reason {reasons}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    truth.save()
    return {"correct": not unexpected, "attempted": len(rows), "failed": len(unexpected),
            "metrics": metrics}


def reference_times(requests, samples, nearest: int = 9) -> list:
    """For each (start, latency) request, the median duration of the
    ``nearest`` reference-kernel runs closest in time to its midpoint.

    Host contention on a small shared VM changes the speed of everything for
    stretches of seconds to minutes, by up to 60%.  A request's latency in
    units of the reference kernel timed beside it (kref) cancels most of that:
    measured side by side, the ratio varied by a few percent where the raw
    latency varied by tens of percent."""
    starts = [s for s, _ in samples]
    out = []
    for t0, lat in requests:
        mid = t0 + lat / 2
        i = bisect.bisect(starts, mid)
        near = sorted(samples[max(0, i - nearest):i + nearest], key=lambda s: abs(s[0] - mid))
        out.append(statistics.median(d for _, d in near[:nearest]))
    return out


def _median_ratio(pairs) -> float:
    """Median of abs_err / |value - truth| (0 when there is nothing to rate)."""
    ratios = [err / dev if dev > 0 else float("inf") for err, dev in pairs]
    return statistics.median(ratios) if ratios else 0.0


def layer_metrics(report, outcomes, rows, truth) -> dict:
    tr = report["trace"]
    self_s, calls = tr["self_s"], tr["calls"]
    kernel = {"d_quad": "p", "e_quad": "q", "f_quad": "f"}
    shift = {"d_quad": -2.0, "e_quad": -1.0, "f_quad": -1.0}
    reps, sums, periods, zeta_ref_miss = [], [], 0, 0
    for name, x, y, vx, vy, abs_err, work in tr["captures"]:
        arg, value = complex(x, y), complex(vx, vy)
        if name == "zeta_ref":
            zeta_ref_miss += not oracle.deviation(value, truth.zeta_near(arg)) <= checker.TOLERANCE
        elif name in kernel:
            periods += work
            sums.append((abs_err, oracle.deviation(value, truth.mellin(kernel[name], arg))))
        else:
            reps.append((abs_err, oracle.deviation(value, truth.zeta(arg))))
    period_ns = self_s["mellin.period_sum"] * 1e9
    wall = report["wall_s"]
    cal = report["calibration"]
    overhead_s = (tr["spans"] * cal["span_ns"] + sum(tr["counts"].values()) * cal["count_ns"]) / 1e9
    zero_errs = [e for o in outcomes for e in o.zero_errs]
    values = {f"{layer}.self_s": s for layer, s in self_s.items()}
    values.update({f"{layer}.calls": n for layer, n in calls.items()})
    values.update({
        "zeta_reps.err_over_dev": _median_ratio(reps),
        "mellin.period_sum.periods": periods,
        "mellin.period_sum.ns_per_period": period_ns / periods if periods else 0.0,
        "mellin.period_sum.err_over_dev": _median_ratio(sums),
        "specfun.zeta_ref.tol_miss": zeta_ref_miss,
        "zerofree.refine_share": tr["refine_calls"] / tr["residual_calls"] if tr["residual_calls"] else 0.0,
        "kernels.kernel_eval.calls": tr["counts"]["kernels.kernel_eval"],
        "check.known": sum(bool(v.reasons) and v.known for v in rows),
        "check.fail_share": sum(bool(v.reasons) for v in rows) / len(rows),
        "check.zero_err": max(zero_errs, default=0.0),
        "trace.wall_s": wall,
        "trace.overhead_share": overhead_s / wall,
    })
    for r in checker.REASONS:
        values[f"check.{r}"] = sum(r in v.reasons for v in rows)
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--print-argv", action="store_true",
                    help="print the generated dilogzeta command lines and exit")
    args = ap.parse_args(argv)
    if not (SRC / "dilogzeta" / "cli.py").is_file():
        sys.stderr.write(f"error: no dilogzeta source tree at {SRC}; run from a source checkout\n")
        return 2
    if args.print_argv:
        for req in build(args.workload, args.seed, oracle.Truth()).requests:
            print("dilogzeta " + shlex.join(req.argv))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
