#!/usr/bin/env python3
"""Self-test of the benchmark: the checker must count each kind of wrong
output as a failure, and each workload must run end to end at tiny size.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The smoke runs drive the real program from ``src`` (one cycle of each
workload, traced and untraced) and take about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from workloads import Request, eval_workload, scan_grid, scan_workload  # noqa: E402

TRUTH = oracle.Truth()


def _eval_output(req: Request, value: complex, abs_err: float) -> dict:
    return {"abs_err": abs_err, "method": req.params["method"], "s": req.argv[2],
            "value_re": value.real, "value_im": value.imag, "work": 1}


def _eval_request() -> Request:
    # A period-sum request: no failure of it is in a known class.
    return next(r for r in eval_workload(3).requests if r.params["method"] == "d")


def _reasons(outcome: checker.Outcome) -> set:
    return set().union(*(v.reasons for v in outcome.verdicts))


def test_eval_checks():
    req = _eval_request()
    z = complex(TRUTH.zeta(complex(*req.params["s"])))
    assert _reasons(checker.check(req, 0, _eval_output(req, z, 1e-12), TRUTH)) == set()
    perturbed = checker.check(req, 0, _eval_output(req, z + 1e-6, 1e-5), TRUTH)
    assert _reasons(perturbed) == {"tol_miss"}
    assert not perturbed.verdicts[0].known
    assert _reasons(checker.check(req, 0, _eval_output(req, z + 1e-10, 1e-11), TRUTH)) == {"err_miss"}
    assert _reasons(checker.check(req, None, None, TRUTH)) == {"raised"}
    assert _reasons(checker.check(req, 3, _eval_output(req, z, 1e-12), TRUTH)) == {"raised"}


def _scan_output(req: Request, candidates: list) -> dict:
    u = req.params["u"]
    rows = []
    for v in scan_grid(req.params["v_min"], req.params["v_max"]):
        r = complex(TRUTH.residual(complex(u, float(v))))
        rows.append({"v": float(v), "re_res": r.real, "im_res": r.imag, "abs_res": abs(r)})
    return {"u": u, "candidates": ";".join(repr(c) for c in candidates),
            "n_candidates": len(candidates), "rows": rows}


def test_scan_checks():
    zeros = [float(g) for g in TRUTH.zeros()]
    req = scan_workload(5, zeros).requests[0]
    assert req.params["u"] == checker.CRITICAL_LINE
    gamma = next(g for g in zeros if req.params["v_min"] < g < req.params["v_max"])
    good = checker.check(req, 0, _scan_output(req, [gamma + 2e-6]), TRUTH)
    assert _reasons(good) == set()
    assert len(good.zero_errs) == 1 and abs(good.zero_errs[0] - 2e-6) < 1e-9
    assert _reasons(checker.check(req, 0, _scan_output(req, []), TRUTH)) == {"zero_missed"}
    extra = checker.check(req, 0, _scan_output(req, [gamma, req.params["v_min"] + 0.02]), TRUTH)
    assert _reasons(extra) == {"zero_spurious"}
    assert not any(v.known for v in extra.verdicts if v.reasons)
    shifted = _scan_output(req, [gamma])
    shifted["rows"][3]["re_res"] += 1e-6
    assert _reasons(checker.check(req, 0, shifted, TRUTH)) == {"tol_miss"}


def _metric_names() -> tuple[dict, dict]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def test_smoke_runs():
    end_to_end, per_layer = _metric_names()
    for name in ("eval", "scan", "reference"):
        for trace, expected in ((False, end_to_end), (True, per_layer)):
            result = run.run(name, seed=1, seconds=0.0, trace=trace, setups=1, smoke=True)
            assert result["correct"], (name, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert {k: m["unit"] for k, m in result["metrics"].items()} == expected


if __name__ == "__main__":
    for test in (test_eval_checks, test_scan_checks, test_smoke_runs):
        test()
        print(f"ok {test.__name__}")
