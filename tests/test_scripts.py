"""Smoke runs of the experiment scripts in scripts/ with tiny arguments: each
must import the library, run to the end and print its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("extra,periods", [((), "from tolerance 1e-08"), (("--n-periods", "200"), "200")],
                         ids=["chosen-n", "pinned-n"])
def test_strip_comparison(extra, periods):
    lines = run_script("strip_comparison.py", "--points", "3", *extra)
    assert f"n_periods: {periods} " in lines[0]
    assert lines[1] == "method,worst_period_sum,worst_closed_form"
    rows = [line.split(",") for line in lines[2:]]
    assert [r[0] for r in rows] == ["d", "e", "f"]
    for _, period_sum, closed in rows:
        assert float(period_sum) <= 1e-6 and float(closed) <= 1e-12


def test_zero_scan_experiment():
    lines = run_script("zero_scan_experiment.py", "--v-min", "14", "--v-max", "14.3", "--step", "0.05")
    assert lines[0].startswith("u = 0.5: candidates: 14.13")
    assert lines[1].startswith("u = 0.3: candidates: none")


def test_certificate_sweep():
    lines = run_script("certificate_sweep.py", "--N", "10")
    assert lines[0] == "c(u) bracket vs truncation:"
    assert lines[-1].endswith("holds = True")
