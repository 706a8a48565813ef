"""Run one workload's requests in a fresh interpreter: one process, one thread,
a closed loop with one client.

Reads a job from stdin (JSON), imports ``dilogzeta`` from the given source
tree, calls ``dilogzeta.cli.main(argv)`` for each request with stdout
captured, and parses the JSON it prints.  Each request's result goes as one
JSON line to ``results_path``; the run's report goes to stdout as one JSON
object.  The first request is the set-up probe: its completion time
(CLOCK_MONOTONIC, comparable with the launcher's clock) ends ``setup_s``.
The timed loop starts after it and runs the following requests, cycling
through the stream, until ``seconds`` have passed.  In untraced runs it also
times a fixed reference kernel between requests, at least
``REFERENCE_EVERY_S`` apart, to gauge the host's speed.  The oracle never
runs in this process, so its peak RSS is the program's own.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


REFERENCE_EVERY_S = 0.25


def reference_kernel():
    """Fixed work owned by the benchmark, run between requests to gauge how
    fast the host runs at that moment: complex numpy transcendentals over 2^16
    points, then interpreter-bound dict, str and JSON work."""
    import numpy as np

    z = np.linspace(0.1, 5.0, 1 << 16) * (1.0 + 1.0j)

    def kernel():
        total = complex(np.sum(np.exp(0.3 * z) * np.sin(z.real) * np.cos(z.imag)))
        table = {str(i): (i * 7) % 13 for i in range(2000)}
        return total, len(json.dumps(table))

    kernel()  # first call pays numpy's one-off costs
    return kernel


def main() -> int:
    job = json.load(sys.stdin)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    from dilogzeta import cli

    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"dilogzeta imported from {cli.__file__}, not from {src}\n")
        return 2

    stream = job["requests"]
    # Results go to a file as they come, so the timed process does not hold
    # every parsed output and its peak RSS stays the program's.
    sink = open(job["results_path"] or os.devnull, "w", encoding="utf-8")

    def call(i: int) -> None:
        k = i % len(stream)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(stream[k])
                failure = None
            except Exception:  # recorded and checked as a raised request
                rc, failure = None, traceback.format_exc(limit=-4)
        try:
            parsed = json.loads(out.getvalue()) if rc is not None else None
        except ValueError:
            parsed = None
        t1 = time.perf_counter()
        note = failure or (err.getvalue()[-400:] if rc else None)
        sink.write(json.dumps([k, rc, parsed, note, t1 - t0, t0]) + "\n")

    with sink:
        call(0)
        t_first = time.clock_gettime(time.CLOCK_MONOTONIC)
        report = {"t_first": t_first}
        if job["setup_only"]:
            json.dump(report, sys.stdout)
            return 0

        tracer = None
        if job["trace"]:
            import spans

            report["calibration"] = spans.calibrate()
            tracer = spans.Tracer()
            tracer.install()
            call = tracer.wrap(call, spans.BENCH)

        kernel = None if tracer else reference_kernel()
        samples = []  # (start, duration) of each reference-kernel run
        last = -REFERENCE_EVERY_S
        i = 1
        t_start = time.perf_counter_ns()
        deadline = t_start + int(job["seconds"] * 1e9)
        while True:
            call(i)
            i += 1
            if kernel is not None and time.perf_counter() - last >= REFERENCE_EVERY_S:
                last = time.perf_counter()
                kernel()
                samples.append((last, time.perf_counter() - last))
            now = time.perf_counter_ns()
            if i - 1 >= job["min_requests"] and now >= deadline:
                break
        wall_ns = now - t_start
        report["reference"] = samples

    report.update(
        wall_s=wall_ns / 1e9,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        report["trace"] = tracer.summary(wall_ns)
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
