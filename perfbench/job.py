"""Run one workload's job over and over in this process and write the results.

    python3 perfbench/job.py WORKLOAD INPUTS_DIR OUT_DIR SECONDS [--trace]

run.py starts one of these per run (two in a traced run), so that the jobs'
peak resident memory is their own and not that of run.py's set-up.  The jobs
run closed-loop, one after another, and another starts only while it would
end within SECONDS of the first; there is always at least one.  Each job's
wall time excludes the interpreter start and imports.  Right before and
right after each job the process times :func:`calibrate`, a fixed recurrence
that shares no code with ``vpd``, so that run.py can divide the job's time by
the host's speed at that moment.  The first job writes its files under
``OUT_DIR/first`` (run.py checks them), later ones under ``OUT_DIR/last``.
With ``--trace`` the public ``vpd`` functions are wrapped (spans.py) and job
i's spans go to ``OUT_DIR/spans-i.jsonl``.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


CALIBRATE_REPEATS = 5


def calibrate(steps: int = 400) -> float:
    """Seconds for a fixed 16-unit recurrence that shares no code with vpd.

    Like the jobs, it is an interpreter loop over small numpy products, so a
    host that slows the one slows the other too.
    """
    rng = np.random.default_rng(0)
    w, u = rng.standard_normal((64, 12)) * 0.1, rng.standard_normal((64, 16)) * 0.1
    x = rng.standard_normal((steps, 12))
    h = np.zeros(16)
    t0 = time.perf_counter()
    for t in range(steps):
        z = w @ x[t] + u @ h
        h = np.tanh(z[:16]) * (1.0 / (1.0 + np.exp(-z[16:32])))
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("inputs", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("seconds", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    run = workloads.job
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        run = tracer.wrap("job", run)
    results, walls = [], []
    start = time.perf_counter()
    while True:
        out = args.out / ("last" if results else "first")
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        gc.collect()
        before = min(calibrate() for _ in range(CALIBRATE_REPEATS))
        t0 = time.perf_counter()
        result = run(args.workload, args.inputs, out)
        result["job_s"] = time.perf_counter() - t0
        after = min(calibrate() for _ in range(CALIBRATE_REPEATS))
        result["cal_s"] = (before + after) / 2
        walls.append(result["job_s"])
        if tracer is not None:
            tracer.write_jsonl(args.out / f"spans-{len(results)}.jsonl")
            tracer.spans.clear()
        results.append(result)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (args.out / "result.json").write_text(json.dumps({"jobs": results,
                                                      "peak_rss_mb": peak_rss_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
