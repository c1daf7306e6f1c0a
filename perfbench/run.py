"""Benchmark of the vpd train -> tune -> score pipeline, end to end and per layer.

    python3 perfbench/run.py --workload sweep_short --seed 1 --seconds 25 --trace 0

One run is one workload.  It builds the workload's inputs from the seed
``SETUP_REPEATS`` times, half before and half after the jobs (``setup_s`` is
their median), and runs the job closed-loop in one child process (job.py)
for ``--seconds``, one job after another.  ``job_cal`` is the median over the jobs of each job's wall time
divided by the time of job.py's fixed calibration recurrence around it.
After the jobs it checks the first job's outputs against the reference
paths in checks.py and every later job's outputs against the first's.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` an untraced and then a traced child each run the job for half
of ``--seconds``, and the result holds the per-layer metrics of the traced
jobs (medians), the tracing overhead, and the per-file times of the
untraced jobs.  The last line of standard output is the result JSON; the
line before it stamps the environment and the input sizes.
"""
from __future__ import annotations

import os

# one BLAS thread: the matrices are small, and a second thread on a shared
# 2-vCPU host measures the scheduler, not the program (set before numpy loads)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

#: set-ups per run, half before the jobs and half after, so that setup_s
#: samples the host at both ends of the run rather than at one instant
SETUP_REPEATS = 6

#: spans that must fire in a traced job of each workload (the layers it loads)
EXPECTED_SPANS = {
    "desk_final": ("cli.load_corpus", "features.window_expand", "nets.backward",
                   "nets.forward", "training.train", "training.select_threshold",
                   "harness.evaluate_model"),
    "sweep_short": ("nets.forward", "training.select_threshold", "morphology.filter",
                    "passage_metric.extract_intervals", "passage_metric.match_passages",
                    "passage_metric.summarize_components", "harness.evaluate_model"),
    "eval_long": ("cli.load_corpus", "nets.forward", "harness.evaluate_model"),
    "score_long": ("cli.load_corpus", "event_log.parse_log", "event_log.densify",
                   "event_log.write_log", "event_log.sparsify",
                   "passage_metric.extract_intervals", "passage_metric.match_passages",
                   "passage_metric.summarize_components",
                   "harness.score_prediction_channel", "synth.corpus_stats"),
}


def _blas_threads():
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
            "blas_threads": _blas_threads()}


def job_cal(jobs: list[dict]) -> float:
    """Median over jobs of job wall time / calibration time (README.md says why)."""
    return statistics.median(res["job_s"] / res["cal_s"] for res in jobs)


def run_jobs(workload: str, inputs: Path, out: Path, seconds: float, traced: bool):
    """The job.py result (its jobs and peak memory), or None if it failed."""
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "job.py"), workload, str(inputs), str(out), str(seconds)]
    if traced:
        cmd.append("--trace")
    timeout = seconds + 120.0
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} jobs timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"perfbench: {workload} job exited with {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads((out / "result.json").read_text())


def pq_of(reports: dict) -> float:
    r = sum(rep["r"] for rep in reports.values())
    err = sum(rep["sum_err"] for rep in reports.values())
    return r / (r + err) if r + err else 1.0


def count_failures(workload, inputs, seed, runs) -> tuple[int, int]:
    """(attempted, failed) file operations over all jobs of the run.

    ``runs`` holds (job.py result or None, its output directory); a child
    that failed counts as one job whose every file failed.
    """
    import workloads

    per_job = workloads.SCORED_FILES[workload]
    jobs = [res for run, _ in runs if run is not None for res in run["jobs"]]
    lost = sum(run is None for run, _ in runs)
    attempted = per_job * (len(jobs) + lost)
    failed = per_job * lost
    if not jobs:
        return attempted, failed
    first = jobs[0]
    first_out = next(out for run, out in runs if run is not None) / "first"
    try:
        bad = set(workloads.check(workload, inputs, seed, first, first_out))
    except Exception as exc:  # an unreadable output fails every file, not the run
        print(f"perfbench: output check raised {exc!r}", file=sys.stderr)
        return attempted, attempted
    for res in jobs:
        differs = set(bad)
        same_extra = all(res.get(k) == first.get(k) for k in ("threshold", "stats"))
        for fid, rep in first["reports"].items():
            if not same_extra or res["reports"].get(fid) != rep:
                differs.add(fid)
        failed += len(differs)
    return attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("desk_final", "sweep_short", "eval_long", "score_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, still kill and reap the job process and remove the run's files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "vpd" / "__init__.py").is_file():
        print(f"perfbench: no vpd package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_tracer = None
        if args.trace:
            setup_tracer = spans.Tracer()
            setup_tracer.install([t for t in spans.TARGETS if t[0] == "synth.generate_dataset"])
        inputs = work / "inputs"
        setup_s = []

        def set_up(times: int) -> dict:
            for _ in range(times):
                shutil.rmtree(inputs, ignore_errors=True)
                t0 = time.perf_counter()
                size = workloads.setup(args.workload, args.seed, inputs)
                setup_s.append(time.perf_counter() - t0)
            return size

        size = set_up(SETUP_REPEATS // 2)

        seconds = args.seconds / 2 if args.trace else args.seconds
        plain_out = work / "plain"
        plain = run_jobs(args.workload, inputs, plain_out, seconds, traced=False)
        runs = [(plain, plain_out)]
        if args.trace:
            traced_out = work / "traced"
            traced = run_jobs(args.workload, inputs, traced_out, seconds, traced=True)
            runs.append((traced, traced_out))
        set_up(SETUP_REPEATS - SETUP_REPEATS // 2)

        attempted, failed = count_failures(args.workload, inputs, args.seed, runs)
        if plain is None:
            print("perfbench: the untraced jobs did not complete", file=sys.stderr)
            return 1
        job_s = [res["job_s"] for res in plain["jobs"]]
        stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "env": environment(), "inputs": size,
                 "jobs": len(job_s), "setup_s_runs": setup_s, "job_s_runs": job_s,
                 "cal_s_runs": [res["cal_s"] for res in plain["jobs"]]}

        if not args.trace:
            metrics = {
                "setup_s": (statistics.median(setup_s), "s"),
                "job_cal": (job_cal(plain["jobs"]), "ratio"),
                "test_pq": (pq_of(plain["jobs"][0]["reports"]), "ratio"),
                "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            }
        else:
            if traced is None:
                print("perfbench: the traced jobs did not complete", file=sys.stderr)
                return 1
            per_job = []
            for i, res in enumerate(traced["jobs"]):
                summary = spans.summarize(spans.read_jsonl(traced_out / f"spans-{i}.jsonl"))
                missing = [n for n in EXPECTED_SPANS[args.workload]
                           if summary.get(n, {}).get("calls", 0) == 0]
                if missing:
                    print(f"perfbench: spans that must fire on {args.workload} did not: "
                          f"{missing}", file=sys.stderr)
                    return 3
                self_total = sum(row["self_s"] for row in summary.values())
                if abs(self_total - res["job_s"]) > 1e-4 * res["job_s"]:
                    print(f"perfbench: self times add up to {self_total} s, "
                          f"traced job took {res['job_s']} s", file=sys.stderr)
                    return 3
                per_job.append(spans.layer_metrics(summary, res["n_files"]))
            gen = [s[3] - s[2] for s in setup_tracer.spans]
            if not gen:
                print("perfbench: synth.generate_dataset did not fire in set-up",
                      file=sys.stderr)
                return 3
            shutil.copyfile(traced_out / "spans-0.jsonl",
                            SCRATCH / f"{args.workload}-seed{args.seed}.spans.jsonl")
            untraced = job_cal(plain["jobs"])
            traced_cal = job_cal(traced["jobs"])
            file_ms = [ms for res in plain["jobs"] for ms in res["file_ms"]]
            stamp["traced_jobs"] = len(traced["jobs"])
            stamp["file_samples"] = len(file_ms)
            metrics = {name: (statistics.median(m[name] for m in per_job), unit)
                       for name, unit in spans.LAYER_UNITS.items()
                       if name not in spans.RUN_METRICS}
            metrics["synth.generate_dataset.s"] = (statistics.median(gen), "s")
            metrics["trace.overhead_frac"] = ((traced_cal - untraced) / untraced, "ratio")
            metrics["job.wall_s"] = (statistics.median(job_s), "s")
            metrics["job.cal_ms"] = (statistics.median(res["cal_s"] for res in plain["jobs"])
                                     * 1e3, "ms")
            metrics["file_ms.p50"] = (statistics.median(file_ms), "ms")
            p90 = (statistics.quantiles(file_ms, n=10, method="inclusive")[8]
                   if len(file_ms) > 1 else file_ms[0])
            metrics["file_ms.p90"] = (p90, "ms")
            metrics = {name: metrics[name] for name in spans.LAYER_UNITS}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"perfbench": stamp}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
