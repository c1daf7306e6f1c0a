"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --workloads sweep_short desk_final --seeds 1 2 3 4 5
    python3 perfbench/sweep.py --seeds 101 102 ... 110 --trace 0 1 --out perfbench/BENCH_1.json

Runs ``run.py`` once per (trace, workload, seed), one after another, and
prints per metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) / median next to the metric's bound in
BENCHMARK.json.  With ``--out`` it writes that summary, every run's values,
every untraced job's wall and calibration time, and the environment stamp
as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace", nargs="+", type=int, default=[0])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"command": spec["command"], "seconds": args.seconds, "seeds": args.seeds,
              "workloads": {}}
    worst = 0.0
    for trace in args.trace:
        for workload in args.workloads:
            values: dict[str, list[float]] = {}
            units: dict[str, str] = {}
            entry = record["workloads"].setdefault(workload, {"inputs": {}})
            attempted = failed = 0
            for seed in args.seeds:
                stamp, result = run_once(workload, seed, args.seconds, trace)
                record["env"] = stamp["env"]
                entry["inputs"][str(seed)] = stamp["inputs"]
                entry.setdefault(f"trace{trace}_job_s_runs", {})[str(seed)] = stamp["job_s_runs"]
                entry.setdefault(f"trace{trace}_cal_s_runs", {})[str(seed)] = stamp["cal_s_runs"]
                attempted += result["attempted"]
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
            summary = {name: {"unit": units[name], **summarize(vals)}
                       for name, vals in values.items()}
            entry[f"trace{trace}"] = {"attempted": attempted, "failed": failed,
                                      "metrics": summary}
            print(f"\n{workload} trace={trace} seeds={args.seeds} "
                  f"failed {failed} of {attempted}")
            for name, row in summary.items():
                flag = ""
                bound = bounds.get(name)
                if bound is not None:
                    flag = f"bound {bound}" + ("  OVER 1/3" if row["spread"] > bound / 3 else "")
                    if name != "setup_s":
                        worst = max(worst, row["spread"] / bound)
                print(f"  {name:42s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                      f"q3 {row['q3']:<12.6g} spread {row['spread']:.4f} {flag}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
