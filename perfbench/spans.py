"""Outside-in span tracer for the benchmark's traced runs.

The tracer wraps public ``vpd`` functions where their callers look them up:
every ``vpd`` module namespace that holds the function object gets the
wrapper, and ``MorphFilterSpec.__call__`` is replaced on the class.  Nothing
inside ``src/`` changes.  Spans are kept in memory as
``[id, name, start, end, parent id, count]`` and written as JSON lines when
the job ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time


def _len_out(args, kwargs, out):
    return len(out)


def _records(args, kwargs, out):
    return len(out.records)


def _frames_in(args, kwargs, out):
    return len(args[1])


def _pq_evals(args, kwargs, out):
    """Thresholds on the sweep grid times files swept."""
    step = args[3] if len(args) > 3 else kwargs.get("grid_step", 0.01)
    n = int(math.ceil(1.0 / step))
    grid = sum(1 for i in range(1, n) if i * step < 1.0)
    series = args[1] if len(args) > 1 else kwargs["series_list"]
    return grid * len(series)


#: (span name, module, attribute, count of work done by one call)
TARGETS = (
    ("event_log.parse_log", "vpd.event_log", "parse_log", _records),
    ("event_log.densify", "vpd.event_log", "densify", _len_out),
    ("event_log.write_log", "vpd.event_log", "write_log", None),
    ("event_log.sparsify", "vpd.event_log", "sparsify", None),
    ("features.window_expand", "vpd.features", "window_expand", None),
    ("nets.forward", "vpd.nets", "forward", _len_out),
    ("nets.backward", "vpd.nets", "backward", _frames_in),
    ("training.train", "vpd.training", "train", None),
    ("training.select_threshold", "vpd.training", "select_threshold", _pq_evals),
    ("morphology.filter", "vpd.morphology", "MorphFilterSpec.__call__", None),
    ("passage_metric.extract_intervals", "vpd.passage_metric", "extract_intervals", None),
    ("passage_metric.match_passages", "vpd.passage_metric", "match_passages", _len_out),
    ("passage_metric.summarize_components", "vpd.passage_metric",
     "summarize_components", None),
    ("harness.evaluate_model", "vpd.harness", "evaluate_model", None),
    ("harness.score_prediction_channel", "vpd.harness", "score_prediction_channel", None),
    ("synth.corpus_stats", "vpd.synth", "corpus_stats", None),
    ("synth.generate_dataset", "vpd.synth", "generate_dataset", None),
    ("cli.load_corpus", "vpd.cli", "load_corpus", None),
)


class Tracer:
    """In-memory span recorder; one per process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, 0]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            return out

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace each target in every ``vpd`` namespace that refers to it."""
        for name, module_name, attr, count in targets:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                setattr(owner, fn_name, self.wrap(name, getattr(owner, fn_name), count))
                continue
            fn = getattr(module, attr)
            wrapped = self.wrap(name, fn, count)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "vpd" and not mod_name.startswith("vpd."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, count in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "count": count}) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summarize(spans: list[dict]) -> dict:
    """Per span name: calls, count total, inclusive seconds and self seconds.

    Inclusive time sums only the outermost span of each name, so a name nested
    in itself is not counted twice.  Self time is a span's duration minus the
    durations of its direct children; over all spans it adds up to the root's
    duration.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, dict] = {}
    for s in spans:
        dur = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"calls": 0, "count": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["count"] += s["count"]
        row["self_s"] += dur - child_time[s["id"]]
        parent = s["parent"]
        while parent is not None and by_id[parent]["name"] != s["name"]:
            parent = by_id[parent]["parent"]
        if parent is None:
            row["s"] += dur
    return out


#: per-layer metrics of a traced job, in BENCHMARK.json order: name -> unit
LAYER_UNITS = {
    "event_log.parse_log.s": "s", "event_log.parse_log.us_per_record": "us",
    "event_log.densify.s": "s", "event_log.densify.ns_per_frame": "ns",
    "event_log.write_log.s": "s", "event_log.sparsify.s": "s",
    "features.window_expand.s": "s", "features.window_expand.calls_per_file": "ratio",
    "nets.backward.s": "s", "nets.backward.us_per_frame": "us",
    "nets.forward.s": "s", "nets.forward.us_per_frame": "us",
    "nets.forward.passes_per_file": "ratio",
    "training.train.s": "s", "training.train.self_s": "s",
    "training.select_threshold.s": "s", "training.select_threshold.self_s": "s",
    "training.pq_evals": "count",
    "morphology.filter.s": "s", "morphology.filter.calls": "count",
    "morphology.filter.us_per_call": "us",
    "passage_metric.extract_intervals.s": "s", "passage_metric.extract_intervals.calls": "count",
    "passage_metric.match_passages.s": "s", "passage_metric.match_passages.calls": "count",
    "passage_metric.components": "count", "passage_metric.summarize_components.s": "s",
    "harness.evaluate_model.s": "s", "harness.evaluate_model.self_s": "s",
    "harness.score_prediction_channel.s": "s", "synth.corpus_stats.s": "s",
    "cli.load_corpus.s": "s", "synth.generate_dataset.s": "s",
    "trace.job_s": "s", "trace.unattributed_frac": "ratio", "trace.overhead_frac": "ratio",
    "file_ms.p50": "ms", "file_ms.p90": "ms", "job.wall_s": "s", "job.cal_ms": "ms",
}

#: per-layer metrics run.py measures itself rather than from a traced job's spans
RUN_METRICS = ("synth.generate_dataset.s", "trace.overhead_frac", "file_ms.p50",
               "file_ms.p90", "job.wall_s", "job.cal_ms")


def layer_metrics(summary: dict, n_files: int) -> dict:
    """Per-layer metrics of one traced job from its :func:`summarize` table.

    A layer the job never called reads 0.  The :data:`RUN_METRICS` are not
    computed here.
    """
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    out = {f"{name}.s": get(name, "s") for name, *_ in TARGETS
           if name != "synth.generate_dataset"}
    for layer in ("training.train", "training.select_threshold", "harness.evaluate_model"):
        out[f"{layer}.self_s"] = get(layer, "self_s")
    for layer in ("morphology.filter", "passage_metric.extract_intervals",
                  "passage_metric.match_passages"):
        out[f"{layer}.calls"] = get(layer, "calls")
    out["event_log.parse_log.us_per_record"] = per(
        get("event_log.parse_log", "s"), get("event_log.parse_log", "count"), 1e6)
    out["event_log.densify.ns_per_frame"] = per(
        get("event_log.densify", "s"), get("event_log.densify", "count"), 1e9)
    out["features.window_expand.calls_per_file"] = per(
        get("features.window_expand", "calls"), n_files, 1)
    for layer in ("nets.backward", "nets.forward"):
        out[f"{layer}.us_per_frame"] = per(get(layer, "s"), get(layer, "count"), 1e6)
    out["nets.forward.passes_per_file"] = per(get("nets.forward", "calls"), n_files, 1)
    out["training.pq_evals"] = get("training.select_threshold", "count")
    out["morphology.filter.us_per_call"] = per(
        get("morphology.filter", "s"), get("morphology.filter", "calls"), 1e6)
    out["passage_metric.components"] = get("passage_metric.match_passages", "count")
    out["trace.job_s"] = get("job", "s")
    out["trace.unattributed_frac"] = per(get("job", "self_s"), get("job", "s"), 1)
    return out
