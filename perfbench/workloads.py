"""The four benchmark workloads: input set-up, the timed job, and output checks.

``setup`` runs in the run.py process, ``job`` in a fresh child process per
job (job.py), ``check`` in run.py after the jobs.  Jobs call
``vpd`` through module attributes (``training.train``, ``cli.load_corpus``)
so that the traced run's wrappers see every call.  Why each workload exists
and which layer it loads is in README.md beside this file.
"""
from __future__ import annotations

import io
import json
import shutil
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import checks
from vpd import cli, event_log, features, harness, morphology, nets, synth, training

HERE = Path(__file__).resolve().parent
CHECKPOINT = HERE / "final_checkpoint.json"

NAMES = ("desk_final", "sweep_short", "eval_long", "score_long")

DESK_FILES = 96           # c7 shape, scaled down: 48 train / 48 test
DESK_EPOCHS = 3           # enough for nets.backward to be most of the job
SWEEP_FILES = 125         # 25 swept / 100 scored one by one
#: passages per long paper-like file: about 1e5 frames for score_long, 5e4 for eval_long
LONG_PASSAGES = {"eval_long": 700, "score_long": 1400}
EVAL_LONG_FILES = 1
SCORE_LONG_FILES = 2
#: share of the corpus a job scores file by file; the rest is trained on or swept
TEST_FRACTION = {"desk_final": 0.5, "sweep_short": 0.8}

#: files each job scores one by one (the per-file operations of a job)
SCORED_FILES = {"desk_final": round(DESK_FILES * TEST_FRACTION["desk_final"]),
                "sweep_short": round(SWEEP_FILES * TEST_FRACTION["sweep_short"]),
                "eval_long": EVAL_LONG_FILES, "score_long": SCORE_LONG_FILES}

#: per-file oracle checks per job output (seeded choice of files)
SAMPLE_REPORTS = 10
SAMPLE_FORWARD = 3


def _long_config(name: str, n_files: int, seed: int) -> synth.SynthConfig:
    base = synth.paper_like_preset(n_files=n_files, seed=seed).to_dict()
    return synth.SynthConfig.from_dict({**base,
                                        "passages_per_file": [LONG_PASSAGES[name]] * 2})


def _corpus_config(name: str, seed: int) -> synth.SynthConfig:
    if name == "desk_final":
        return synth.paper_like_preset(n_files=DESK_FILES, seed=seed)
    if name == "sweep_short":
        return synth.paper_like_preset(n_files=SWEEP_FILES, seed=seed)
    if name == "eval_long":
        return _long_config(name, EVAL_LONG_FILES, seed)
    if name == "score_long":
        return _long_config(name, SCORE_LONG_FILES, seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# set-up: generate the seeded corpus, write it as CSV logs, copy the checkpoint


def setup(name: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs under ``inputs``; return their size."""
    logs, _ = synth.generate_dataset(_corpus_config(name, seed))
    data = inputs / "data"
    for log in logs:
        # eval_long runs `vpd evaluate` once per long log, so each gets a directory
        folder = data / log.source_id if name == "eval_long" else data
        folder.mkdir(parents=True, exist_ok=True)
        (folder / f"{log.source_id}.csv").write_text(event_log.write_log(log))
    if name in ("sweep_short", "eval_long"):
        shutil.copyfile(CHECKPOINT, inputs / "model.json")
    return {"files": len(logs),
            "frames": sum(log.records[-1].frame_no - log.records[0].frame_no + 1
                          for log in logs),
            "records": sum(len(log) for log in logs)}


# ---------------------------------------------------------------------------
# jobs: what a `vpd train` / `vpd evaluate` / `vpd score` user waits for


def _score_each(model, threshold, spec, post, series_by_id) -> tuple[dict, list]:
    reports, file_ms = {}, []
    for fid, series in series_by_id.items():
        t0 = time.perf_counter()
        report = harness.evaluate_model(model, threshold, [series], spec, post_filter=post)
        file_ms.append((time.perf_counter() - t0) * 1e3)
        reports[fid] = report.to_dict()
    return reports, file_ms


def _desk_final(inputs: Path, out: Path) -> dict:
    corpus = cli.load_corpus(str(inputs / "data"))
    plan = training.train_test_split(sorted(corpus), TEST_FRACTION["desk_final"], seed=0)
    train_series = [corpus[f] for f in plan.train_files(1)]
    spec = features.FeatureSpec()
    model = nets.init_final(spec.dim, lstm_units=16, dense_units=8, dropout_p=0.2, seed=0)
    config = training.TrainConfig(
        epochs=DESK_EPOCHS, seed=0,
        loss=training.LossSpec(positive_weight=2.0, negative_weight=1.0,
                               derivative_lambda=0.05))
    model, _ = training.train(model, training.sequences_from_series(train_series, spec),
                              config)
    post = morphology.MorphFilterSpec()
    threshold, _ = training.select_threshold(model, train_series, spec,
                                             config.threshold_grid, post_filter=post)
    (out / "model.json").write_text(nets.save_model(model, extra={
        "features": spec.to_dict(), "threshold": threshold,
        "morph": {"open_width": post.open_width, "close_width": post.close_width,
                  "order": post.order}}))
    reports, file_ms = _score_each(model, threshold, spec, post,
                                   {f: corpus[f] for f in plan.fold_files(1)})
    return {"reports": reports, "file_ms": file_ms, "threshold": threshold,
            "n_files": len(corpus)}


def _sweep_short(inputs: Path, out: Path) -> dict:
    corpus = cli.load_corpus(str(inputs / "data"))
    model, meta = nets.load_model((inputs / "model.json").read_text())
    spec = features.FeatureSpec.from_dict(meta["features"])
    post = morphology.MorphFilterSpec(**meta["morph"])
    plan = training.train_test_split(sorted(corpus), TEST_FRACTION["sweep_short"], seed=0)
    threshold, _ = training.select_threshold(model, [corpus[f] for f in plan.train_files(1)],
                                             spec, 0.01, post_filter=post)
    reports, file_ms = _score_each(model, threshold, spec, post,
                                   {f: corpus[f] for f in plan.fold_files(1)})
    return {"reports": reports, "file_ms": file_ms, "threshold": threshold,
            "n_files": len(corpus)}


def _eval_long(inputs: Path, out: Path) -> dict:
    reports, file_ms = {}, []
    folders = sorted(p for p in (inputs / "data").iterdir() if p.is_dir())
    for folder in folders:
        buf = io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(buf):
            status = cli.main(["evaluate", "--model", str(inputs / "model.json"),
                               "--data", str(folder)])
        file_ms.append((time.perf_counter() - t0) * 1e3)
        if status != 0:
            raise RuntimeError(f"vpd evaluate exited with {status} on {folder.name}")
        reports[folder.name] = json.loads(buf.getvalue())
    return {"reports": reports, "file_ms": file_ms, "n_files": len(folders)}


def _score_long(inputs: Path, out: Path) -> dict:
    corpus = cli.load_corpus(str(inputs / "data"))
    written = out / "logs"
    written.mkdir()
    reports, file_ms, logs = {}, [], []
    for fid, series in corpus.items():
        t0 = time.perf_counter()
        report = harness.score_prediction_channel([series], "basic_clf")
        log = event_log.sparsify(series, source_id=fid)
        (written / f"{fid}.csv").write_text(event_log.write_log(log))
        file_ms.append((time.perf_counter() - t0) * 1e3)
        reports[fid] = report.to_dict()
        logs.append(log)
    stats = synth.corpus_stats(logs)
    return {"reports": reports, "file_ms": file_ms, "n_files": len(corpus),
            "stats": {"files": stats["files"], "frames": stats["frames"],
                      "ref_passages": stats["ref_passages"],
                      "runs": {k: v["runs"] for k, v in stats["channels"].items()}}}


JOBS = {"desk_final": _desk_final, "sweep_short": _sweep_short,
        "eval_long": _eval_long, "score_long": _score_long}


def job(name: str, inputs: Path, out: Path) -> dict:
    """Run one job; the result holds per-file reports and per-file times."""
    return JOBS[name](inputs, out)


# ---------------------------------------------------------------------------
# checks: the first job's outputs against the reference paths in checks.py


def _input_path(name: str, inputs: Path, fid: str) -> Path:
    folder = inputs / "data" / fid if name == "eval_long" else inputs / "data"
    return folder / f"{fid}.csv"


def _check_model_reports(name, inputs, seed, result, model, threshold, meta):
    """Failed file ids among a seeded sample of the job's scored files."""
    ids = sorted(result["reports"])
    rng = np.random.default_rng([seed, 0xC4EC])
    if name == "eval_long":
        # one seeded long log: the fast forward over the whole log decides,
        # the cell_step loop confirms a seeded prefix of it
        fid = ids[int(rng.integers(len(ids)))]
        dense = checks.read_dense(_input_path(name, inputs, fid))
        x = checks.model_inputs(dense, meta["features"])
        probs = nets.forward(model, x)
        prefix = int(rng.integers(2000, 4001))
        ok = np.max(np.abs(probs[:prefix] - checks.reference_forward(model, x[:prefix]))) <= 1e-9
        want = checks.expected_model_report(probs, dense, threshold, meta.get("morph"))
        return [] if ok and checks.same_report(result["reports"][fid], want) else [fid]
    sample = rng.choice(ids, size=min(SAMPLE_REPORTS, len(ids)), replace=False).tolist()
    failed = []
    for i, fid in enumerate(sample):
        dense = checks.read_dense(_input_path(name, inputs, fid))
        x = checks.model_inputs(dense, meta["features"])
        probs = checks.reference_forward(model, x)
        ok = True
        if i < SAMPLE_FORWARD:
            ok = np.max(np.abs(nets.forward(model, x) - probs)) <= 1e-9
        want = checks.expected_model_report(probs, dense, threshold, meta.get("morph"))
        if not (ok and checks.same_report(result["reports"][fid], want)):
            failed.append(fid)
    return failed


def _check_score_long(inputs, result, out):
    ids = sorted(result["reports"])
    failed = set()
    totals = {"files": len(ids), "frames": 0, "ref_passages": 0,
              "runs": {c: 0 for c in checks.COLUMNS[1:]}}
    for fid in ids:
        path = _input_path("score_long", inputs, fid)
        if (out / "logs" / f"{fid}.csv").read_text() != path.read_text():
            failed.add(fid)  # write_log(sparsify(densify(parse_log(text)))) != text
        dense = checks.read_dense(path)
        runs = {c: checks.runs(dense[c]) for c in checks.COLUMNS[1:]}
        totals["frames"] += len(dense["ref_pass"])
        totals["ref_passages"] += len(runs["ref_pass"])
        for c in runs:
            totals["runs"][c] += len(runs[c])
        want = checks.pq_report(runs["ref_pass"], runs["basic_clf"], len(dense["ref_pass"]))
        if not checks.same_report(result["reports"][fid], want):
            failed.add(fid)
    if result["stats"] != totals:
        failed.update(ids)
    return sorted(failed)


def _expected_ids(name: str, inputs: Path) -> list[str]:
    """The files a job must report on, from its inputs alone."""
    if name == "eval_long":
        return sorted(p.name for p in (inputs / "data").iterdir())
    ids = sorted(p.stem for p in (inputs / "data").glob("*.csv"))
    if name == "score_long":
        return ids
    return training.train_test_split(ids, TEST_FRACTION[name], seed=0).fold_files(1)


def check(name: str, inputs: Path, seed: int, result: dict, out: Path) -> list[str]:
    """File ids whose output in ``result`` fails a reference check."""
    expected = _expected_ids(name, inputs)
    if sorted(result["reports"]) != expected:
        return expected
    if name == "score_long":
        return _check_score_long(inputs, result, out)
    model_path = out / "model.json" if name == "desk_final" else inputs / "model.json"
    model, meta = nets.load_model(model_path.read_text())
    threshold = meta["threshold"] if name == "eval_long" else result["threshold"]
    return _check_model_reports(name, inputs, seed, result, model, threshold, meta)
