"""Command-line front end: generate / train / evaluate / ablate / score."""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import harness, nets, synth
from .event_log import CHANNELS, densify, parse_log, write_log
from .features import FeatureSpec
from .harness import HarnessConfig
from .morphology import MorphFilterSpec
from .passage_metric import extract_intervals, pass_quality
from .training import DivergenceError, fit, sequences_from_series


def _read(path, parse):
    """``parse`` of the text of the file at ``path``; a file that cannot be read
    or that ``parse`` rejects exits with one line naming it and the problem."""
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = f"missing {exc}" if isinstance(exc, KeyError) else exc
        raise SystemExit(f"{path}: {problem}") from None


def _load_config(path: str | None, cls, default):
    """``cls`` read from a JSON (or ``.toml``) file of its fields; ``default``
    without a file or for an empty table."""
    if path is None:
        return default
    def parse(text):
        if Path(path).suffix == ".toml":
            import tomllib
            raw = tomllib.loads(text)
        else:
            raw = json.loads(text)
        return cls.from_dict(raw) if raw != {} else default
    return _read(path, parse)


def _load_checkpoint(text: str):
    """Model, feature spec, threshold and post filter of a ``vpd train`` checkpoint."""
    model, meta = nets.load_model(text)
    morph = MorphFilterSpec.from_dict(meta["morph"]) if meta.get("morph") else None
    threshold = meta.get("threshold", 0.5)
    nets.check_threshold(threshold)
    return model, FeatureSpec.from_dict(meta["features"]), threshold, morph


def _dense_or_none(text: str, source_id: str):
    """Dense series of a log text, or None for a log with no records."""
    log = parse_log(text, source_id=source_id)
    return densify(log) if log.records else None


def load_corpus(data_dir: str) -> dict:
    """Directory of *.csv logs -> {file id: dense FrameSeries}."""
    corpus = {}
    for path in sorted(Path(data_dir).glob("*.csv")):
        series = _read(path, partial(_dense_or_none, source_id=path.stem))
        if series is not None:
            corpus[path.stem] = series
        else:
            print(f"skipping {path.name}: no records", file=sys.stderr)
    if not corpus:
        raise SystemExit(f"no *.csv log files with records in {data_dir}")
    return corpus


def cmd_generate(args) -> int:
    config = _load_config(args.config, synth.SynthConfig, synth.paper_like_preset())
    if args.preset == "noiseless":
        config = replace(config, noise={})
    if args.n_files:
        config = replace(config, n_files=args.n_files)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    logs, truths = synth.generate_dataset(config)
    manifest = {"config": config.to_dict(), "files": {}}
    for log, truth in zip(logs, truths):
        (out / f"{log.source_id}.csv").write_text(write_log(log))
        manifest["files"][log.source_id] = [[iv.start, iv.end] for iv in truth]
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    print(f"wrote {len(logs)} logs and manifest.json to {out}")
    return 0


def cmd_train(args) -> int:
    hconfig = _load_config(args.config, HarnessConfig, HarnessConfig())
    corpus = load_corpus(args.data)
    # the family's setting in `vpd compare`
    setting = {s.tag: s for s in harness.default_zoo(hconfig)}[args.model]
    feature_spec = FeatureSpec(channels=hconfig.channels, window=setting.window)
    dataset = sequences_from_series(list(corpus.values()), feature_spec)
    post = hconfig.morph if setting.use_morph else None
    try:
        # a diverging run overflows on its way to the non-finite loss that ends it
        with np.errstate(over="ignore", invalid="ignore"):
            model, trace, threshold, train_pq = fit(
                setting.build(feature_spec.dim, seed=hconfig.train.seed), dataset,
                hconfig.train, post)
    except DivergenceError as exc:
        raise SystemExit(f"{args.config or 'default config'}: training diverged: {exc}") from None
    extra = {
        "features": feature_spec.to_dict(),
        "threshold": threshold,
        "train_pq": train_pq,
        "morph": post.to_dict() if post else None,
        "train_config": hconfig.train.to_dict(),
        "final_train_loss": trace[-1],
    }
    Path(args.out).write_text(nets.save_model(model, extra=extra))
    print(f"trained {args.model} on {len(dataset)} files: "
          f"final loss {trace[-1]:.5f}, threshold {threshold:.2f}, train PQ {train_pq:.4f}")
    return 0


def _morph_arg(text: str) -> MorphFilterSpec | None:
    """``--morph`` value: ``open_width,close_width[,order]``, or none/off for no filter."""
    if text.lower() in ("none", "off"):
        return None
    parts = text.split(",")
    try:
        if len(parts) not in (2, 3):
            raise ValueError("expected open_width,close_width[,order]")
        return MorphFilterSpec(int(parts[0]), int(parts[1]), *parts[2:])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None


def _threshold_arg(text: str) -> float:
    """``--threshold`` value: a float strictly between 0 and 1."""
    try:
        value = float(text)
        nets.check_threshold(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
    return value


def cmd_evaluate(args) -> int:
    model, feature_spec, threshold, morph = _read(args.model, _load_checkpoint)
    threshold = getattr(args, "threshold", threshold)
    post = getattr(args, "morph", morph)
    corpus = load_corpus(args.data)
    report = harness.evaluate_model(model, threshold, list(corpus.values()),
                                    feature_spec, post_filter=post)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def cmd_experiment(args) -> int:
    """``vpd compare`` / ``vpd ablate``: run, then write ``<stem>.json`` and ``<stem>.txt``."""
    hconfig = _load_config(args.config, HarnessConfig, HarnessConfig())
    corpus = load_corpus(args.data)
    run, stem = ((harness.run_model_comparison, "comparison") if args.command == "compare"
                 else (harness.run_ablation, "ablation"))
    results = run(corpus, hconfig)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{stem}.json").write_text(harness.results_to_json(results))
    table = harness.format_results_table(results)
    (out / f"{stem}.txt").write_text(table + "\n")
    print(table)
    return 0


def cmd_score(args) -> int:
    pred_series, ref_series = (
        _read(path, lambda text: densify(parse_log(text, source_id=path)))
        for path in (args.pred, args.ref))
    pred_iv = extract_intervals(pred_series.channel(args.pred_channel),
                                pred_series.first_frame)
    ref_iv = extract_intervals(ref_series.channel(args.ref_channel),
                               ref_series.first_frame)
    report = pass_quality(ref_iv, pred_iv)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="vpd",
                                     description="Vehicle passage detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic log corpus")
    p.add_argument("--config", help="SynthConfig JSON/TOML file")
    p.add_argument("--preset", choices=["paper-like", "noiseless"], default="paper-like")
    p.add_argument("--n-files", type=int, default=0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model on a log directory")
    p.add_argument("--config", help="HarnessConfig JSON/TOML file")
    p.add_argument("--data", required=True)
    p.add_argument("--model", choices=[t for t in harness.MODEL_TAGS if t != "basic"],
                   default="final")
    p.add_argument("--out", required=True, help="model checkpoint path (JSON)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a trained model on a log directory")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=_threshold_arg, default=argparse.SUPPRESS,
                   help="output threshold in (0, 1) (default: the checkpoint's)")
    p.add_argument("--morph", type=_morph_arg, default=argparse.SUPPRESS,
                   help="open_width,close_width[,order] or 'none' "
                        "(default: the checkpoint's filter)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="final-model feature-subset ablation")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("compare", help="train and score every model family")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("score", help="score a prediction channel against a reference")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--pred-channel", choices=CHANNELS, default="basic_clf")
    p.add_argument("--ref-channel", choices=CHANNELS, default="ref_pass")
    p.set_defaults(func=cmd_score)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
