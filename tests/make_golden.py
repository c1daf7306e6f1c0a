"""Golden figures of a small fixed training run, and the script that rewrites them.

``compute()`` trains the ``final`` model and the windowed ``lr`` baseline for
three epochs on a fixed 20-file paper-like corpus (the c7 recipe, scaled
down) and returns what a "same numbers" change must keep: the selected
thresholds, training and test PQ as ``repr`` strings, the per-epoch training
losses, the sha256 of each saved checkpoint, and the sha256 of a multi-chunk
``forward`` on a long input and of a 2·10⁴-frame ``forward`` of each
recurrent cell kind.  A third run trains the ``final`` model for two epochs
on six of the files with a ``clip_norm`` below most of its gradient norms,
under Adam and under SGD, and keeps its losses and checkpoint digest: the
only figures that change when the clipping changes.  ``tests/test_golden.py``
recomputes it all and compares with ``tests/data/golden.json``.

Run from the repository root to rewrite the file after a change that moves a
figure on purpose (and say in CHANGES.md which figure moved and why)::

    PYTHONPATH=src python tests/make_golden.py
"""
from __future__ import annotations

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import scipy

from vpd import nets, synth
from vpd.event_log import densify
from vpd.features import FeatureSpec
from vpd.harness import evaluate_model
from vpd.morphology import MorphFilterSpec
from vpd.training import (LossSpec, TrainConfig, select_threshold, sequences_from_series,
                          train, train_test_split)

GOLDEN = Path(__file__).parent / "data" / "golden.json"

#: frames of the long ``forward`` input: several ``nets._CHUNK`` chunks and a tail
LONG_FRAMES = 5000

#: frames of the per-cell ``forward`` inputs: long enough to run as lanes
CELL_FRAMES = 20_000

#: ``clip_norm`` of the clipping run, below the gradient norm of most of its updates
CLIP_NORM = 0.15

#: learning rate of each optimizer in the clipping run
CLIP_LEARNING_RATES = {"adam": 1e-2, "sgd": 0.2}


def platform_info() -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "machine": platform.machine(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def _run(model, spec, train_series, test_series, config, morph):
    model, losses = train(model, sequences_from_series(train_series, spec), config)
    threshold, train_pq = select_threshold(model, train_series, spec,
                                           config.threshold_grid, post_filter=morph)
    test_pq = evaluate_model(model, threshold, test_series, spec, post_filter=morph).pq
    checkpoint = nets.save_model(model, extra={"threshold": threshold, "train_pq": train_pq})
    return {"threshold": repr(threshold), "train_pq": repr(train_pq),
            "test_pq": repr(test_pq), "losses": losses,
            "checkpoint_sha256": _sha256(checkpoint)}


def _clipped(spec, train_series, loss) -> dict:
    pairs = sequences_from_series(train_series[:6], spec)
    out = {}
    for optimizer, rate in CLIP_LEARNING_RATES.items():
        model = nets.init_final(spec.dim, lstm_units=16, dense_units=8, dropout_p=0.2, seed=0)
        config = TrainConfig(epochs=2, seed=0, optimizer=optimizer, learning_rate=rate,
                             clip_norm=CLIP_NORM, loss=loss)
        model, losses = train(model, pairs, config)
        out[optimizer] = {"losses": losses,
                          "checkpoint_sha256": _sha256(nets.save_model(model))}
    return out


def compute() -> dict:
    config = synth.paper_like_preset(n_files=20, seed=42)
    series = {log.source_id: densify(log) for log in synth.generate_corpus(config)}
    plan = train_test_split(sorted(series), test_fraction=0.2, seed=0)
    train_series = [series[i] for i in plan.train_files(1)]
    test_series = [series[i] for i in plan.fold_files(1)]

    spec = FeatureSpec()
    final = nets.init_final(spec.dim, lstm_units=16, dense_units=8, dropout_p=0.2, seed=0)
    loss = LossSpec(positive_weight=2.0, negative_weight=1.0, derivative_lambda=0.05)
    final_cfg = TrainConfig(epochs=3, seed=0, loss=loss)
    lr_spec = FeatureSpec(window=8)
    lr = nets.init_lr(lr_spec.dim, seed=0)

    x = np.random.default_rng(0).random((LONG_FRAMES, spec.dim))
    x_cell = np.random.default_rng(1).random((CELL_FRAMES, spec.dim))
    cells = {kind: nets.forward(getattr(nets, f"init_{kind}")(spec.dim, hidden=16, seed=0),
                                x_cell)
             for kind in ("lstm", "gru", "simplernn")}
    return {
        "final": _run(final, spec, train_series, test_series, final_cfg, MorphFilterSpec()),
        "lr": _run(lr, lr_spec, train_series, test_series, TrainConfig(epochs=3, seed=0),
                   None),
        "clipped": _clipped(spec, train_series, loss),
        "long_forward_sha256": _sha256(nets.forward(final, x).tobytes()),
        "cell_forward_sha256": {kind: _sha256(y.tobytes()) for kind, y in cells.items()},
    }


def main() -> None:
    doc = {"platform": platform_info(), "figures": compute()}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
