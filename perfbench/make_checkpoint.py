"""Regenerate final_checkpoint.json, the fixed model sweep_short and eval_long score with.

    python3 perfbench/make_checkpoint.py

It runs ``vpd generate`` and ``vpd train`` as a user would: a 200-file
paper-like corpus (seed 2016), the final model (LSTM16 -> dense8 relu ->
sigmoid, dropout 0.2), 12 epochs with the c7 loss, and the morph threshold
sweep.  The checkpoint is committed so that changes to training cannot move
those workloads' inputs; the benchmark never runs this script.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from vpd import cli  # noqa: E402


def main() -> int:
    tmp = HERE.parent / ".perfbench" / "make_checkpoint"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        config = tmp / "train.json"
        config.write_text(json.dumps({"train": {
            "epochs": 12, "seed": 0,
            "loss": {"positive_weight": 2.0, "negative_weight": 1.0,
                     "derivative_lambda": 0.05}}}))
        cli.main(["generate", "--n-files", "200", "--seed", "2016", "--out", str(tmp / "data")])
        return cli.main(["train", "--data", str(tmp / "data"), "--model", "final",
                         "--config", str(config), "--out", str(HERE / "final_checkpoint.json")])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
