import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vpd
from vpd import nets
from vpd.cli import load_corpus, main
from vpd.event_log import SPAN_LIMIT
from vpd.features import FeatureSpec
from vpd.training import LossSpec, TrainConfig

SRC = Path(vpd.__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """generate -> train -> evaluate on one small corpus, shared across tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["generate", "--preset", "noiseless", "--n-files", "8",
                 "--seed", "3", "--out", str(data)]) == 0

    config = root / "harness.json"
    config.write_text(json.dumps({
        "train": TrainConfig(epochs=6, loss=LossSpec(2.0, 1.0, 0.05),
                             threshold_grid=0.05).to_dict(),
        "window": 4,
        "test_fraction": 0.25,
        "final_hidden": 6,
        "final_dense": 4,
    }))
    checkpoint = root / "model.json"
    assert main(["train", "--config", str(config), "--data", str(data),
                 "--model", "final", "--out", str(checkpoint)]) == 0
    return {"root": root, "data": data, "config": config, "checkpoint": checkpoint}


class TestGenerate:
    def test_writes_logs_and_manifest(self, workspace):
        data = workspace["data"]
        csvs = sorted(data.glob("*.csv"))
        assert len(csvs) == 8
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["config"]["n_files"] == 8
        assert manifest["config"]["seed"] == 3
        assert set(manifest["files"]) == {p.stem for p in csvs}
        for intervals in manifest["files"].values():
            assert all(a <= b for a, b in intervals)

    def test_log_header(self, workspace):
        first = sorted(workspace["data"].glob("*.csv"))[0]
        assert first.read_text().splitlines()[0] == "frame,shield,loop,cor,basic,ref"

    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "synth.json"
        cfg_path.write_text(json.dumps({"n_files": 2, "seed": 9}))
        out = tmp_path / "corpus"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(list(out.glob("*.csv"))) == 2


class TestTrain:
    def test_checkpoint_metadata(self, workspace):
        meta = json.loads(workspace["checkpoint"].read_text())
        assert meta["variant"] == "final"
        assert 0.0 < meta["threshold"] < 1.0
        assert meta["features"]["channels"] == ["shield", "loop", "cor"]
        assert meta["morph"] is not None
        assert meta["train_pq"] > 0.9

    def test_lr_uses_window(self, workspace, tmp_path):
        config = tmp_path / "window.json"
        config.write_text(json.dumps({**json.loads(workspace["config"].read_text()),
                                      "window": 2}))
        out = tmp_path / "lr.json"
        assert main(["train", "--config", str(config),
                     "--data", str(workspace["data"]), "--model", "lr",
                     "--out", str(out)]) == 0
        meta = json.loads(out.read_text())
        assert meta["features"]["window"] == 2

    def test_final_uses_final_settings(self, workspace):
        meta = json.loads(workspace["checkpoint"].read_text())
        assert meta["cell"]["hidden"] == 6 and meta["dense"][0]["out"] == 4

    def test_lstm_is_the_compare_lstm(self, workspace, tmp_path):
        # final_hidden (6 in this config) sizes only the final model
        out = tmp_path / "lstm.json"
        assert main(["train", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--model", "lstm",
                     "--out", str(out)]) == 0
        meta = json.loads(out.read_text())
        assert meta["cell"]["hidden"] == 8 and meta["features"]["window"] == 0
        assert meta["morph"] is None


class TestBadConfig:
    @pytest.mark.parametrize("command, text, problem", [
        ("compare", '{"epochs": 3}', "epochs"),
        ("ablate", '{"epochs": 3}', "epochs"),
        ("train", '{"train": {"epoch": 3}}', "epoch"),
        ("generate", '{"n_file": 3}', "n_file"),
        ("train", '{"train": {"epochs": 0}}', "epochs must be >= 1"),
        ("compare", '{"train": 5}', "TrainConfig"),
        ("generate", '{"passage_len": [10, 5]}', "passage_len"),
        ("compare", '{"window": 4', "Expecting"),
        ("generate", '[1, 2]', "mapping"),
        ("compare", '{"n_folds": 1}', "n_folds"),
        ("ablate", '{"channels": "cor"}', "channels"),
        ("train", '{"channels": "cor"}', "channels"),
    ])
    def test_exits_with_one_line(self, workspace, tmp_path, command, text, problem):
        config = tmp_path / "bad.json"
        config.write_text(text)
        out = tmp_path / "out"
        argv = [command, "--config", str(config), "--out", str(out)]
        if command != "generate":
            argv += ["--data", str(workspace["data"])]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith(f"{config}: ") and problem in message
        assert "\n" not in message and not out.exists()

    @pytest.fixture
    def diverging(self, tmp_path):
        """``vpd train`` arguments of a run whose loss is NaN in its first epoch."""
        data = tmp_path / "data"
        assert main(["generate", "--n-files", "4", "--seed", "1", "--out", str(data)]) == 0
        config = tmp_path / "diverge.json"
        config.write_text(json.dumps({"train": {"epochs": 3, "optimizer": "sgd",
                                                "learning_rate": 1e200, "clip_norm": None}}))
        out = tmp_path / "model.json"
        return config, ["train", "--config", str(config), "--data", str(data),
                        "--out", str(out)], out

    def test_diverged_run(self, diverging):
        config, argv, out = diverging
        with pytest.raises(SystemExit) as exc, np.errstate(over="ignore", invalid="ignore"):
            main(argv)
        message = str(exc.value.code)
        assert message == f"{config}: training diverged: non-finite loss nan at epoch 0"
        assert not out.exists()

    def test_diverged_run_prints_one_line(self, diverging, capfd):
        # a separate process, so that numpy's warnings reach stderr unfiltered
        config, argv, out = diverging
        capfd.readouterr()
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        code = subprocess.run([sys.executable, "-m", "vpd.cli", *argv], env=env,
                              timeout=120).returncode
        assert (code, capfd.readouterr().err) == (
            1, f"{config}: training diverged: non-finite loss nan at epoch 0\n")
        assert not out.exists()

    def test_bad_toml(self, workspace, tmp_path):
        config = tmp_path / "bad.toml"
        config.write_text("window = ")
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--config", str(config), "--data", str(workspace["data"]),
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code).startswith(f"{config}: ")


HEADER = "frame,shield,loop,cor,basic,ref\n"
#: a log one frame longer than ``densify`` realizes
WIDE_LOG = HEADER + f"0,0,0,0,0,0\n{SPAN_LIMIT},1,0,0,0,0\n"
THRESHOLD_ABOVE_ONE = nets.save_model(nets.init_lr(3), extra={
    "features": FeatureSpec().to_dict(), "threshold": 1.5})


class TestBadInput:
    """A checkpoint or log that cannot be read or parsed exits with one line
    naming the file, as a bad config does."""

    @pytest.mark.parametrize("argv, text, problem", [
        ("evaluate --model {bad} --data {data}", '{"variant": "lr"}', "missing 'params'"),
        ("evaluate --model {bad} --data {data}", "not json", "Expecting value"),
        ("evaluate --model {bad} --data {data}", None, "No such file"),
        ("score --pred {bad} --ref {log}", HEADER, "empty log"),
        ("score --pred {log} --ref {bad}", None, "No such file"),
        ("train --data {dir} --out {out}", HEADER + "1,0,2,0,0,0\n", "line 2: loop must be"),
        ("evaluate --model {ckpt} --data {dir}", HEADER + "1,0,1\n", "line 2: expected 6"),
        ("compare --data {dir} --out {out}", "frame,shield\n", "line 1: bad header"),
        ("evaluate --model {bad} --data {data}", '{"variant": "lr", "params": []}',
         "params must be a mapping"),
        ("evaluate --model {bad} --data {data}", THRESHOLD_ABOVE_ONE,
         "threshold must be in (0, 1), got 1.5"),
        ("score --pred {bad} --ref {log}", WIDE_LOG, "above the limit"),
    ], ids=["checkpoint-without-params", "checkpoint-not-json", "checkpoint-missing",
            "score-header-only", "score-missing", "train-non-bit", "evaluate-short-row",
            "compare-bad-header", "checkpoint-params-list", "checkpoint-threshold-above-one",
            "score-wide-span"])
    def test_exits_with_one_line(self, workspace, tmp_path, argv, text, problem):
        bad = tmp_path / "bad.csv"
        if text is not None:
            bad.write_text(text)
        out = tmp_path / "out"
        log = sorted(workspace["data"].glob("*.csv"))[0]
        with pytest.raises(SystemExit) as exc:
            main(argv.format(bad=bad, data=workspace["data"], dir=tmp_path, out=out,
                             log=log, ckpt=workspace["checkpoint"]).split())
        message = str(exc.value.code)
        assert message.startswith(f"{bad}: ") and problem in message
        assert "\n" not in message and not out.exists()

    def test_wide_log_in_data_directory(self, tmp_path):
        # load_corpus, not a command: a command that went on would model 10**7 frames
        bad = tmp_path / "bad.csv"
        bad.write_text(WIDE_LOG)
        with pytest.raises(SystemExit) as exc:
            load_corpus(str(tmp_path))
        assert str(exc.value.code) == (f"{bad}: log spans {SPAN_LIMIT + 1} frames, "
                                       f"above the limit of {SPAN_LIMIT}")

    @pytest.mark.parametrize("flag", ["--pred-channel", "--ref-channel"])
    def test_unknown_channel_is_a_usage_error(self, workspace, flag, capsys):
        log = str(sorted(workspace["data"].glob("*.csv"))[0])
        with pytest.raises(SystemExit) as exc:
            main(["score", "--pred", log, "--ref", log, flag, "bogus"])
        assert exc.value.code == 2
        assert f"argument {flag}: invalid choice" in capsys.readouterr().err


class TestEvaluate:
    def test_report_json(self, workspace, capsys):
        assert main(["evaluate", "--model", str(workspace["checkpoint"]),
                     "--data", str(workspace["data"])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) >= {"r", "sum_err", "pq", "counts"}
        assert report["pq"] > 0.9

    def test_threshold_and_morph_overrides(self, workspace, capsys):
        assert main(["evaluate", "--model", str(workspace["checkpoint"]),
                     "--data", str(workspace["data"]),
                     "--threshold", "0.5", "--morph", "none"]) == 0
        json.loads(capsys.readouterr().out)

    def test_identity_morph_equals_none(self, workspace, capsys):
        reports = []
        for morph in ("none", "1,1,open-then-close"):
            assert main(["evaluate", "--model", str(workspace["checkpoint"]),
                         "--data", str(workspace["data"]), "--morph", morph]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("morph", ["3", "a,b", "0,3", "3,3,sideways"])
    def test_bad_morph_is_a_usage_error(self, workspace, morph, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", str(workspace["checkpoint"]),
                  "--data", str(workspace["data"]), "--morph", morph])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --morph" in err

    @pytest.mark.parametrize("threshold", ["1.5", "-3", "0", "1", "nan", "high"])
    def test_threshold_outside_unit_interval_is_a_usage_error(self, workspace, threshold,
                                                              capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", str(workspace["checkpoint"]),
                  "--data", str(workspace["data"]), "--threshold", threshold])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "argument --threshold" in err

    def test_empty_logs_are_named_and_skipped(self, workspace, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        first = sorted(workspace["data"].glob("*.csv"))[0]
        (data / first.name).write_text(first.read_text())
        (data / "blank.csv").write_text("frame,shield,loop,cor,basic,ref\n")
        assert main(["evaluate", "--model", str(workspace["checkpoint"]),
                     "--data", str(data)]) == 0
        captured = capsys.readouterr()
        assert "blank.csv" in captured.err and first.name not in captured.err
        json.loads(captured.out)

    def test_only_empty_logs_is_an_error(self, workspace, tmp_path, capsys):
        for name in ("a.csv", "b.csv"):
            (tmp_path / name).write_text("frame,shield,loop,cor,basic,ref\n")
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--model", str(workspace["checkpoint"]),
                  "--data", str(tmp_path)])
        assert "no *.csv log files with records" in str(exc.value.code)
        err = capsys.readouterr().err
        assert "a.csv" in err and "b.csv" in err

    def test_missing_data_dir(self, workspace, tmp_path):
        with pytest.raises(SystemExit):
            main(["evaluate", "--model", str(workspace["checkpoint"]),
                  "--data", str(tmp_path / "empty")])


class TestScore:
    def test_basic_channel_against_reference(self, workspace, capsys):
        log = sorted(workspace["data"].glob("*.csv"))[0]
        assert main(["score", "--pred", str(log), "--ref", str(log)]) == 0
        report = json.loads(capsys.readouterr().out)
        # the noiseless rule-based channel equals the reference
        assert report["pq"] == 1.0
        assert report["counts"]["correct"] == report["r"]


class TestCompareAndAblate:
    def test_compare_writes_artifacts(self, workspace, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 0
        rows = json.loads((out / "comparison.json").read_text())
        assert [r["model"] for r in rows] == ["basic", "lr", "mlp", "simplernn",
                                              "lstm", "gru", "final"]
        table = (out / "comparison.txt").read_text()
        assert table.splitlines()[0].startswith("Model")

    def test_ablate_writes_seven_rows(self, workspace, tmp_path):
        out = tmp_path / "abl"
        assert main(["ablate", "--config", str(workspace["config"]),
                     "--data", str(workspace["data"]), "--out", str(out)]) == 0
        rows = json.loads((out / "ablation.json").read_text())
        assert len(rows) == 7
        assert rows[-1]["channels"] == ["shield", "loop", "cor"]


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit):
            main(["train", "--data", "somewhere"])

    def test_train_takes_window_from_config_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", "somewhere", "--out", "x.json", "--window", "2"])
        assert exc.value.code == 2 and "--window" in capsys.readouterr().err
