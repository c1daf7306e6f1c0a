import json

import numpy as np
import pytest

from vpd import harness, nets, training
from vpd.event_log import FrameSeries, densify
from vpd.features import FeatureSpec, window_expand
from vpd.harness import (HarnessConfig, ModelSetting, channel_subsets,
                         default_zoo, evaluate_model, format_results_table,
                         results_to_json, run_ablation, run_model_comparison,
                         score_prediction_channel)
from vpd.morphology import MorphFilterSpec
from vpd.passage_metric import extract_intervals, match_passages, summarize_components
from vpd.synth import generate_corpus, noiseless_preset, paper_like_preset
from vpd.training import DivergenceError, LossSpec, TrainConfig


def load_series(config):
    return {log.source_id: densify(log) for log in generate_corpus(config)}


def make_series(ref, **channels):
    chans = {k: np.array(v, dtype=np.uint8) for k, v in channels.items()}
    chans["ref_pass"] = np.array(ref, dtype=np.uint8)
    return FrameSeries(0, chans)


class TestEvaluateModel:
    def constant_model(self):
        model = nets.init_lr(3, seed=0)
        model.flat[:] = 0.0
        return model

    def test_all_zero_prediction_on_empty_reference(self):
        series = [make_series(np.zeros(40), shield=np.zeros(40),
                              loop=np.zeros(40), cor=np.zeros(40))]
        rep = evaluate_model(self.constant_model(), 0.9, series, FeatureSpec())
        assert rep.pq == 1.0
        assert rep.accuracy == 1.0

    def test_all_one_prediction_counts_false_passage(self):
        series = [make_series(np.zeros(40), shield=np.zeros(40),
                              loop=np.zeros(40), cor=np.zeros(40))]
        rep = evaluate_model(self.constant_model(), 0.3, series, FeatureSpec())
        assert (rep.r, rep.sum_err, rep.pq) == (0, 1, 0.0)
        assert rep.accuracy == 0.0

    def test_composition_oracle(self):
        rng = np.random.default_rng(5)
        series = []
        for _ in range(4):
            n = 60
            ref = np.zeros(n, dtype=np.uint8)
            ref[15:35] = 1
            series.append(make_series(ref, shield=rng.integers(0, 2, n),
                                      loop=rng.integers(0, 2, n),
                                      cor=rng.integers(0, 2, n)))
        spec = FeatureSpec(window=1)
        model = nets.init_mlp(spec.dim, seed=2)
        threshold = 0.45
        rep = evaluate_model(model, threshold, series, spec)
        components = []
        for s in series:
            pred = (nets.forward(model, window_expand(s, spec)) >= threshold)
            components.extend(match_passages(
                extract_intervals(s.channel("ref_pass")),
                extract_intervals(pred.astype(np.uint8))))
        expect = summarize_components(components)
        assert (rep.r, rep.sum_err, rep.counts) == (expect.r, expect.sum_err, expect.counts)

    @pytest.mark.parametrize("threshold", [0.0, 1.0, 1.5, -3.0, float("nan")])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        series = [make_series(np.zeros(10), shield=np.zeros(10),
                              loop=np.zeros(10), cor=np.zeros(10))]
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\)"):
            evaluate_model(self.constant_model(), threshold, series, FeatureSpec())

    def test_bad_threshold_rejected_before_forward(self, monkeypatch):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass ran before the threshold check")

        monkeypatch.setattr(nets, "forward", no_forward)
        series = [make_series(np.zeros(10), shield=np.zeros(10),
                              loop=np.zeros(10), cor=np.zeros(10))]
        with pytest.raises(ValueError, match=r"threshold must be in \(0, 1\), got 1.5"):
            evaluate_model(self.constant_model(), 1.5, series, FeatureSpec())

    def test_morph_filter_changes_flickery_prediction(self):
        # a model reproducing a flickering input channel is cleaned up by closing
        n = 60
        ref = np.zeros(n, dtype=np.uint8)
        ref[20:40] = 1
        noisy = ref.copy()
        noisy[25] = 0
        noisy[30] = 0
        series = [make_series(ref, shield=noisy, loop=noisy, cor=noisy)]
        model = nets.init_lr(3, seed=0)
        model.flat[:] = 0.0
        model.flat[0] = 10.0   # shield weight
        model.flat[3] = -5.0   # bias: idle frames land well below the threshold
        plain = evaluate_model(model, 0.5, series, FeatureSpec())
        filtered = evaluate_model(model, 0.5, series, FeatureSpec(),
                                  post_filter=MorphFilterSpec(3, 3))
        assert plain.counts["split"] == 1
        assert filtered.counts["correct"] == 1
        assert filtered.pq == 1.0


class TestScorePredictionChannel:
    def test_perfect_channel(self):
        ref = np.zeros(30, dtype=np.uint8)
        ref[5:15] = 1
        s = make_series(ref, shield=ref, loop=ref, cor=ref)
        s = FrameSeries(0, {**s.channels, "basic_clf": ref})
        rep = score_prediction_channel([s])
        assert rep.pq == 1.0 and rep.accuracy == 1.0

    def test_noiseless_corpus_basic_is_perfect(self):
        corpus = load_series(noiseless_preset(n_files=5, seed=3))
        rep = score_prediction_channel(list(corpus.values()))
        assert rep.pq == 1.0


class TestSubsets:
    def test_seven_canonical_subsets(self):
        assert channel_subsets() == [
            ("shield",), ("loop",), ("cor",),
            ("shield", "loop"), ("shield", "cor"), ("loop", "cor"),
            ("shield", "loop", "cor")]


@pytest.fixture(scope="module")
def comparison_results():
    corpus = load_series(noiseless_preset(n_files=12, seed=7))
    config = HarnessConfig(
        train=TrainConfig(epochs=6, loss=LossSpec(2.0, 1.0, 0.05),
                          threshold_grid=0.05),
        window=4, test_fraction=0.25, repeats=1, final_hidden=6, final_dense=4)
    return run_model_comparison(corpus, config)


@pytest.fixture(scope="module")
def ablation_results():
    corpus = load_series(noiseless_preset(n_files=8, seed=9))
    config = HarnessConfig(
        train=TrainConfig(epochs=4, threshold_grid=0.1),
        window=2, test_fraction=0.25, final_hidden=4, final_dense=3)
    return run_ablation(corpus, config)


class TestModelComparison:
    @pytest.fixture
    def results(self, comparison_results):
        return comparison_results

    def test_one_row_per_family(self, results):
        assert [r.model_tag for r in results] == list(
            s.tag for s in default_zoo())

    def test_final_row_uses_final_settings(self, results):
        final = results[-1].config["model"]
        assert (final["tag"], final["hidden"], final["dense_units"]) == ("final", 6, 4)

    def test_mlp_row_records_its_width(self, results):
        setting = next(r for r in results if r.model_tag == "mlp").config["model"]
        model = ModelSetting.from_dict(setting).build(in_dim=15, seed=0)
        assert setting["hidden"] == model.dense[0].out_dim == 12

    def test_shared_split_plan(self, results):
        assert len({r.plan_hash for r in results}) == 1

    def test_thresholds_in_unit_interval(self, results):
        for r in results:
            assert all(0.0 < t < 1.0 for t in r.thresholds)

    def test_noiseless_scores_high(self, results):
        # the noiseless corpus is learnable by every family
        for r in results:
            assert r.error is None
            assert r.mean_pq >= 0.8, (r.model_tag, r.mean_pq)

    def test_table_and_json_emission(self, results):
        table = format_results_table(results)
        lines = table.splitlines()
        assert lines[0].split()[:2] == ["Model", "Features"]
        assert len(lines) == 2 + len(results)
        payload = json.loads(results_to_json(results))
        assert len(payload) == len(results)
        assert {row["model"] for row in payload} == {r.model_tag for r in results}
        for row in payload:
            assert set(row) >= {"model", "channels", "mean_pq", "std_pq",
                                "agg_r", "agg_sum_err", "plan_hash"}


class TestTrainingInputs:
    def test_each_training_file_expanded_once(self, monkeypatch):
        # the threshold sweep reuses the inputs that training ran on
        calls = []
        real = training.window_expand
        monkeypatch.setattr(training, "window_expand",
                            lambda s, spec: calls.append(s) or real(s, spec))
        corpus = load_series(noiseless_preset(n_files=4, seed=7))
        config = HarnessConfig(train=TrainConfig(epochs=1, threshold_grid=0.1),
                               test_fraction=0.25)
        [res] = run_model_comparison(corpus, config, [ModelSetting("lr", window=1)])
        train_files = harness._make_plan(corpus, config).train_files(1)
        assert res.error is None and len(train_files) == 3
        assert sorted(map(id, calls)) == sorted(id(corpus[f]) for f in train_files)

    @pytest.mark.parametrize("repeats", [1, 3])
    def test_training_files_expanded_once_per_fold(self, monkeypatch, repeats):
        # the repeats of a fold share one expansion of its training files
        calls = []
        real = training.window_expand
        monkeypatch.setattr(training, "window_expand",
                            lambda s, spec: calls.append(s) or real(s, spec))
        corpus = load_series(noiseless_preset(n_files=8, seed=7))
        config = HarnessConfig(train=TrainConfig(epochs=1, threshold_grid=0.1),
                               test_fraction=0.25, repeats=repeats)
        [res] = run_model_comparison(corpus, config, [ModelSetting("lr", window=1)])
        train_files = harness._make_plan(corpus, config).train_files(1)
        assert res.error is None and len(res.fold_reports) == repeats
        assert len(train_files) == 6 and len(calls) == 6


    def test_held_out_files_expanded_once_per_fold(self, monkeypatch):
        # every repeat's model is scored on one expansion of the held-out files
        calls = []
        real = harness.window_expand
        monkeypatch.setattr(harness, "window_expand",
                            lambda s, spec: calls.append(s) or real(s, spec))
        corpus = load_series(noiseless_preset(n_files=8, seed=7))
        config = HarnessConfig(train=TrainConfig(epochs=1, threshold_grid=0.1),
                               test_fraction=0.25, repeats=3)
        [res] = run_model_comparison(corpus, config, [ModelSetting("lr", window=1)])
        test_files = harness._make_plan(corpus, config).fold_files(1)
        assert res.error is None and len(res.fold_reports) == 3
        assert sorted(map(id, calls)) == sorted(id(corpus[f]) for f in test_files)
        assert len(calls) == 2


class TestDivergence:
    def test_partial_run_gets_no_pq(self, monkeypatch):
        # the second repeat diverges after the first one has been scored
        calls = []
        real_train = training.train

        def train_then_diverge(model, dataset, config):
            calls.append(config.seed)
            if len(calls) == 2:
                raise DivergenceError(3, float("nan"))
            return real_train(model, dataset, config)

        monkeypatch.setattr(training, "train", train_then_diverge)
        corpus = load_series(noiseless_preset(n_files=4, seed=7))
        config = HarnessConfig(train=TrainConfig(epochs=1, threshold_grid=0.1),
                               test_fraction=0.25, repeats=2)
        [res] = run_model_comparison(corpus, config, [ModelSetting("lr", window=1)])
        assert len(calls) == 2 and "epoch 3" in res.error
        assert len(res.fold_reports) == 1
        assert np.isnan(res.mean_pq) and np.isnan(res.std_pq)
        assert res.agg_r is None and res.agg_sum_err is None
        assert format_results_table([res]).splitlines()[2].split()[-4:] == ["-"] * 4
        row = json.loads(results_to_json([res]))[0]
        assert row["mean_pq"] is None and row["std_pq"] is None
        assert row["agg_r"] is None and row["agg_sum_err"] is None


class TestAblation:
    @pytest.fixture
    def results(self, ablation_results):
        return ablation_results

    def test_seven_rows_matching_subsets(self, results):
        assert [r.channels for r in results] == channel_subsets()

    def test_shared_plan_hash(self, results):
        assert len({r.plan_hash for r in results}) == 1

    def test_full_subset_learns_noiseless(self, results):
        full = next(r for r in results if r.channels == ("shield", "loop", "cor"))
        assert full.error is None
        assert full.mean_pq == 1.0

    def test_missing_channel_rejected(self):
        corpus = {"a": make_series(np.zeros(10), shield=np.zeros(10))}
        with pytest.raises(ValueError):
            run_ablation(corpus, HarnessConfig())


class TestConfig:
    def test_round_trip(self):
        cfg = HarnessConfig(train=TrainConfig(epochs=3), window=5,
                            n_folds=4, repeats=2,
                            morph=MorphFilterSpec(3, 5, "open-then-close"))
        assert HarnessConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("fields, error, problem", [
        ({"channels": "cor"}, TypeError, "channels"),
        ({"channels": ()}, ValueError, "channels"),
        ({"channels": ("cor", "cor")}, ValueError, "channels"),
        ({"channels": ("cor", "ref_pass")}, ValueError, "channels"),
        ({"window": -1}, ValueError, "window"),
        ({"n_folds": 1}, ValueError, "n_folds"),
        ({"test_fraction": 0.0}, ValueError, "test_fraction"),
        ({"test_fraction": 1.0}, ValueError, "test_fraction"),
        ({"repeats": 0}, ValueError, "repeats"),
    ])
    def test_bad_fields_rejected(self, fields, error, problem):
        with pytest.raises(error, match=problem):
            HarnessConfig(**fields)

    def test_good_fields_accepted(self):
        cfg = HarnessConfig(channels=("cor",), window=0, n_folds=2, repeats=1)
        assert HarnessConfig.from_dict({"channels": ["cor"]}).channels == ("cor",)
        assert cfg.n_folds == 2

    def test_zoo_follows_config(self):
        zoo = {s.tag: s for s in default_zoo(HarnessConfig(window=3, final_hidden=5,
                                                            final_dense=2,
                                                            final_dropout=0.1))}
        assert zoo["lr"].window == zoo["mlp"].window == 3
        assert zoo["final"] == ModelSetting("final", hidden=5, dense_units=2,
                                            dropout_p=0.1, use_morph=True)
        assert zoo["lstm"].hidden == 8 and not zoo["lstm"].use_morph

    def test_model_setting_build_dims(self):
        for setting in default_zoo():
            model = setting.build(in_dim=6, seed=0)
            if setting.tag == "basic":
                assert model is None
            else:
                probs = nets.forward(model, np.zeros((4, 6)))
                assert probs.shape == (4,)
