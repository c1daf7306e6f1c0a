"""End-to-end walkthrough: generate, train, tune the threshold, evaluate.

Trains the stacked model (LSTM -> dense relu -> sigmoid, per-sequence
dropout) on a small noisy corpus, picks the output threshold that maximizes
training-set PQ, applies the morphological post-filter, and scores held-out
files — the same pipeline the experiment harness and CLI run.
"""
import numpy as np

from vpd import nets
from vpd.event_log import densify
from vpd.features import FeatureSpec
from vpd.harness import evaluate_model, score_prediction_channel
from vpd.morphology import MorphFilterSpec
from vpd.synth import generate_corpus, paper_like_preset
from vpd.training import (LossSpec, TrainConfig, select_threshold,
                          sequences_from_series, train, train_test_split)

series = {log.source_id: densify(log)
          for log in generate_corpus(paper_like_preset(n_files=40, seed=3))}
plan = train_test_split(sorted(series), test_fraction=0.25, seed=0)
train_series = [series[i] for i in plan.train_files(1)]
test_series = [series[i] for i in plan.fold_files(1)]
print(f"{len(train_series)} train / {len(test_series)} test files")

spec = FeatureSpec()  # raw (shield, loop, cor) samples; recurrence adds memory
model = nets.init_final(spec.dim, lstm_units=8, dense_units=4,
                        dropout_p=0.2, seed=0)
config = TrainConfig(epochs=8, seed=0,
                     loss=LossSpec(positive_weight=2.0, negative_weight=1.0,
                                   derivative_lambda=0.05))
model, trace = train(model, sequences_from_series(train_series, spec), config)
print(f"training loss: {trace[0]:.4f} -> {trace[-1]:.4f} over {config.epochs} epochs")

morph = MorphFilterSpec()
threshold, train_pq = select_threshold(model, train_series, spec, 0.01,
                                       post_filter=morph)
print(f"selected threshold {threshold:.2f} (train PQ {train_pq:.4f})")

report = evaluate_model(model, threshold, test_series, spec, post_filter=morph)
baseline = score_prediction_channel(test_series)
print(f"test PQ {report.pq:.4f} (R={report.r}, sum_err={report.sum_err}, "
      f"accuracy {report.accuracy:.4f})")
print(f"rule-based channel baseline: PQ {baseline.pq:.4f}")

# the checkpoint format keeps the features, threshold and filter together
text = nets.save_model(model, extra={"features": spec.to_dict(),
                                     "threshold": threshold})
restored, meta = nets.load_model(text)
assert np.array_equal(restored.flat, model.flat)
print(f"checkpoint round trip OK ({len(text)} bytes, threshold "
      f"{meta['threshold']:.2f})")
