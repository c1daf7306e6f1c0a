"""Vehicle passage detection from multichannel binary checkpoint-sensor logs."""

from .event_log import (EventLog, EventRecord, FrameSeries, densify, parse_log,
                        sparsify, write_log)
from .features import FeatureSpec, window_expand
from .harness import (ExperimentResult, HarnessConfig, evaluate_model,
                      run_ablation, run_model_comparison)
from .morphology import MorphFilterSpec, closing, opening
from .nets import (ModelParams, backward, cell_step, decide, forward, init_final,
                   init_gru, init_lr, init_lstm, init_mlp, init_simplernn,
                   load_model, save_model)
from .passage_metric import (Interval, MatchComponent, PQReport,
                             extract_intervals, match_passages,
                             pass_quality, score_signals)
from .synth import SynthConfig, corpus_stats, generate_corpus, generate_dataset
from .training import (LossSpec, SplitPlan, TrainConfig, fit, make_splits,
                       select_threshold, sequences_from_series, train, train_test_split)

__version__ = "0.1.0"
