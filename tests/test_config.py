import json

import pytest

from vpd.features import FeatureSpec
from vpd.harness import HarnessConfig, ModelSetting
from vpd.morphology import MorphFilterSpec
from vpd.synth import ChannelNoise, SynthConfig, paper_like_preset
from vpd.training import LossSpec, TrainConfig

LOSS = LossSpec(2.0, 1.0, 0.05)
MORPH = MorphFilterSpec(3, 5, "open-then-close")

#: one non-default instance of every config class
CONFIGS = [
    LOSS,
    TrainConfig(epochs=3, optimizer="sgd", loss=LOSS, clip_norm=None),
    FeatureSpec(("loop", "cor"), window=2),
    MORPH,
    ChannelNoise(edge_jitter=2, blip_len=(2, 5), merge_prob=0.5),
    paper_like_preset(n_files=5, seed=3),
    ModelSetting("final", hidden=6, dense_units=4, use_morph=True),
    HarnessConfig(train=TrainConfig(epochs=3, loss=LOSS), channels=("shield", "cor"),
                  n_folds=3, morph=MORPH, final_hidden=6),
]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: type(c).__name__)
class TestDictConfig:
    def test_round_trip(self, config):
        assert type(config).from_dict(config.to_dict()) == config
        # JSON has no tuples: tuple fields come back as lists
        text = json.dumps(config.to_dict())
        assert type(config).from_dict(json.loads(text)) == config

    def test_unknown_key_is_named(self, config):
        with pytest.raises(ValueError, match="bogus_key"):
            type(config).from_dict({**config.to_dict(), "bogus_key": 1})


class TestNested:
    def test_nested_dicts_become_configs(self):
        cfg = HarnessConfig.from_dict({"train": {"loss": {"positive_weight": 3.0}},
                                       "morph": {"open_width": 5}})
        assert cfg.train == TrainConfig(loss=LossSpec(positive_weight=3.0))
        assert cfg.morph == MorphFilterSpec(open_width=5)

    def test_nested_instances_are_kept(self):
        train = TrainConfig(epochs=2)
        assert HarnessConfig.from_dict({"train": train}).train is train

    @pytest.mark.parametrize("bad", [5, "adam", [1, 2]])
    def test_nested_non_mapping_rejected(self, bad):
        with pytest.raises(TypeError, match="TrainConfig"):
            HarnessConfig.from_dict({"train": bad})

    def test_nested_unknown_key_is_named(self):
        with pytest.raises(ValueError, match="epoch"):
            HarnessConfig.from_dict({"train": {"epoch": 3}})

    def test_noise_dicts_become_channel_noise(self):
        cfg = SynthConfig.from_dict({"noise": {"cor": {"blip_len": [2, 4]}}})
        assert cfg.noise["cor"] == ChannelNoise(blip_len=(2, 4))

    def test_post_init_still_validates(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig.from_dict({"epochs": 0})
