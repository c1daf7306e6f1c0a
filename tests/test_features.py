import numpy as np
import pytest

from vpd.event_log import FrameSeries
from vpd.features import FeatureSpec, window_expand


def make_series(**channels):
    return FrameSeries(0, {k: np.array(v, dtype=np.uint8) for k, v in channels.items()})


class TestSpec:
    def test_dim(self):
        assert FeatureSpec(("shield", "cor"), window=3).dim == 8

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureSpec(())

    def test_rejects_negative_window(self):
        with pytest.raises(ValueError):
            FeatureSpec(("cor",), window=-1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FeatureSpec(("cor", "cor"))

    def test_dict_round_trip(self):
        spec = FeatureSpec(("loop",), window=2)
        assert FeatureSpec.from_dict(spec.to_dict()) == spec


class TestWindowExpand:
    def test_w0_is_raw_samples(self):
        s = make_series(shield=[1, 0], loop=[0, 1], cor=[1, 1])
        out = window_expand(s, FeatureSpec())
        assert out.tolist() == [[1, 0, 1], [0, 1, 1]]

    def test_forced_layout_single_channel(self):
        s = make_series(cor=[1, 0, 1])
        out = window_expand(s, FeatureSpec(("cor",), window=2))
        assert out.tolist() == [[1, 0, 0], [0, 1, 0], [1, 0, 1]]

    def test_length_preserved_for_any_window(self):
        s = make_series(shield=[1, 0, 1, 1, 0], loop=[0, 0, 1, 0, 1], cor=[1, 1, 0, 0, 0])
        for w in range(6):
            out = window_expand(s, FeatureSpec(window=w))
            assert out.shape == (5, 3 * (w + 1))

    def test_slice_oracle_with_padding(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            s = make_series(shield=rng.integers(0, 2, n),
                            loop=rng.integers(0, 2, n))
            w = int(rng.integers(0, 6))
            spec = FeatureSpec(("shield", "loop"), window=w)
            out = window_expand(s, spec)
            base = np.stack([s.channel("shield"), s.channel("loop")], axis=1)
            for t in range(n):
                expect = []
                for lag in range(w + 1):
                    expect.extend(base[t - lag] if t - lag >= 0 else [0, 0])
                assert out[t].tolist() == expect

    def test_padding_count(self):
        s = make_series(cor=np.ones(10, dtype=np.uint8))
        w = 4
        out = window_expand(s, FeatureSpec(("cor",), window=w))
        for t in range(10):
            zeros = int(np.sum(out[t] == 0))
            assert zeros == max(w - t, 0)

    def test_missing_channel(self):
        s = make_series(cor=[1, 0])
        with pytest.raises(KeyError):
            window_expand(s, FeatureSpec(("loop",)))

