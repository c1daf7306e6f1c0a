"""The "same numbers" check: a small fixed training run reproduces
``tests/data/golden.json`` (see ``tests/make_golden.py``).

Thresholds, PQs and checkpoint digests are compared exactly, the per-epoch
losses within 1e-12; the clipping run's digests pin the clip's bits.  A
mismatch prints the platform the file was made on beside this one, so that a
numpy, scipy or BLAS change can be told apart from a code change.
"""
import json

import pytest

from make_golden import GOLDEN, compute, platform_info


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def figures():
    return compute()


def _context(golden) -> str:
    return f"golden made on {golden['platform']}, this run on {platform_info()}"


@pytest.mark.parametrize("model", ["final", "lr"])
@pytest.mark.parametrize("key", ["threshold", "train_pq", "test_pq", "checkpoint_sha256"])
def test_exact_figures(golden, figures, model, key):
    assert figures[model][key] == golden["figures"][model][key], _context(golden)


@pytest.mark.parametrize("model", ["final", "lr"])
def test_losses(golden, figures, model):
    expect = golden["figures"][model]["losses"]
    got = figures[model]["losses"]
    assert len(got) == len(expect), _context(golden)
    assert max(abs(a - b) for a, b in zip(got, expect)) <= 1e-12, (got, expect,
                                                                   _context(golden))


def test_long_forward(golden, figures):
    assert figures["long_forward_sha256"] == golden["figures"]["long_forward_sha256"], \
        _context(golden)


@pytest.mark.parametrize("kind", ["lstm", "gru", "simplernn"])
def test_cell_forward(golden, figures, kind):
    assert (figures["cell_forward_sha256"][kind]
            == golden["figures"]["cell_forward_sha256"][kind]), _context(golden)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_clipped_checkpoint(golden, figures, optimizer):
    assert (figures["clipped"][optimizer]["checkpoint_sha256"]
            == golden["figures"]["clipped"][optimizer]["checkpoint_sha256"]), _context(golden)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_clipped_losses(golden, figures, optimizer):
    expect = golden["figures"]["clipped"][optimizer]["losses"]
    got = figures["clipped"][optimizer]["losses"]
    assert len(got) == len(expect), _context(golden)
    assert max(abs(a - b) for a, b in zip(got, expect)) <= 1e-12, (got, expect,
                                                                   _context(golden))
