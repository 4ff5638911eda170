"""Evaluation scores each tile as it is predicted: the metric sums taken tile by
tile against the whole-frame formulas of ``oracles.whole_frame_metrics``."""

import math
import tracemalloc

import numpy as np
import pytest

from windec import (
    BatchTensor,
    Dataset,
    DegenerateTruth,
    GridPde,
    LearnedStencil,
    PredictorContractError,
    UpwindStencil,
    WindowSpec,
    cli,
    metrics_record,
    windowing,
)
from windec.config import DatasetConfig, ExperimentConfig, PredictorConfig
from oracles import pad_view_integrate, whole_frame_metrics


def _dataset(frame, truth):
    return Dataset("external", [BatchTensor(frame), BatchTensor(truth)],
                   GridPde(dx=1.0, dt=1.0), seed=0)


def _tiled(w, predictor):
    return lambda frame: windowing._predicted_tiles(frame, w, predictor)


def _predictor(kind, w, channels, rng):
    if kind == "upwind":
        return UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.7, -0.4, 0.25)[:w.ndim]), w)
    weights = rng.standard_normal((w.cells * channels, channels))
    return LearnedStencil(w, weights, rng.standard_normal(channels), 0.0)


@pytest.mark.parametrize("kind", ["upwind", "learned"])
@pytest.mark.parametrize("sizes,extents,channels", [
    ((5,), (13,), 1),
    ((3,), (17,), 2),
    ((3, 5), (7, 11), 1),
    ((5, 3), (9, 8), 2),
    ((3, 3, 3), (5, 4, 7), 2),
    ((5, 3, 5), (4, 5, 17), 1),
])
# None: the whole batch in one tile; 23: runs of rows or row pieces with a
# ragged last tile; 1: one cell per tile
@pytest.mark.parametrize("tile_cells", [None, 23, 1])
@pytest.mark.parametrize("zeros", [0, 9])
def test_scoring_matches_the_whole_frame_metrics(monkeypatch, kind, sizes, extents, channels,
                                                 tile_cells, zeros):
    w = WindowSpec(sizes)
    tile_bytes = windowing.TILE_BYTES
    if tile_cells is not None:
        tile_bytes = tile_cells * sizes[-1] * channels * 8
        monkeypatch.setattr(windowing, "TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(41)
    dims = (3, *extents, channels)
    frame, truth = rng.standard_normal(dims), rng.standard_normal(dims)
    truth.flat[rng.choice(truth.size, zeros, replace=False)] = 0.0
    pred = _predictor(kind, w, channels, rng)
    ds = _dataset(frame, truth)
    [(pair, got, excluded)] = cli._evaluate_pairs(ds, [0], _tiled(w, pred), {})
    *want, want_excluded = whole_frame_metrics(
        pad_view_integrate(ds.frames[0], w, pred, tile_bytes), truth)
    assert pair == 0 and excluded == want_excluded == zeros
    for value, expected in zip((got.rel_l2, got.paper_l2, got.r2), want):
        assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("zeros", [0, 37])
def test_one_tile_scores_as_metrics_record(zeros):
    # the global baseline's whole frame is one tile: its sums are metrics_record's
    rng = np.random.default_rng(42)
    truth = rng.standard_normal((2, 33, 35, 2))
    truth.flat[rng.choice(truth.size, zeros, replace=False)] = 0.0
    pred = truth + 0.1 * rng.standard_normal(truth.shape)
    ds = _dataset(np.zeros_like(truth), truth)
    [(_, got, excluded)] = cli._evaluate_pairs(ds, [0], lambda frame: [((), pred)], {})
    assert got == metrics_record(pred, truth)
    assert excluded == int(np.count_nonzero(truth == 0.0)) == zeros


def test_scoring_constant_truth_raises_degenerate_truth(monkeypatch):
    monkeypatch.setattr(windowing, "TILE_BYTES", 3 * 3 * 8)  # several tiles
    w = WindowSpec((3, 3))
    pred = _predictor("learned", w, 1, np.random.default_rng(43))
    frame = np.random.default_rng(44).standard_normal((1, 6, 7, 1))
    ds = _dataset(frame, np.full(frame.shape, 2.5))
    with pytest.raises(DegenerateTruth):
        cli._evaluate_pairs(ds, [0], _tiled(w, pred), {})


class _WrongShape:
    radius = (0, 0)

    def predict_windows(self, windows):
        return windows  # full windows instead of centers


class _NaNAtLastCell:
    radius = (0, 0)

    def predict_windows(self, windows):
        out = np.zeros((*windows.shape[:-3], windows.shape[-1]))
        out.flat[-1] = np.nan
        return out


class _CentersOf:
    """Centers of the right shape whose values are ``value`` (not a real number)."""

    radius = (0, 0)

    def __init__(self, value):
        self.value = value

    def predict_windows(self, windows):
        return np.full((*windows.shape[:-3], windows.shape[-1]), self.value)


@pytest.mark.parametrize("predictor", [_WrongShape(), _NaNAtLastCell(), _CentersOf(1.0 + 2.0j),
                                       _CentersOf(object()), _CentersOf("1.0")],
                         ids=["wrong shape", "NaN", "complex", "object", "string"])
def test_scoring_rejects_broken_predictor_output(monkeypatch, predictor):
    monkeypatch.setattr(windowing, "TILE_BYTES", 9 * 3 * 8)  # one row per tile
    rng = np.random.default_rng(45)
    ds = _dataset(rng.standard_normal((1, 9, 9, 1)), rng.standard_normal((1, 9, 9, 1)))
    with pytest.raises(PredictorContractError):
        cli._evaluate_pairs(ds, [0], _tiled(WindowSpec((3, 3)), predictor), {})


def test_scoring_holds_no_predicted_frame(monkeypatch):
    # a predicted frame and a frame of differences, which whole-frame scoring
    # holds, would take 1 MiB here: eight times the cap
    tile_bytes = 128 * 1024
    monkeypatch.setattr(windowing, "TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(46)
    ds = Dataset("external", [BatchTensor(1.0 + rng.random((1, 256, 256, 1))) for _ in range(2)],
                 GridPde(dx=1.0, dt=1.0), seed=0)
    w = WindowSpec((17, 17))
    cfg = ExperimentConfig(DatasetConfig("advection", (256, 256), 1.0, 1.0, c=(1.0, 0.0)),
                           window=w.sizes, predictor=PredictorConfig("stencil", 1e-8, 1024))
    predict = cli._build_predictor("stencil", cfg, ds, w, [0])
    cli._evaluate_pairs(ds, [0], predict, {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        [(_, got, _)] = cli._evaluate_pairs(ds, [0], predict, {})
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert math.isfinite(got.r2)
    assert 2 * ds.frames[0].data.nbytes >= 8 * tile_bytes
    assert peak < 3 * tile_bytes
