import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from windec import (
    BatchTensor,
    DiffusionStencil,
    DivisibilityError,
    ExpansionRecord,
    GridPde,
    IdentityPredictor,
    LearnedStencil,
    PredictorContractError,
    ProbeDomainTooSmall,
    RankError,
    Shape,
    ShapeMismatchError,
    UpwindStencil,
    WindowSpec,
    chunk_domain,
    expand_domain,
    impulse,
    integrate_predictions,
    receptive_field_probe,
    window_offsets,
    window_patch,
)
from windec import windowing
from windec.windowing import apply_dense_stencil, window_view
from oracles import (
    brute_offsets,
    chunk_batch_index,
    convolve_stencil_full,
    expansion_formula,
    gather_window,
    offset_sweep_integrate,
    slice_region,
    split_stack_chunk,
    upwind_full,
)


def rand_tensor(rng, dims):
    return BatchTensor(rng.standard_normal(dims))


# --- WindowSpec / ExpansionRecord ---------------------------------------------


def test_window_spec_rejects_even_and_tiny():
    with pytest.raises(ShapeMismatchError):
        WindowSpec((4,))
    with pytest.raises(ShapeMismatchError):
        WindowSpec((3, 1))
    assert WindowSpec((5, 3)).radius == (2, 1)


def test_expand_9x9_w3_gives_11x11():
    t = BatchTensor(np.zeros((1, 9, 9, 1)))
    _, rec = expand_domain(t, WindowSpec((3, 3)))
    assert rec.expanded == (11, 11)
    assert rec.blocks == (3, 3)


def test_expand_7x7_w3_step1_is_9x9_expanded_11x11():
    rng = np.random.default_rng(0)
    t = rand_tensor(rng, (1, 7, 7, 1))
    grown, rec = expand_domain(t, WindowSpec((3, 3)))
    assert rec.step1 == (9, 9)
    assert rec.expanded == (11, 11)
    assert rec.blocks == (3, 3)
    assert grown.dims == (1, 11, 11, 1)
    # original sits at the lead offset, everything else is exactly zero
    assert np.array_equal(grown.data[:, 1:8, 1:8, :], t.data)
    assert math.fsum(grown.data.ravel()) == math.fsum(t.data.ravel())


def test_expand_rank_mismatch():
    t = BatchTensor(np.zeros((1, 9, 9, 1)))
    with pytest.raises(RankError):
        expand_domain(t, WindowSpec((3,)))


@given(st.integers(1, 64), st.sampled_from([3, 5, 7, 9, 11]))
def test_expansion_formulas(n, w):
    rec = ExpansionRecord.for_grid((n,), WindowSpec((w,)))
    expanded, blocks = expansion_formula(n, w)
    assert rec.expanded == (expanded,)
    assert rec.blocks == (blocks,)
    assert rec.step1 == (blocks * w,)
    assert rec.step1[0] >= n
    assert rec.lead == (w // 2,)


def test_slice_recovers_expanded_field():
    rng = np.random.default_rng(1)
    t = rand_tensor(rng, (1, 9, 9, 1))
    grown, rec = expand_domain(t, WindowSpec((3, 3)))
    back = slice_region(grown, rec.lead, rec.original)
    assert back.equals(t)


# --- chunk_domain / window_patch ----------------------------------------------


def test_chunk_canonical_shape():
    rng = np.random.default_rng(2)
    t = rand_tensor(rng, (4, 9, 9, 1))
    assert chunk_domain(t, (3, 3)).dims == (36, 3, 3, 1)


def test_chunk_unit_blocks_identity():
    rng = np.random.default_rng(3)
    t = rand_tensor(rng, (2, 4, 6, 1))
    assert chunk_domain(t, (1, 1)).equals(t)


def test_chunk_windows_match_hyper_rectangles():
    rng = np.random.default_rng(4)
    t = rand_tensor(rng, (4, 9, 9, 1))
    blocks = (3, 3)
    chunked = chunk_domain(t, blocks)
    for j1 in range(3):
        for j2 in range(3):
            for b in range(4):
                k = chunk_batch_index(4, blocks, b, (j1, j2))
                expected = gather_window(t.data[b : b + 1], (3, 3), (j1, j2))
                assert np.array_equal(chunked.data[k : k + 1], expected)


def test_chunk_divisibility_error():
    t = BatchTensor(np.zeros((1, 9, 8, 1)))
    with pytest.raises(DivisibilityError):
        chunk_domain(t, (3, 3))


def test_patch_canonical_shape_and_errors():
    rng = np.random.default_rng(5)
    t = rand_tensor(rng, (36, 3, 3, 1))
    assert window_patch(t, 4, (3, 3)).dims == (4, 9, 9, 1)
    with pytest.raises(ShapeMismatchError):
        window_patch(t, 5, (3, 3))


def test_patch_unit_blocks_identity():
    rng = np.random.default_rng(6)
    t = rand_tensor(rng, (3, 4, 1))
    assert window_patch(t, 3, (1,)).equals(t)


@st.composite
def chunkable(draw):
    d = draw(st.integers(1, 3))
    batch = draw(st.integers(1, 3))
    channels = draw(st.integers(1, 2))
    blocks = tuple(draw(st.integers(1, 4)) for _ in range(d))
    cells = tuple(draw(st.integers(1, 4)) for _ in range(d))
    extents = tuple(b * c for b, c in zip(blocks, cells))
    seed = draw(st.integers(0, 2**32 - 1))
    data = np.random.default_rng(seed).standard_normal((batch, *extents, channels))
    return BatchTensor(data), blocks


@given(chunkable())
def test_patch_of_chunk_round_trips_bit_exactly(case):
    t, blocks = case
    chunked = chunk_domain(t, blocks)
    assert chunked.equals(split_stack_chunk(t, blocks))
    assert window_patch(chunked, t.batch, blocks).equals(t)


# --- window_offsets -----------------------------------------------------------


def test_offsets_count_and_order():
    offs = window_offsets(WindowSpec((3, 3)))
    assert len(offs) == 9
    assert offs == brute_offsets((3, 3))
    assert window_offsets(WindowSpec((3,))) == [(0,), (1,), (2,)]
    offs35 = window_offsets(WindowSpec((3, 5)))
    assert len(offs35) == 15
    assert len(set(offs35)) == 15


# --- integrate_predictions ----------------------------------------------------


def test_integrate_identity_returns_input_exactly():
    rng = np.random.default_rng(8)
    t = rand_tensor(rng, (2, 9, 9, 1))
    out = integrate_predictions(t, WindowSpec((3, 3)), IdentityPredictor(2))
    assert out.equals(t)


@pytest.mark.parametrize("sizes,extents", [
    ((3, 3), (9, 7)),
    ((5, 3), (8, 9)),
    ((3,), (10,)),
    ((3, 3, 3), (5, 4, 6)),
])
def test_integrate_write_coverage_is_a_partition(sizes, extents):
    w = WindowSpec(sizes)
    rec = ExpansionRecord.for_grid(extents, w)
    counts = np.zeros(rec.step1, dtype=int)
    for p in window_offsets(w):
        lattice = tuple(slice(pi, None, wi) for pi, wi in zip(p, w.sizes))
        counts[lattice] += 1
    assert np.all(counts == 1)
    original = tuple(slice(0, n) for n in extents)
    assert np.all(counts[original] == 1)


def test_integrate_matches_full_domain_upwind():
    rng = np.random.default_rng(11)
    t = rand_tensor(rng, (2, 12, 10, 1))
    w = WindowSpec((5, 5))
    pde = GridPde(dx=0.5, dt=1.0, c=(0.55, -0.4))
    pred = UpwindStencil(pde, w)
    out = integrate_predictions(t, w, pred)
    expected = upwind_full(t.data, pred.courant)
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_integrate_rejects_bad_predictor_output():
    class Wrong:
        radius = (0, 0)

        def predict_windows(self, windows):
            return windows  # full windows instead of centers

    t = BatchTensor(np.zeros((1, 9, 9, 1)))
    with pytest.raises(PredictorContractError):
        integrate_predictions(t, WindowSpec((3, 3)), Wrong())


def test_integrate_rejects_non_finite_predictor_output():
    class NaNAtOneCell:
        radius = (0, 0)

        def predict_windows(self, windows):
            out = np.zeros((*windows.shape[:-3], windows.shape[-1]))
            out.flat[-1] = np.nan
            return out

    t = BatchTensor(np.zeros((1, 9, 9, 1)))
    with pytest.raises(PredictorContractError):
        integrate_predictions(t, WindowSpec((3, 3)), NaNAtOneCell())


def test_integrate_hands_predictor_private_read_only_windows(monkeypatch):
    seen = []

    class Recorder:
        radius = (0, 0)

        def predict_windows(self, windows):
            seen.append(windows)
            return IdentityPredictor(2).predict_windows(windows)

    monkeypatch.setattr(windowing, "TILE_BYTES", 8 * 3 * 20)
    t = rand_tensor(np.random.default_rng(12), (2, 9, 7, 1))
    assert integrate_predictions(t, WindowSpec((3, 3)), Recorder()).equals(t)
    assert len(seen) == 2 * 5  # 20 cells per tile: 9 rows of 7 in runs of 2
    for data in seen:
        assert not data.flags.writeable
        assert not np.shares_memory(data, t.data)


@pytest.mark.parametrize("extents,sizes,tile_cells", [
    ((64, 64), (9, 9), 1024),
    ((16, 16, 16), (5, 5, 5), 512),
    ((2048,), (9,), 1024),
])
def test_integrate_copies_each_tile_once_and_keeps_one_alive(monkeypatch, extents, sizes,
                                                             tile_cells):
    # a predictor that copies its windows copies one whole tile per call; a
    # second copy, or the previous tile still alive while the next is
    # predicted, each add a whole tile to the peak
    w = WindowSpec(sizes)
    tile_bytes = tile_cells * w.cells * 8
    monkeypatch.setattr(windowing, "TILE_BYTES", tile_cells * sizes[-1] * 8)
    t = rand_tensor(np.random.default_rng(14), (1, *extents, 1))

    class CopyingIdentity:
        radius = (0,) * w.ndim

        def predict_windows(self, windows):
            return IdentityPredictor(w.ndim).predict_windows(np.array(windows)).copy()

    pred = CopyingIdentity()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = integrate_predictions(t, w, pred)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.equals(t)
    padded = math.prod(n + s - 1 for n, s in zip(extents, sizes)) * 8
    assert peak - padded - t.data.nbytes < 1.5 * tile_bytes


def _oracle_predictor(kind, w, channels, rng):
    d = w.ndim
    if kind == "identity":
        return IdentityPredictor(d)
    if kind == "upwind":
        return UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.7, -0.4, 0.25)[:d]), w)
    if kind == "diffusion":
        return DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.9 / (2 * d)), w)
    weights = rng.standard_normal((w.cells * channels, channels))
    return LearnedStencil(w, weights, rng.standard_normal(channels), 0.0)


@pytest.mark.parametrize("kind", ["identity", "upwind", "diffusion", "learned"])
@pytest.mark.parametrize("sizes,extents,channels", [
    ((3,), (10,), 1),
    ((5,), (13,), 2),
    ((3, 5), (7, 11), 1),
    ((5, 3), (9, 8), 2),
    ((3, 3, 3), (5, 4, 7), 2),
])
# None: one tile per batch item; 23: runs of whole rows (2-D) or row pieces
# (3-D) with a ragged last tile; 5 and 1: rows cut down to single cells
@pytest.mark.parametrize("tile_cells", [None, 23, 5, 1])
def test_integrate_matches_offset_sweep_oracle(monkeypatch, kind, sizes, extents,
                                               channels, tile_cells):
    w = WindowSpec(sizes)
    if tile_cells is not None:
        monkeypatch.setattr(windowing, "TILE_BYTES", tile_cells * sizes[-1] * channels * 8)
    rng = np.random.default_rng(13)
    t = rand_tensor(rng, (2, *extents, channels))
    pred = _oracle_predictor(kind, w, channels, rng)
    got = integrate_predictions(t, w, pred).data
    want = offset_sweep_integrate(t, w, pred)
    if kind == "learned":
        assert np.max(np.abs(got - want)) <= 1e-12
    else:
        assert np.array_equal(got, want)


@st.composite
def perturbed_cell(draw):
    d = draw(st.integers(1, 3))
    sizes = tuple(draw(st.sampled_from([3, 5])) for _ in range(d))
    extents = tuple(draw(st.integers(1, 7)) for _ in range(d))
    channels = draw(st.integers(1, 2))
    dims = (draw(st.integers(1, 2)), *extents, channels)
    cell = tuple(draw(st.integers(0, n - 1)) for n in dims)
    delta = draw(st.sampled_from([-1.0, 1e-3, 7.5]))
    return WindowSpec(sizes), dims, cell, delta, draw(st.integers(0, 2**32 - 1))


@pytest.mark.parametrize("kind", ["identity", "upwind", "diffusion", "learned"])
@given(case=perturbed_cell())
def test_perturbing_one_cell_changes_only_outputs_within_radius(kind, case):
    # the strict-locality claim on the integrated field, under zero padding:
    # outside the Chebyshev box of the predictor's radius around the
    # perturbed cell every output is bit-identical
    w, dims, cell, delta, seed = case
    rng = np.random.default_rng(seed)
    t = rng.standard_normal(dims)
    pred = _oracle_predictor(kind, w, dims[-1], rng)
    bumped = t.copy()
    bumped[cell] += delta
    base = integrate_predictions(BatchTensor(t), w, pred).data
    out = integrate_predictions(BatchTensor(bumped), w, pred).data
    near = np.zeros(dims, dtype=bool)
    box = (cell[0], *(slice(max(0, c - r), c + r + 1) for c, r in zip(cell[1:], pred.radius)))
    near[box] = True
    assert np.array_equal(out[~near], base[~near])


# --- learned stencils: window rows read in place ------------------------------


def _random_stencil(rng, w, channels, scale=1.0):
    weights = scale * rng.standard_normal((w.cells * channels, channels))
    return LearnedStencil(w, weights, rng.standard_normal(channels), 0.0)


@pytest.mark.parametrize("sizes,extents,channels", [
    ((5,), (7,), 1),
    ((3, 5), (4, 6), 2),
    ((3, 3, 5), (3, 4, 7), 2),
])
def test_window_rows_are_read_only_views_of_window_rows(sizes, extents, channels):
    rng = np.random.default_rng(15)
    a = rng.standard_normal((2, *extents, channels))
    windows = window_view(a, sizes)
    # a tile as integrate_predictions hands it over: one batch item, a run of
    # cells along the first axis
    tile = windows[1, :2]
    rows = tile.reshape(*tile.shape[:-2], -1)
    assert rows.shape == (*tile.shape[:-len(sizes) - 1], *sizes[:-1], sizes[-1] * channels)
    for idx in np.ndindex(*rows.shape[:-1]):
        assert np.array_equal(rows[idx], tile[idx].ravel())
    assert np.shares_memory(rows, a)
    assert not rows.flags.writeable


@pytest.mark.parametrize("sizes,extents,channels", [
    ((5,), (13,), 1),
    ((7,), (11,), 2),
    ((3, 5), (9, 12), 1),
    ((5, 3), (7, 9), 2),
    ((3, 3, 5), (5, 4, 7), 1),
    ((3, 5, 3), (5, 6, 5), 2),
    # windows wider than the grid: r >= N_i on every axis
    ((9,), (3,), 2),
    ((7, 9), (3, 4), 1),
    ((5, 5, 7), (1, 2, 3), 2),
])
# whole: one tile per batch item; rows: two whole rows of the first axis per
# tile, the last one ragged where that extent is odd; pieces: runs of N_d - 1
# cells along the last axis, so each row ends in a ragged piece; cells: one
# cell per tile
@pytest.mark.parametrize("tiling", ["whole", "rows", "pieces", "cells"])
def test_stencil_rows_match_convolution_oracle(monkeypatch, sizes, extents, channels,
                                               tiling):
    w = WindowSpec(sizes)
    tile_cells = {
        "whole": None,
        "rows": 2 * math.prod(extents[1:]),
        "pieces": max(1, extents[-1] - 1),
        "cells": 1,
    }[tiling]
    if tile_cells is not None:
        # a tile is capped by the bytes of its window rows
        monkeypatch.setattr(windowing, "TILE_BYTES", tile_cells * sizes[-1] * channels * 8)
    rng = np.random.default_rng(16)
    t = rand_tensor(rng, (2, *extents, channels))
    st = _random_stencil(rng, w, channels)
    got = integrate_predictions(t, w, st).data
    want = convolve_stencil_full(t.data, st.weights, st.bias, sizes)
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("kind", ["identity", "upwind", "diffusion", "learned"])
def test_builtin_predictors_read_windows_in_place(monkeypatch, kind):
    padded, seen = [], []
    pad = windowing.pad_zeros

    def pad_spy(*args):
        padded.append(pad(*args))
        return padded[-1]

    monkeypatch.setattr(windowing, "pad_zeros", pad_spy)
    rng = np.random.default_rng(17)
    w = WindowSpec((5, 3))
    t = rand_tensor(rng, (2, 9, 8, 2))
    pred = _oracle_predictor(kind, w, 2, rng)
    predict = type(pred).predict_windows

    def spy(self, windows):
        seen.append(windows)
        return predict(self, windows)

    monkeypatch.setattr(type(pred), "predict_windows", spy)
    integrate_predictions(t, w, pred)
    assert len(padded) == 1 and seen
    for windows in seen:
        assert np.shares_memory(windows, padded[0].data)
        assert not windows.flags.writeable


@pytest.mark.parametrize("stencil_sizes,stencil_channels", [
    ((5, 3), 1),   # window differs from w
    ((3, 3), 2),   # channel count differs from t
])
def test_stencil_window_or_channels_mismatch_is_shape_error(stencil_sizes,
                                                            stencil_channels):
    rng = np.random.default_rng(18)
    st = _random_stencil(rng, WindowSpec(stencil_sizes), stencil_channels)
    t = rand_tensor(rng, (1, 9, 9, 1))
    with pytest.raises(ShapeMismatchError):
        integrate_predictions(t, WindowSpec((3, 3)), st)


def test_stencil_non_finite_prediction_is_contract_error():
    rng = np.random.default_rng(19)
    w = WindowSpec((3, 3))
    # finite weights that overflow on inputs of order 10
    st = LearnedStencil(w, np.full((w.cells, 1), 1e308), np.zeros(1), 0.0)
    t = BatchTensor(10.0 + rng.random((1, 9, 9, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PredictorContractError):
            integrate_predictions(t, w, st)


@pytest.mark.parametrize("kind", ["identity", "upwind", "diffusion", "learned"])
def test_predictors_hold_no_tile_of_windows(kind):
    # a copy of a tile's windows would hold prod(W_1..W_{d-1}) * TILE_BYTES
    w = WindowSpec((17, 17))
    rng = np.random.default_rng(20)
    t = rand_tensor(rng, (1, 256, 256, 1))
    pred = _oracle_predictor(kind, w, 1, rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = integrate_predictions(t, w, pred)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.dims == t.dims
    padded = (256 + 16) ** 2 * 8
    assert peak - padded - t.data.nbytes < 0.5 * windowing.TILE_BYTES


# --- receptive field probe ----------------------------------------------------


def test_probe_examples():
    assert receptive_field_probe(1, 1, 9) == (3, 3)
    assert receptive_field_probe(1, 4, 15) == (9, 9)
    assert receptive_field_probe(2, 3, 17) == (13, 13)


def test_probe_rejects_small_domain():
    with pytest.raises(ProbeDomainTooSmall):
        receptive_field_probe(2, 3, 12)


def test_impulse_through_one_radius1_stencil_has_width_3():
    field = impulse(Shape(1, (9, 9), 1), (4, 4)).data[0, :, :, 0]
    out = apply_dense_stencil(field, 1)
    rows = np.nonzero(out.any(axis=1))[0]
    cols = np.nonzero(out.any(axis=0))[0]
    assert rows.max() - rows.min() + 1 == 3
    assert cols.max() - cols.min() + 1 == 3
