import itertools
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
    integrate_predictions,
    receptive_field_probe,
    window_offsets,
    window_patch,
)
from windec import models, windowing
from windec.decomposition import apply_dense_stencil
from windec.windowing import window_view
from oracles import (
    brute_offsets,
    chunk_batch_index,
    convolve_stencil_full,
    expansion_formula,
    gather_window,
    impulse,
    offset_sweep_integrate,
    pad_view_integrate,
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
    outside = np.ones(grown.dims, dtype=bool)
    outside[:, 1:8, 1:8, :] = False
    assert np.all(grown.data[outside] == 0.0)
    assert math.fsum(grown.data.ravel()) == math.fsum(t.data.ravel())


@given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.sampled_from([3, 5]))
def test_expand_preserves_sum_exactly(seed, extents, w):
    # exact accumulation: the zeros added must not change the total at all
    t = rand_tensor(np.random.default_rng(seed), (2, *extents, 1))
    grown, rec = expand_domain(t, WindowSpec.cube(w, len(extents)))
    assert grown.dims == (2, *rec.expanded, 1)
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


class CentersOf:
    """Centers of the right shape whose values are ``value`` (not a real number)."""

    radius = (0, 0)

    def __init__(self, value):
        self.value = value

    def predict_windows(self, windows):
        return np.full((*windows.shape[:-3], windows.shape[-1]), self.value)


@pytest.mark.parametrize("value", [1.0 + 2.0j, object(), "1.0"],
                         ids=["complex", "object", "string"])
def test_integrate_rejects_predictor_output_that_is_not_real(value):
    # a complex prediction would lose its imaginary part when written, and an
    # object or string one would escape np.isfinite as an untyped TypeError
    t = BatchTensor(np.zeros((1, 9, 9, 1)))
    with pytest.raises(PredictorContractError, match="real numbers"):
        integrate_predictions(t, WindowSpec((3, 3)), CentersOf(value))


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


@pytest.mark.parametrize("kind", ["identity", "upwind", "diffusion", "learned"])
@pytest.mark.parametrize("sizes,extents,channels", [
    ((5,), (13,), 1),
    ((3,), (17,), 2),
    ((3, 5), (7, 11), 1),
    ((5, 3), (9, 8), 2),
    ((5, 5), (6, 26), 1),
    ((3, 3, 3), (5, 4, 7), 2),
    ((5, 3, 5), (4, 5, 17), 1),
    # windows wider than the grid on every axis, the cut one included
    ((9,), (3,), 2),
    ((7, 9), (3, 4), 1),
    ((5, 5, 7), (2, 2, 3), 2),
])
# batch: two of the three frames per tile, the last tile one frame; rows: two
# rows of the first grid axis (two cells in 1-D), ragged where that extent is
# odd; plane: two lines along the last axis, so a 3-D tile is cut inside a
# plane; pieces: runs of N_d - 1 cells, so each row ends in a one-cell tile
@pytest.mark.parametrize("tiling", ["batch", "rows", "plane", "pieces"])
def test_integrate_equals_prediction_from_one_padded_grid(monkeypatch, kind, sizes, extents,
                                                          channels, tiling):
    # each tile's slab holds what the tile reads of a zero-padded copy of the
    # whole grid, so every predictor gets the same windows, tile for tile
    w = WindowSpec(sizes)
    tile_cells = {
        "batch": 2 * math.prod(extents),
        "rows": 2 * math.prod(extents[1:]),
        "plane": 2 * extents[-1],
        "pieces": max(1, extents[-1] - 1),
    }[tiling]
    tile_bytes = tile_cells * sizes[-1] * channels * 8
    monkeypatch.setattr(windowing, "TILE_BYTES", tile_bytes)
    rng = np.random.default_rng(31)
    t = rand_tensor(rng, (3, *extents, channels))
    pred = _oracle_predictor(kind, w, channels, rng)
    got = integrate_predictions(t, w, pred).data
    assert np.array_equal(got, pad_view_integrate(t, w, pred, tile_bytes))


@pytest.mark.parametrize("sizes,dims", [
    ((9, 9), (1, 256, 256)),
    ((17, 17), (2, 200, 200)),
    ((3, 3, 3), (2, 40, 40, 40)),
    ((5, 5, 5), (1, 48, 48, 48)),
])
def test_integrate_holds_slabs_not_a_padded_grid(monkeypatch, sizes, dims):
    # beside its output a call holds one slab for the full tiles and one for
    # the ragged last tile, each a tile's cells plus the halo: here up to
    # 2.4 times TILE_BYTES, where a padded copy of the grid takes 8 to 18 times
    tile_bytes = 64 * 1024
    monkeypatch.setattr(windowing, "TILE_BYTES", tile_bytes)
    w = WindowSpec(sizes)
    t = rand_tensor(np.random.default_rng(32), (*dims, 1))
    padded = dims[0] * math.prod(n + s - 1 for n, s in zip(dims[1:], sizes)) * 8
    assert padded >= 8 * tile_bytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = integrate_predictions(t, w, IdentityPredictor(w.ndim))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.equals(t)
    assert peak - out.data.nbytes < 3 * tile_bytes


def test_integrate_copies_centers_a_predictor_returns_as_views_of_its_windows(monkeypatch):
    # the slabs are reused from tile to tile, so a predictor's output that
    # still points into them must be copied out before the next fill
    w = WindowSpec((5, 3, 3))

    class CenterView:
        radius = (0, 0, 0)

        def predict_windows(self, windows):
            return windows[..., 2, 1, 1, :]

    monkeypatch.setattr(windowing, "TILE_BYTES", 7 * 3 * 2 * 8)
    t = rand_tensor(np.random.default_rng(33), (2, 6, 5, 9, 2))
    assert integrate_predictions(t, w, CenterView()).equals(t)


@pytest.mark.parametrize("extents, halo, slab_extents", [
    ((7,), (2,), (5,)),
    ((5, 6), (1, 2), (4, 7)),
    ((3, 4, 5), (1, 1, 2), (3, 4, 6)),
])
def test_fill_slab_writes_every_cell_whatever_the_slab_held(extents, halo, slab_extents):
    # one slab, NaN at first, filled at every corner in a shuffled order: each
    # fill equals the box of the zero-padded grid under it, so no fill depends
    # on what an earlier one left
    rng = np.random.default_rng(34)
    grid = rng.standard_normal((2, *extents, 2))
    padded = np.pad(grid, [(0, 0), *((h, h) for h in halo), (0, 0)])
    slab = np.full((1, *slab_extents, 2), np.nan)
    corners = list(itertools.product(range(2), *(
        range(-h, n + h - m + 1) for n, h, m in zip(extents, halo, slab_extents))))
    for i in rng.permutation(len(corners)):
        b, *corner = corners[i]
        assert windowing._fill_slab(slab, grid, (b, *corner)) is None
        box = tuple(slice(c + h, c + h + m) for c, h, m in zip(corner, halo, slab_extents))
        assert np.array_equal(slab, padded[(slice(b, b + 1), *box)])


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
    # a tile as integrate_predictions hands over part of a frame too large for
    # one tile: one batch item, a run of cells along the first axis
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
    # last-axis extents 8k, 8k + 1 and 8k + 7: whole blocks of models.BAND = 8
    # cells go through banded GEMMs, and a ragged tail through row matmuls
    ((5,), (16,), 1),
    ((3,), (17,), 2),
    ((7,), (23,), 1),
    ((3, 5), (5, 24), 2),
    ((5, 3), (4, 25), 1),
    ((3, 7), (3, 31), 2),
    ((3, 3, 5), (3, 2, 16), 2),
    ((3, 5, 3), (2, 3, 33), 1),
    ((5, 3, 3), (3, 2, 23), 2),
    # 3-D tiles of several frames with banded blocks in every row, and 2-channel
    # rows cut into pieces of several blocks and a ragged tail
    ((3, 3, 3), (4, 3, 17), 1),
    ((5, 3, 5), (3, 5, 24), 2),
    ((5, 5), (6, 26), 2),
    ((3, 5, 3), (2, 3, 18), 2),
])
# whole: one tile for the whole batch; rows: two whole rows of the first axis per
# tile, the last one ragged where that extent is odd; lines: two whole lines
# along the last axis per tile, so a 3-D tile drops the first grid axis; pieces:
# runs of N_d - 1 cells along the last axis, so each row ends in a ragged piece;
# cells: one cell per tile
@pytest.mark.parametrize("tiling", ["whole", "rows", "lines", "pieces", "cells"])
def test_stencil_rows_match_convolution_oracle(monkeypatch, sizes, extents, channels,
                                               tiling):
    w = WindowSpec(sizes)
    tile_cells = {
        "whole": None,
        "rows": 2 * math.prod(extents[1:]),
        "lines": 2 * extents[-1],
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


def _spy_band_gemms(monkeypatch):
    """Record the operand shape of every banded matmul the learned stencil makes.

    Its banded path calls ``np.matmul``; its row path uses ``@``, which does
    not go through the ``np.matmul`` attribute, so only banded products show.
    """
    operands = []
    matmul = np.matmul

    def spy(a, b, *args, **kwargs):
        operands.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    return operands


def _outer_offsets(sizes):
    """Banded matmuls per tile: one per in-window offset along W_1..W_{d-2}."""
    return math.prod(sizes[:-2])


@pytest.mark.parametrize("sizes,extents,channels", [
    ((5,), (19,), 2),
    ((3, 5), (4, 17), 1),
    ((3, 3, 3), (3, 2, 23), 2),
])
def test_stencil_takes_row_matmuls_for_windows_laid_out_otherwise(monkeypatch, sizes,
                                                                 extents, channels):
    # contiguous and transposed copies of a window_view tile hold the same
    # windows, but consecutive windows no longer overlap in memory
    rng = np.random.default_rng(22)
    w = WindowSpec(sizes)
    a = rng.standard_normal((2, *extents, channels))
    st = _random_stencil(rng, w, channels)
    padded = np.pad(a, [(0, 0), *((r, r) for r in w.radius), (0, 0)])
    tile = window_view(padded, sizes)
    want = convolve_stencil_full(a, st.weights, st.bias, sizes)
    gemms = _spy_band_gemms(monkeypatch)
    assert np.max(np.abs(st.predict_windows(tile) - want)) <= 1e-12
    assert len(gemms) == _outer_offsets(sizes)
    for copy in (np.ascontiguousarray(tile), np.asfortranarray(tile)):
        assert np.max(np.abs(st.predict_windows(copy) - want)) <= 1e-12
    assert len(gemms) == _outer_offsets(sizes)


@pytest.mark.parametrize("sizes,extents", [((5,), (17,)), ((3, 5), (6, 17)),
                                           ((3, 3, 3), (4, 5, 17))])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_stencil_maps_empty_tiles_to_empty_centers(sizes, extents, axis):
    rng = np.random.default_rng(26)
    w = WindowSpec(sizes)
    st = _random_stencil(rng, w, 1)
    windows = window_view(rng.standard_normal((2, *extents, 1)), sizes)
    empty = windows[(slice(None),) * min(axis, w.ndim) + (slice(0, 0),)]
    assert st.predict_windows(empty).shape == (*empty.shape[:-w.ndim - 1], 1)


@pytest.mark.parametrize("sizes,extents,channels,axis", [
    ((3, 5), (6, 17), 2, 1),
    ((3, 3, 3), (4, 5, 17), 1, 1),
    ((3, 3, 3), (4, 5, 17), 1, 2),
])
def test_stencil_reads_every_other_row_of_windows(monkeypatch, sizes, extents, channels,
                                                  axis):
    # every other window along a leading grid axis: windows still overlap along
    # the last axis, but rows p and p + 1 of the tile are two grid rows apart, so
    # the runs under them are not one strided view of the grid
    rng = np.random.default_rng(25)
    w = WindowSpec(sizes)
    a = rng.standard_normal((2, *extents, channels))
    st = _random_stencil(rng, w, channels)
    padded = np.pad(a, [(0, 0), *((r, r) for r in w.radius), (0, 0)])
    want = convolve_stencil_full(a, st.weights, st.bias, sizes)
    every_other = (slice(None),) * axis + (slice(None, None, 2),)
    gemms = _spy_band_gemms(monkeypatch)
    got = st.predict_windows(window_view(padded, sizes)[every_other])
    assert np.max(np.abs(got - want[every_other])) <= 1e-12
    assert gemms == []
    # a single such row has nothing to skip, so its whole blocks go banded
    one_row = (slice(None),) * axis + (slice(2, 3),)
    got = st.predict_windows(window_view(padded, sizes)[one_row])
    assert np.max(np.abs(got - want[one_row])) <= 1e-12
    assert len(gemms) == _outer_offsets(sizes)


def _spy_tiles(monkeypatch, gemms):
    """Record each tile's shape and the banded matmuls the stencil made on it."""
    tiles = []
    predict = LearnedStencil.predict_windows

    def spy(self, windows):
        before = len(gemms)
        got = predict(self, windows)
        tiles.append((windows.shape, gemms[before:]))
        return got

    monkeypatch.setattr(LearnedStencil, "predict_windows", spy)
    return tiles


@pytest.mark.parametrize("sizes,extents", [((5,), (40,)), ((5, 5), (12, 21)),
                                           ((3, 3, 3), (4, 3, 17))])
@pytest.mark.parametrize("tile_cells", [None, 12])
def test_integrate_hands_learned_stencil_banded_tiles(monkeypatch, sizes, extents,
                                                      tile_cells):
    # every tile is a window_view tile, so each of its whole blocks of BAND
    # cells along the last axis must go through a banded GEMM, once per outer
    # in-window offset
    w = WindowSpec(sizes)
    if tile_cells is not None:
        monkeypatch.setattr(windowing, "TILE_BYTES", tile_cells * sizes[-1] * 8)
    rng = np.random.default_rng(23)
    t = rand_tensor(rng, (2, *extents, 1))
    st = _random_stencil(rng, w, 1)
    gemms = _spy_band_gemms(monkeypatch)
    tiles = _spy_tiles(monkeypatch, gemms)
    integrate_predictions(t, w, st)
    d = w.ndim
    blocks = sum(math.prod(s[:-d - 2]) * (s[-d - 2] // models.BAND) for s, _ in tiles)
    assert blocks > 0
    # an operand is (..., N_1..N_{d-1}, blocks, W_{d-1} * (BAND + W_d - 1))
    # with N_i = 1 for an axis the tile has dropped, and a 1-D tile's unit axis
    assert sum(math.prod(shape[:-1]) for shape in gemms) == _outer_offsets(sizes) * blocks
    k = (sizes[-2] if d > 1 else 1) * (models.BAND + sizes[-1] - 1)
    assert {shape[-1] for shape in gemms} == {k}


@pytest.mark.parametrize("sizes,extents,channels", [
    ((5,), (40,), 1),
    ((5, 5), (12, 21), 1),
    ((3, 7), (5, 26), 2),
    ((3, 3, 3), (4, 3, 17), 1),
    ((5, 3, 3), (3, 4, 19), 2),
])
@pytest.mark.parametrize("tiling", ["whole", "rows", "cut", "lines"])
def test_stencil_takes_one_matmul_per_outer_offset_per_tile(monkeypatch, sizes, extents,
                                                           channels, tiling):
    # one matmul per 1-D and 2-D tile, W_1 per 3-D tile, whatever the tiling: a
    # whole batch, two rows of the first grid axis (two blocks in 1-D), 12
    # cells cut inside a row, or two lines along the last axis (a 3-D tile then
    # drops the first grid axis); a tile with no whole block of BAND cells
    # takes none
    w = WindowSpec(sizes)
    d = w.ndim
    rows = 2 * math.prod(extents[1:]) if d > 1 else 2 * models.BAND
    tile_cells = {"whole": None, "rows": rows, "cut": 12, "lines": 2 * extents[-1]}[tiling]
    if tile_cells is not None:
        monkeypatch.setattr(windowing, "TILE_BYTES", tile_cells * sizes[-1] * channels * 8)
    rng = np.random.default_rng(29)
    t = rand_tensor(rng, (2, *extents, channels))
    st = _random_stencil(rng, w, channels)
    want = convolve_stencil_full(t.data, st.weights, st.bias, sizes)
    gemms = _spy_band_gemms(monkeypatch)
    tiles = _spy_tiles(monkeypatch, gemms)
    got = integrate_predictions(t, w, st).data
    assert np.max(np.abs(got - want)) <= 1e-12
    if tiling == "whole":
        assert len(tiles) == 1
    for shape, made in tiles:
        banded = shape[-d - 2] >= models.BAND
        assert len(made) == (_outer_offsets(sizes) if banded else 0)
    assert any(made for _, made in tiles)
    if tiling == "lines" and d == 3:
        assert all(len(shape) == 2 * d for shape, _ in tiles)


@pytest.mark.parametrize("kind", ["identity", "upwind", "diffusion", "learned"])
def test_builtin_predictors_read_windows_in_place(monkeypatch, kind):
    slabs, seen = [], []
    fill = windowing._fill_slab

    def fill_spy(slab, *args):
        slabs.append(slab)
        return fill(slab, *args)

    monkeypatch.setattr(windowing, "_fill_slab", fill_spy)
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
    assert len(slabs) == len(seen) > 0
    for slab, windows in zip(slabs, seen):
        assert np.shares_memory(windows, slab)
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
    # a fixed 512 KiB, so a larger TILE_BYTES cannot loosen the bound
    assert peak - padded - t.data.nbytes < 512 * 1024


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
