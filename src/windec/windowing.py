"""Window prediction over batched grids, and the decomposition it computes.

Prediction takes pad -> window view -> predict: the grid is padded once with
zeros by the window radius, one read-only strided view holds the window of
every cell (``window_view``), and each tile of that view goes to the
predictor's ``predict_windows``; the centers it returns are written into the
output.  No window is copied on the way.

The decomposition is defined by four functions that the acceptance gate
checks and prediction does not call: ``expand_domain`` zero-pads each extent
to a whole number of windows plus a half-window halo per side;
``chunk_domain`` turns ``(N_b, N_1..N_d, N_c)`` into a window batch
``(N_b * prod(B_i), W_1..W_d, N_c)`` with one reshape/transpose;
``window_patch`` is its bit-exact inverse; ``window_offsets`` lists the
prod(W_i) in-window offsets.  Slicing the expanded domain at every offset,
chunking, predicting and patching gives what ``integrate_predictions``
computes.  At offset p the window of block j covers expanded cells
[p + j*W, p + (j+1)*W) and is centered on original cell i = p + j*W, so
across all offsets every original cell is the center of exactly one window,
and that window is the W-box [i - r, i + r] of the grid zero-extended by
r = (W - 1) / 2: the window prediction reads for cell i.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DivisibilityError,
    PredictorContractError,
    ProbeDomainTooSmall,
    RankError,
    ShapeMismatchError,
)
from .tensor import BatchTensor, pad_zeros

# Most bytes of window rows (W_d * N_c values per cell) one tile covers; a
# predictor that copies its tile copies up to prod(W_1..W_{d-1}) times this.
# On a 2-core Xeon with 2 MB of L2 per core, the learned stencil (one matmul
# per 2-D tile, W_1 per 3-D tile, its band matrices built once, see
# models.BAND) took 17.9/15.5/15.6/15.4 ms on a 4x256^2 frame at 17x17,
# 26.3/29.4/29.8/31.4 ms on 2x48^3 at 9^3 and 9.0/8.3/8.1/8.1 ms on
# 2x32^3x2 at 5^3 with caps of 0.5/1/2/4 MB (medians of 9 interleaved rounds
# of 10 calls; rounds spread by up to +-30%).  At 0.5 MB the 2-D frame is
# slower and the 3-D one faster; above 1 MB nothing is gained beyond the
# spread, while what a predictor holds per tile grows: the
# learned stencil at 17x17 holds 404 KiB a tile at 1 MB and 703 KiB at 2 MB.
TILE_BYTES = 1 << 20


@dataclass(frozen=True)
class WindowSpec:
    """Per-dimension window sizes; each must be odd and >= 3."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(w) for w in self.sizes))
        if not 1 <= len(self.sizes) <= 3:
            raise RankError(f"window rank must be 1..3, got {len(self.sizes)}")
        for w in self.sizes:
            if w < 3 or w % 2 == 0:
                raise ShapeMismatchError(f"window sizes must be odd and >= 3, got {w}")

    @classmethod
    def cube(cls, size: int, ndim: int) -> "WindowSpec":
        return cls((size,) * ndim)

    @property
    def ndim(self) -> int:
        return len(self.sizes)

    @property
    def radius(self) -> tuple[int, ...]:
        """Center-to-edge distance (W_i - 1) / 2 per dimension."""
        return tuple((w - 1) // 2 for w in self.sizes)

    @property
    def cells(self) -> int:
        return math.prod(self.sizes)


@dataclass(frozen=True)
class ExpansionRecord:
    """Bookkeeping needed to undo a domain expansion.

    ``step1`` is the extent after padding up to a whole number of windows,
    ``expanded`` after adding the half-window halo, ``blocks`` the number of
    windows per dimension, ``lead`` the leading halo width floor(W_i / 2).
    """

    original: tuple[int, ...]
    step1: tuple[int, ...]
    expanded: tuple[int, ...]
    blocks: tuple[int, ...]
    lead: tuple[int, ...]

    @classmethod
    def for_grid(cls, spatial: Sequence[int], w: WindowSpec) -> "ExpansionRecord":
        if len(spatial) != w.ndim:
            raise RankError(
                f"grid rank {len(spatial)} does not match window rank {w.ndim}"
            )
        original = tuple(int(n) for n in spatial)
        blocks = tuple((n - 1) // wi + 1 for n, wi in zip(original, w.sizes))
        step1 = tuple(b * wi for b, wi in zip(blocks, w.sizes))
        expanded = tuple(s + wi - 1 for s, wi in zip(step1, w.sizes))
        lead = tuple(wi // 2 for wi in w.sizes)
        return cls(original, step1, expanded, blocks, lead)


def expand_domain(t: BatchTensor, w: WindowSpec) -> tuple[BatchTensor, ExpansionRecord]:
    """Zero-pad ``t`` for whole-window decomposition plus the offset halo.

    Original data ends up at per-dimension offset floor(W_i / 2); every new
    cell is exactly 0.0.
    """
    rec = ExpansionRecord.for_grid(t.spatial, w)
    trail = tuple(e - n - l for e, n, l in zip(rec.expanded, rec.original, rec.lead))
    return pad_zeros(t, rec.lead, trail), rec


def chunk_domain(t: BatchTensor, blocks: Sequence[int]) -> BatchTensor:
    """Decompose a grid batch into a batch of windows.

    Dimension i is cut into blocks[i] windows.  The resulting batch index
    layout is ``(..(j_d * B_{d-1} + j_{d-1})..) * N_b + b`` with the original
    batch index fastest and the block index of the last spatial dimension
    slowest.
    """
    blocks = tuple(int(b) for b in blocks)
    d = t.ndim
    if len(blocks) != d:
        raise RankError(f"block counts must have rank {d}")
    for i, (n, b) in enumerate(zip(t.spatial, blocks)):
        if b < 1 or n % b != 0:
            raise DivisibilityError(
                f"spatial dim {i}: extent {n} not divisible into {b} blocks"
            )
    cells = tuple(n // b for n, b in zip(t.spatial, blocks))
    # axes: 0 batch, 2i+1 block index j_{i+1}, 2i+2 in-window cell, 2d+1 channel
    cut = t.data.reshape(t.batch, *itertools.chain(*zip(blocks, cells)), t.channels)
    order = (*range(2 * d - 1, 0, -2), 0, *range(2, 2 * d + 1, 2), 2 * d + 1)
    return BatchTensor(cut.transpose(order).copy().reshape(-1, *cells, t.channels))


def window_patch(t: BatchTensor, batch: int, blocks: Sequence[int]) -> BatchTensor:
    """Reassemble a window batch into the grid batch it was chunked from.

    Exact inverse of :func:`chunk_domain`: the batch axis is read as
    ``(B_d, .., B_1, batch)`` and each block index is put back in front of
    the in-window cells of its dimension.
    """
    blocks = tuple(int(b) for b in blocks)
    d = t.ndim
    if len(blocks) != d:
        raise RankError(f"block counts must have rank {d}")
    expected = batch * math.prod(blocks)
    if batch < 1 or min(blocks) < 1 or t.batch != expected:
        raise ShapeMismatchError(
            f"batch extent {t.batch} != batch {batch} * prod(blocks {blocks})"
        )
    cells = t.spatial
    # axes: d-1-i block index j_{i+1}, d batch, d+1+i in-window cell, 2d+1 channel
    grouped = t.data.reshape(*blocks[::-1], batch, *cells, t.channels)
    order = (d, *itertools.chain(*((d - 1 - i, d + 1 + i) for i in range(d))), 2 * d + 1)
    extents = tuple(b * c for b, c in zip(blocks, cells))
    return BatchTensor(grouped.transpose(order).copy().reshape(batch, *extents, t.channels))


def window_offsets(w: WindowSpec) -> list[tuple[int, ...]]:
    """All prod(W_i) per-dimension offsets, in lexicographic order."""
    return list(itertools.product(*(range(s) for s in w.sizes)))


def window_view(a: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Read-only strided view of every full window of a ``(N_b, N_1..N_d, N_c)`` array.

    The result has shape ``(N_b, N_1-W_1+1 .., W_1..W_d, N_c)`` and element
    ``(b, s_1..s_d, k_1..k_d, c)`` is ``a[b, s_1+k_1 .., s_d+k_d, c]``: each
    window's cells are row-major with channels fastest, the feature order of
    a window batch.  Nothing is copied.
    """
    d = len(sizes)
    view = sliding_window_view(a, tuple(sizes), axis=tuple(range(1, d + 1)))
    return np.moveaxis(view, d + 1, -1)


def _tiles(extents: Sequence[int], max_cells: int) -> Iterator[tuple]:
    """Index tuples that partition an array of ``extents`` into tiles of <= max_cells.

    Tiles are runs of whole rows along the first axis; when one row is over
    the limit, each row is cut into runs along the next axis, and so on.
    """
    d = len(extents)
    k = next(i for i in range(d) if math.prod(extents[i + 1:]) <= max_cells)
    step = max_cells // math.prod(extents[k + 1:])
    for outer in itertools.product(*(range(n) for n in extents[:k])):
        for lo in range(0, extents[k], step):
            yield (*outer, slice(lo, lo + step))


def integrate_predictions(t: BatchTensor, w: WindowSpec, predictor) -> BatchTensor:
    """Predict the next field for every cell of ``t`` from exactly its own window.

    The window of a cell is the W-box around it in ``t`` zero-padded by
    ``w.radius``.  The grid is padded once and viewed as every window
    (:func:`window_view`); each tile of cells covering at most ``TILE_BYTES``
    of window rows (several whole frames of the batch, when they fit) goes to
    ``predictor.predict_windows`` as a read-only ``(..., W_1..W_d, N_c)`` view
    of the padded grid, and the returned ``(..., N_c)`` centers are written to
    their cells.  No window is copied here.

    Raises :class:`PredictorContractError` if the predictor returns the wrong
    shape or a non-finite value; predictors raise their own errors for
    windows they cannot read.
    """
    if w.ndim != t.ndim:
        raise RankError(f"window rank {w.ndim} does not match grid rank {t.ndim}")
    padded = pad_zeros(t, w.radius, w.radius).data
    windows = window_view(padded, w.sizes)
    out = np.empty(t.dims)
    max_cells = max(1, TILE_BYTES // (w.sizes[-1] * t.channels * padded.itemsize))
    for tile in _tiles(t.dims[:-1], max_cells):
        got = np.asarray(predictor.predict_windows(windows[tile]))
        target = out[tile]
        if got.shape != target.shape:
            raise PredictorContractError(f"predictor returned {got.shape}, "
                                         f"expected {target.shape}")
        if not np.isfinite(got).all():
            raise PredictorContractError("predictor returned NaN or Inf")
        target[...] = got
    return BatchTensor(out)


def apply_dense_stencil(field: np.ndarray, radius: int) -> np.ndarray:
    """One pass of an all-ones box stencil of the given radius, zero-extended."""
    d = field.ndim
    padded = np.pad(field, radius)
    out = np.zeros_like(field)
    for offs in itertools.product(range(2 * radius + 1), repeat=d):
        idx = tuple(slice(o, o + n) for o, n in zip(offs, field.shape))
        out += padded[idx]
    return out


def receptive_field_probe(
    stencil_radius: int, layers: int, probe_extent: int, ndim: int = 2
) -> tuple[int, ...]:
    """Measure how far a composed local stencil actually reaches.

    Applies ``layers`` passes of a dense all-ones stencil of the given radius
    to a centered unit impulse and returns the nonzero support width per
    dimension.  For a radius-r stencil over k layers the width must come out
    as 2*k*r + 1.
    """
    if stencil_radius < 1 or layers < 1:
        raise ProbeDomainTooSmall("radius and layers must be >= 1")
    if probe_extent <= 2 * layers * stencil_radius:
        raise ProbeDomainTooSmall(
            f"extent {probe_extent} cannot hold footprint "
            f"{2 * layers * stencil_radius + 1}"
        )
    x = np.zeros((probe_extent,) * ndim)
    x[tuple(n // 2 for n in x.shape)] = 1.0
    for _ in range(layers):
        x = apply_dense_stencil(x, stencil_radius)
    support = np.nonzero(x)
    return tuple(int(ax.max() - ax.min()) + 1 for ax in support)
