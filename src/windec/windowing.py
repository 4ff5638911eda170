"""Window prediction over batched grids: each cell from exactly its own window.

Prediction takes slab -> window view -> predict -> write or score centers:
the cells are cut into tiles, each tile's cells plus a halo of the window
radius are filled into a slab buffer with zeros outside the grid
(``_fill_slab``), one read-only strided view of the slab holds the window of
every cell of the tile (``window_view``), and it goes to the predictor's
``predict_windows``.  ``_predicted_tiles`` yields the centers it returns
tile by tile; ``integrate_predictions`` writes them into an output frame,
and the CLI's evaluation scores each against the truth under it before the
next tile is predicted, so it holds no predicted frame.  No window is copied
on the way, and no zero-padded copy of the whole grid is made.  The window
of a cell is the W-box around it of the grid zero-extended by the radius
(W - 1) / 2; :mod:`windec.decomposition` defines the same windows by
expanding, chunking and patching the grid.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import PredictorContractError, RankError, ShapeMismatchError
from .tensor import BatchTensor

# Most bytes of window rows (W_d * N_c values per cell) one tile covers; a
# predictor that copies its tile copies up to prod(W_1..W_{d-1}) times this.
# On a 2-core Xeon with 2 MB of L2 per core, the learned stencil (one matmul
# per 2-D tile, W_1 per 3-D tile, its band matrices built once, see
# models.BAND) took 8.4/7.0/6.1/6.1 ms on a 4x256^2 frame at 17x17,
# 17.2/15.5/14.8/15.6 ms on 2x48^3 at 9^3 and 5.6/5.1/5.1/4.9 ms on
# 2x32^3x2 at 5^3 with caps of 0.5/1/2/4 MB (medians of 9 interleaved rounds
# of 10 calls; rounds spread by up to 26%).  0.5 MB is slower everywhere.
# 2 MB beats 1 MB by 13% on the 2-D frame and ties in 3-D, but what a
# predictor holds per tile grows (the learned stencil at 17x17 holds 404 KiB
# a tile at 1 MB and 703 KiB at 2 MB), and the cap also sizes the fit's
# sample blocks (models._sample_blocks), so changing it reorders the fit's
# Gram sums.
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


def _fill_slab(slab: np.ndarray, grid: np.ndarray, corner: Sequence[int]) -> None:
    """Fill ``slab`` with the cells of ``grid`` under it, zero-extended.

    ``slab[0, .., 0]`` lies at grid index ``corner`` (one entry per axis but
    the channels, negative inside the halo before the grid).  Every fill
    copies the cells in the grid and zeroes each non-empty face outside it,
    so it depends on nothing an earlier fill left; this is the one place on
    the prediction path that knows what lies outside the grid.
    """
    box, cells = [], []
    for i, (c, m, n) in enumerate(zip(corner, slab.shape, grid.shape)):
        lo, hi = max(0, -c), min(m, n - c)
        before = (slice(None),) * i
        if lo:
            slab[(*before, slice(0, lo))] = 0.0
        if hi < m:
            slab[(*before, slice(hi, None))] = 0.0
        box.append(slice(lo, hi))
        cells.append(slice(c + lo, c + hi))
    slab[tuple(box)] = grid[tuple(cells)]


def _predicted_tiles(t: BatchTensor, w: WindowSpec,
                     predictor) -> Iterator[tuple[tuple, np.ndarray]]:
    """Yield ``(tile, centers)`` for every tile of ``t``'s cells, in order.

    ``tile`` indexes ``t.dims[:-1]`` and ``centers`` is the checked
    ``(..., N_c)`` prediction of its cells, valid until the next tile is
    predicted: it may be a view of the slab, which the next fill overwrites.
    From tile to tile it keeps only a slab and its window view per tile
    length (full tiles and a ragged last one); :func:`_fill_slab` alone
    decides what the halo outside the grid holds.  Raises
    :class:`PredictorContractError` for a prediction of the wrong shape, of
    values that are not real numbers (complex, object, strings), or holding
    a non-finite value.
    """
    if w.ndim != t.ndim:
        raise RankError(f"window rank {w.ndim} does not match grid rank {t.ndim}")
    grid = t.data
    halo = (0, *w.radius)  # per grid axis; the batch axis has none
    max_cells = max(1, TILE_BYTES // (w.sizes[-1] * t.channels * grid.itemsize))
    # tile length along the cut axis -> (slab, its windows as a tile)
    slabs = {}
    for tile in _tiles(t.dims[:-1], max_cells):
        *outer, cut = tile
        k = len(outer)
        lo = cut.start
        m = min(cut.stop, grid.shape[k]) - lo
        if m not in slabs:
            shape = (*(1 + 2 * h for h in halo[:k]), m + 2 * halo[k],
                     *(n + 2 * h for n, h in zip(grid.shape[k + 1:], halo[k + 1:])),
                     t.channels)
            slab = np.empty(shape)
            slabs[m] = slab, window_view(slab, w.sizes)[(0,) * k]
        slab, windows = slabs[m]
        corner = (*map(operator.sub, outer, halo), lo - halo[k], *(-h for h in halo[k + 1:]))
        _fill_slab(slab, grid, corner)
        got = np.asarray(predictor.predict_windows(windows))
        expected = grid[tile].shape
        if got.shape != expected:
            raise PredictorContractError(f"predictor returned {got.shape}, "
                                         f"expected {expected}")
        if got.dtype.kind not in "biuf":
            raise PredictorContractError(f"predictor returned {got.dtype} values, "
                                         "expected real numbers")
        if not np.isfinite(got).all():
            raise PredictorContractError("predictor returned NaN or Inf")
        yield tile, got


def integrate_predictions(t: BatchTensor, w: WindowSpec, predictor) -> BatchTensor:
    """Predict the next field for every cell of ``t`` from exactly its own window.

    The window of a cell is the W-box around it in ``t`` zero-extended by
    ``w.radius``.  The cells are cut into tiles, each covering at most
    ``TILE_BYTES`` of window rows (several whole frames of the batch, when
    they fit).  A tile's cells plus a ``w.radius`` halo on every spatial axis
    are filled into a slab buffer of this call, zeros outside the grid, and
    the slab's :func:`window_view` goes to ``predictor.predict_windows`` as a
    read-only ``(..., W_1..W_d, N_c)`` array; the returned ``(..., N_c)``
    centers are written to the tile's cells.  No window is copied here, and
    no copy of the whole padded grid is made: besides its output the call
    holds one slab for the full tiles and one for a ragged last tile, each
    reused from tile to tile, so the windows are only valid until
    ``predict_windows`` returns.

    Raises :class:`PredictorContractError` if the predictor returns the wrong
    shape, values that are not real numbers, or a non-finite value;
    predictors raise their own errors for windows they cannot read.
    """
    out = np.empty(t.dims)
    for tile, centers in _predicted_tiles(t, w, predictor):
        out[tile] = centers
    return BatchTensor(out)
