"""The window decomposition that prediction computes, as the acceptance gate checks it.

``expand_domain`` zero-pads each extent to a whole number of windows plus a
half-window halo per side; ``chunk_domain`` turns ``(N_b, N_1..N_d, N_c)``
into a window batch ``(N_b * prod(B_i), W_1..W_d, N_c)`` with one
reshape/transpose; ``window_patch`` is its bit-exact inverse;
``window_offsets`` lists the prod(W_i) in-window offsets.  Slicing the
expanded domain at every offset, chunking, predicting and patching gives
what :func:`windec.windowing.integrate_predictions` computes.  At offset p
the window of block j covers expanded cells [p + j*W, p + (j+1)*W) and is
centered on original cell i = p + j*W, so across all offsets every original
cell is the center of exactly one window, and that window is the W-box
[i - r, i + r] of the grid zero-extended by r = (W - 1) / 2: the window
prediction reads for cell i.  ``receptive_field_probe`` measures how far a
composed local stencil reaches.  Prediction calls none of this.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivisibilityError, ProbeDomainTooSmall, RankError, ShapeMismatchError
from .tensor import BatchTensor
from .windowing import WindowSpec


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
    cell is exactly 0.0.  Batch and channel axes are not padded, and ``t``
    is left as it was.
    """
    rec = ExpansionRecord.for_grid(t.spatial, w)
    trail = (e - n - l for e, n, l in zip(rec.expanded, rec.original, rec.lead))
    widths = ((0, 0), *zip(rec.lead, trail), (0, 0))
    return BatchTensor(np.pad(t.data, widths)), rec


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
