"""Dense batched N-dimensional grid tensors and their copy-based primitives.

A :class:`BatchTensor` holds a batch of structured grid fields in one
contiguous float64 buffer laid out row-major with the batch axis slowest and
the channel axis fastest, i.e. element ``(b, i_1..i_d, c)`` lives at flat
index ``((..(b*N_1 + i_1)*N_2 + i_2 ..)*N_c + c)``.  All operations in this
module are pure: they never mutate their inputs and always return fresh,
contiguous copies, which keeps equality contracts exact and lets callers
share tensors without defensive copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DivisibilityError,
    DomainError,
    RankError,
    ShapeMismatchError,
    SliceBoundsError,
)

MAX_SPATIAL_RANK = 3


@dataclass(frozen=True)
class Shape:
    """Logical extents of a grid batch: (batch, spatial..., channels)."""

    batch: int
    spatial: tuple[int, ...]
    channels: int

    def __post_init__(self):
        object.__setattr__(self, "spatial", tuple(int(n) for n in self.spatial))
        object.__setattr__(self, "batch", int(self.batch))
        object.__setattr__(self, "channels", int(self.channels))
        if not 1 <= len(self.spatial) <= MAX_SPATIAL_RANK:
            raise RankError(
                f"spatial rank must be 1..{MAX_SPATIAL_RANK}, got {len(self.spatial)}"
            )
        if self.batch < 1 or self.channels < 1 or min(self.spatial) < 1:
            raise ShapeMismatchError(f"all extents must be positive, got {self.dims}")
        if self.count > np.iinfo(np.intp).max:
            raise ShapeMismatchError(f"element count overflows index range: {self.dims}")

    @property
    def ndim(self) -> int:
        """Spatial rank d."""
        return len(self.spatial)

    @property
    def dims(self) -> tuple[int, ...]:
        """Full extent tuple (batch, N_1..N_d, channels)."""
        return (self.batch, *self.spatial, self.channels)

    @property
    def count(self) -> int:
        return self.batch * math.prod(self.spatial) * self.channels


@dataclass(frozen=True, eq=False)
class BatchTensor:
    """Immutable batch of grid fields backed by one contiguous float64 array.

    A C-contiguous float64 array is adopted without a copy and marked
    read-only, so the caller's array itself can no longer be written; any
    other float64 array (strided, Fortran-ordered, a non-contiguous view) is
    copied and the caller's array is left as it was.  Adoption makes wrapping
    a freshly built buffer free.  It does not freeze other views of the same
    memory: pass a copy if something else may still write to it.
    """

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if not isinstance(a, np.ndarray) or a.dtype != np.float64:
            raise ShapeMismatchError("BatchTensor requires a float64 ndarray")
        if not 3 <= a.ndim <= MAX_SPATIAL_RANK + 2:
            raise RankError(f"array rank must be 3..{MAX_SPATIAL_RANK + 2}, got {a.ndim}")
        if not a.flags.c_contiguous:
            object.__setattr__(self, "data", np.ascontiguousarray(a))
        self.data.flags.writeable = False
        # triggers extent validation
        _ = self.shape

    @classmethod
    def from_array(cls, array) -> "BatchTensor":
        """Copy arbitrary array-like input into a validated tensor.

        Rejects non-finite values; use this at API boundaries.  Internal
        operations that only move finite values around construct directly.
        """
        a = np.array(array, dtype=np.float64, order="C", copy=True)
        if not np.all(np.isfinite(a)):
            raise DomainError("input contains NaN or Inf")
        return cls(a)

    @classmethod
    def zeros(cls, shape: Shape) -> "BatchTensor":
        return cls(np.zeros(shape.dims))

    @property
    def shape(self) -> Shape:
        d = self.data
        return Shape(d.shape[0], d.shape[1:-1], d.shape[-1])

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def batch(self) -> int:
        return self.data.shape[0]

    @property
    def spatial(self) -> tuple[int, ...]:
        return self.data.shape[1:-1]

    @property
    def channels(self) -> int:
        return self.data.shape[-1]

    @property
    def ndim(self) -> int:
        """Spatial rank d."""
        return self.data.ndim - 2

    def equals(self, other: "BatchTensor") -> bool:
        """Bit-exact equality of extents and buffer contents."""
        return self.dims == other.dims and np.array_equal(self.data, other.data)


def _check_axis(t: BatchTensor, axis: int) -> None:
    if not 0 <= axis < t.data.ndim:
        raise SliceBoundsError(f"axis {axis} out of range for rank-{t.data.ndim} tensor")


def split(t: BatchTensor, parts: int, axis: int) -> list[BatchTensor]:
    """Cut ``t`` into ``parts`` equal copies along ``axis``.

    Axis 0 is the batch axis, axes 1..d the spatial axes.  Concatenating the
    returned tensors along the same axis reproduces ``t`` bit-exactly.
    """
    _check_axis(t, axis)
    if parts < 1:
        raise DivisibilityError(f"parts must be >= 1, got {parts}")
    extent = t.data.shape[axis]
    if extent % parts != 0:
        raise DivisibilityError(
            f"axis {axis} extent {extent} is not divisible into {parts} parts"
        )
    return [BatchTensor(np.ascontiguousarray(p)) for p in np.split(t.data, parts, axis=axis)]


def stack(parts: Sequence[BatchTensor], axis: int) -> BatchTensor:
    """Concatenate equally-shaped tensors along ``axis`` into one copy."""
    if not parts:
        raise ShapeMismatchError("cannot stack an empty sequence")
    first = parts[0].dims
    for p in parts[1:]:
        if p.dims != first:
            raise ShapeMismatchError(f"heterogeneous shapes: {first} vs {p.dims}")
    _check_axis(parts[0], axis)
    return BatchTensor(np.concatenate([p.data for p in parts], axis=axis))


def pad_zeros(
    t: BatchTensor, before: Sequence[int], after: Sequence[int]
) -> BatchTensor:
    """Grow each spatial extent by before+after cells of exact zeros.

    Batch and channel axes are never padded; original values keep their
    relative order at the given per-dimension offsets.
    """
    d = t.ndim
    before = tuple(int(n) for n in before)
    after = tuple(int(n) for n in after)
    if len(before) != d or len(after) != d:
        raise RankError(f"padding counts must have rank {d}")
    if min(before) < 0 or min(after) < 0:
        raise DomainError(f"padding counts must be non-negative: {before}, {after}")
    widths = ((0, 0), *zip(before, after), (0, 0))
    return BatchTensor(np.pad(t.data, widths))


def slice_region(
    t: BatchTensor, start: Sequence[int], extent: Sequence[int]
) -> BatchTensor:
    """Copy the spatial hyper-rectangle [start, start+extent) of every batch item.

    Batch and channel axes pass through whole.
    """
    d = t.ndim
    start = tuple(int(n) for n in start)
    extent = tuple(int(n) for n in extent)
    if len(start) != d or len(extent) != d:
        raise RankError(f"slice bounds must have rank {d}")
    for i, (s, n, full) in enumerate(zip(start, extent, t.spatial)):
        if s < 0 or n < 1 or s + n > full:
            raise SliceBoundsError(
                f"spatial dim {i}: slice [{s}, {s + n}) outside extent {full}"
            )
    idx = (slice(None), *(slice(s, s + n) for s, n in zip(start, extent)), slice(None))
    return BatchTensor(np.ascontiguousarray(t.data[idx]))


def impulse(shape: Shape, pos: Sequence[int]) -> BatchTensor:
    """All-zero tensor with a single 1.0 at (batch 0, pos, channel 0)."""
    pos = tuple(int(n) for n in pos)
    if len(pos) != shape.ndim:
        raise RankError(f"position must have rank {shape.ndim}")
    for i, (p, full) in enumerate(zip(pos, shape.spatial)):
        if not 0 <= p < full:
            raise SliceBoundsError(f"spatial dim {i}: index {p} outside extent {full}")
    a = np.zeros(shape.dims)
    a[(0, *pos, 0)] = 1.0
    return BatchTensor(a)
