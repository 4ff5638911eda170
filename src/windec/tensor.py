"""Dense batched N-dimensional grid tensors.

A :class:`BatchTensor` holds a batch of structured grid fields in one
contiguous float64 buffer laid out row-major with the batch axis slowest and
the channel axis fastest, i.e. element ``(b, i_1..i_d, c)`` lives at flat
index ``((..(b*N_1 + i_1)*N_2 + i_2 ..)*N_c + c)``.  The buffer is read-only,
so tensors can be shared without defensive copies.  Prediction pads
nothing whole: it zero-extends one tile at a time into a slab buffer and
reads the windows through a strided view of that (see
:mod:`windec.windowing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import RankError, ShapeMismatchError

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
