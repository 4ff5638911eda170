"""Synthetic PDE datasets: exact transport, viscous flow, and diffusion.

Three steppers produce frame sequences on periodic or bounded grids:

- :func:`advect_exact` solves constant-speed transport by shifting the
  initial field, using the spectral phase shift for fractional cell offsets
  so band-limited fields advance without interpolation error.
- :func:`burgers_step` advances a 2-component velocity field with first-order
  upwind convection plus central diffusion, sub-stepped so the update stays
  monotone (max|u| never grows).
- :func:`heat_step` is an explicit central-difference diffusion step for
  scalar fields with periodic, zero-extension, or insulated boundaries.

:func:`check_request` and :func:`check_ic` alone decide what can be generated;
the config parser calls them too, and each stepper calls :func:`check_request`
for its own kind.  Datasets serialize to a little-endian binary container (see
:func:`write_dataset`) that round-trips every float bit-exactly; the writer
refuses what the reader would refuse or read back changed.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import struct
import weakref
from collections import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    FormatError,
    RankError,
    ShapeMismatchError,
    StabilityError,
    UnsupportedBoundary,
    WindecError,
)
from .tensor import MAX_SPATIAL_RANK, BatchTensor, Shape
from .windowing import BOUNDARIES, _fill_slab

DATASET_MAGIC = b"DDLD"
DATASET_VERSION = 1
_KIND_CODES = {"advection": 0, "burgers": 1, "heat": 2, "external": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_MAX_SUBSTEPS = 10**7
MAX_SEED = 2**64 - 1  # the largest seed a dataset file holds (a u64)


class Generated(NamedTuple):
    """What :func:`generate_dataset` can make of one dataset kind."""

    ranks: tuple[int, ...]  # spatial ranks
    channels: int | None  # channel count; None: any
    boundaries: tuple[str, ...]  # boundaries its stepper supports
    needs: tuple[str, ...]  # GridPde fields its stepper cannot run without
    char_length: str  # the sizing.char_length kind of its physics


GENERATED = {
    "advection": Generated((1, 2, 3), None, ("periodic",), ("c",), "advection"),
    "burgers": Generated((2,), 2, ("periodic",), (), "burgers"),
    "heat": Generated((2, 3), 1, BOUNDARIES, (), "diffusion"),
}
# the parameter each initial-condition kind cannot generate without
IC_PARAMETER = {"sine": "freq", "bumps": "n_bumps", "harmonics": "bandwidth"}


@dataclass(frozen=True)
class GridPde:
    """Physical parameters of a grid-discretized PDE instance.

    ``c`` is the per-dimension transport speed (length/time), ``nu`` the
    momentum diffusivity, ``alpha`` the thermal diffusivity (length^2/time).
    """

    dx: float
    dt: float
    c: tuple[float, ...] | None = None
    nu: float = 0.0
    alpha: float = 0.0
    boundary: str = "periodic"

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.dx, self.dt, self.nu, self.alpha,
                                              *(self.c or ()))):
            raise DomainError("pde parameters must be finite")
        if self.dx <= 0 or self.dt <= 0:
            raise DomainError(f"dx and dt must be positive, got {self.dx}, {self.dt}")
        if self.nu < 0 or self.alpha < 0:
            raise DomainError("diffusivities must be non-negative")
        if self.boundary not in BOUNDARIES:
            raise UnsupportedBoundary(f"unknown boundary {self.boundary!r}")
        if self.c is not None:
            object.__setattr__(self, "c", tuple(float(v) for v in self.c))


@dataclass(frozen=True)
class InitialCondition:
    """Declarative initial-field recipe consumed by :func:`generate_dataset`.

    kind "sine": diagonal plane wave at ``freq`` cycles per unit length.
    kind "bumps": ``n_bumps`` random Gaussian bumps per batch item/channel;
    ``center_margin`` and ``width_fraction_range`` control how far bumps stay
    from the boundary and how wide they are, as fractions of the extent.
    kind "harmonics": octave-spaced sine mixture from ``base_freq`` up to
    ``bandwidth``, optionally tapered by a centered Gaussian envelope.
    """

    kind: str = "sine"
    freq: float | None = None
    n_bumps: int | None = None
    bandwidth: float | None = None
    base_freq: float = 0.5
    envelope_sigma: float | None = None
    width_fraction_range: tuple[float, float] = (0.05, 0.15)
    center_margin: float = 0.15


@dataclass(frozen=True)
class Dataset:
    """A frame sequence u^0..u^T plus the parameters that generated it.

    ``frames`` is a tuple of :class:`BatchTensor` for a dataset built in
    memory.  :func:`read_dataset` gives a file-backed sequence instead, whose
    ``frames[t]`` reads frame t from the file afresh, checked as the reader
    checked it.  :meth:`frame` reads one frame and :meth:`pairs` walks frame
    pairs; fitting and evaluation take these, which hold one and two frames
    of a file, in buffers the dataset keeps.
    """

    kind: str
    frames: Sequence[BatchTensor]
    pde: GridPde
    seed: int
    meta: dict[str, str] = field(default_factory=dict)
    _grid: Shape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KIND_CODES:
            raise DomainError(f"unknown dataset kind {self.kind!r}")
        if isinstance(self.frames, _FrameFile):
            object.__setattr__(self, "_grid", self.frames.grid)
            return
        object.__setattr__(self, "frames", tuple(self.frames))
        if not self.frames:
            raise ShapeMismatchError("a dataset needs at least one frame")
        dims = self.frames[0].dims
        for f in self.frames:
            if f.dims != dims:
                raise ShapeMismatchError("all frames must share one shape")
        object.__setattr__(self, "_grid", self.frames[0].shape)

    @property
    def grid(self) -> Shape:
        return self._grid

    @property
    def n_steps(self) -> int:
        return len(self.frames) - 1

    def frame(self, t: int) -> np.ndarray:
        """Frame t as a read-only array.

        In memory it is the frame's own array.  From a file it is read into
        a one-frame buffer, allocated once per dataset, and stays valid until
        the dataset's next one-frame read or walk; a read made while a walk
        is running gets a buffer of its own.  Raises :class:`DomainError` for a frame
        index outside ``[0, n_steps]``.
        """
        t = _index(t, len(self.frames), "frame")
        if isinstance(self.frames, _FrameFile):
            return self.frames.frame(t)
        return self.frames[t].data

    def pairs(self, indices: Iterable[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Walk ``(t, frame t, frame t + 1)`` for each pair index t of ``indices``.

        The frames are read-only arrays, valid until the next step.  In memory
        they are the frames' own arrays.  From a file, frame f is read into
        slot f % 2 of two one-frame buffers unless that slot holds it already,
        so over sorted indices each frame is read at most once per walk.
        Slot 0 is the buffer :meth:`frame` reads into, and slot 1 is
        allocated at the first walk, so a dataset that is only read one
        frame at a time never holds two.  A walk started while another is
        running gets buffers of its own.  Raises :class:`DomainError` for an
        index outside ``[0, n_steps)``.
        """
        if isinstance(self.frames, _FrameFile):
            return self.frames.pairs(indices)
        frames, n_pairs = self.frames, self.n_steps
        return ((t, frames[t].data, frames[t + 1].data)
                for t in (_index(i, n_pairs, "pair") for i in indices))

    def equals(self, other: "Dataset") -> bool:
        return (
            self.kind == other.kind
            and self.pde == other.pde
            and self.seed == other.seed
            and self.meta == other.meta
            and len(self.frames) == len(other.frames)
            and all(a.equals(b) for a, b in zip(self.frames, other.frames))
        )


def _index(t, n: int, what: str) -> int:
    t = operator.index(t)
    if not 0 <= t < n:
        raise DomainError(f"{what} index {t} out of range [0, {n})")
    return t


def _cell_centers(grid: Shape, dx: float) -> list[np.ndarray]:
    """Per-dimension physical coordinates of cell centers, broadcastable."""
    coords = []
    d = grid.ndim
    for i, n in enumerate(grid.spatial):
        x = (np.arange(n) + 0.5) * dx
        shape = [1] * d
        shape[i] = n
        coords.append(x.reshape(shape))
    return coords


def sin_field(freq: float, grid: Shape, dx: float) -> BatchTensor:
    """Diagonal plane wave sin(2*pi*f*(x_1+..+x_d)) sampled at cell centers."""
    if freq <= 0:
        raise DomainError(f"freq must be positive, got {freq}")
    coords = _cell_centers(grid, dx)
    phase = coords[0]
    for c in coords[1:]:
        phase = phase + c
    u = np.sin(2.0 * np.pi * freq * phase)
    out = np.broadcast_to(
        u[np.newaxis, ..., np.newaxis], grid.dims
    )
    return BatchTensor(np.ascontiguousarray(out))


def sample_bumps(
    rng: np.random.Generator,
    extents: Sequence[float],
    n_bumps: int,
    amplitude_range: tuple[float, float] = (0.5, 1.5),
    width_fraction_range: tuple[float, float] = (0.05, 0.15),
    center_margin: float = 0.15,
) -> list[tuple[tuple[float, ...], float, float]]:
    """Draw (center, sigma, amplitude) triples for Gaussian bumps.

    Centers stay ``center_margin`` of each extent away from the boundary so
    bumps decay before it; sigma is a fraction of the smallest extent.
    """
    if not 0 < center_margin < 0.5:
        raise DomainError(f"center_margin must be in (0, 0.5), got {center_margin}")
    lo, hi = amplitude_range
    wlo, whi = width_fraction_range
    smallest = min(extents)
    out = []
    for _ in range(n_bumps):
        center = tuple(
            rng.uniform(center_margin * L, (1 - center_margin) * L) for L in extents
        )
        sigma = rng.uniform(wlo, whi) * smallest
        amp = rng.uniform(lo, hi)
        out.append((center, sigma, amp))
    return out


def gaussian_bump_field(
    seed: int,
    grid: Shape,
    dx: float,
    n_bumps: int,
    amplitude_range: tuple[float, float] = (0.5, 1.5),
    width_fraction_range: tuple[float, float] = (0.05, 0.15),
    center_margin: float = 0.15,
) -> BatchTensor:
    """Sum of seeded random Gaussian bumps, drawn per batch item and channel."""
    if n_bumps < 1:
        raise DomainError(f"n_bumps must be >= 1, got {n_bumps}")
    rng = np.random.default_rng(seed)
    extents = tuple(n * dx for n in grid.spatial)
    coords = _cell_centers(grid, dx)
    out = np.zeros(grid.dims)
    for b in range(grid.batch):
        for ch in range(grid.channels):
            acc = np.zeros(grid.spatial)
            for center, sigma, amp in sample_bumps(
                rng, extents, n_bumps, amplitude_range,
                width_fraction_range, center_margin,
            ):
                sq = sum((x - m) ** 2 for x, m in zip(coords, center))
                acc += amp * np.exp(-0.5 * sq / sigma**2)
            out[b, ..., ch] = acc
    return BatchTensor(out)


def _harmonic_freqs(bandwidth: float, base_freq: float) -> list[float]:
    """The octaves base_freq, 2*base_freq, .. up to ``bandwidth``; none unless
    both are positive."""
    freqs = []
    f = base_freq
    while 0 < f <= bandwidth * (1 + 1e-12):
        freqs.append(f)
        f *= 2
    return freqs


def harmonic_field(
    seed: int,
    grid: Shape,
    dx: float,
    bandwidth: float,
    base_freq: float = 0.5,
    envelope_sigma: float | None = None,
) -> BatchTensor:
    """Octave-spaced sine mixture with spectral support inside [-B, B].

    Components sit at base_freq, 2*base_freq, 4*base_freq, .. up to
    ``bandwidth`` cycles per unit length, as diagonal plane waves with seeded
    amplitudes in [0.7, 1.3) and phases per batch item/channel.
    ``envelope_sigma`` (in length units) applies a centered Gaussian taper so
    fields decay toward the boundary.
    """
    freqs = _harmonic_freqs(bandwidth, base_freq)
    if not freqs:
        raise DomainError(f"bandwidth {bandwidth} holds no octave of base_freq {base_freq}")
    rng = np.random.default_rng(seed)
    coords = _cell_centers(grid, dx)
    phase_ax = coords[0]
    for c in coords[1:]:
        phase_ax = phase_ax + c
    lo, hi = 0.7, 1.3
    env = 1.0
    if envelope_sigma is not None:
        extents = tuple(n * dx for n in grid.spatial)
        env = np.exp(
            -0.5
            * sum(((x - L / 2) / envelope_sigma) ** 2 for x, L in zip(coords, extents))
        )
    out = np.zeros(grid.dims)
    for b in range(grid.batch):
        for ch in range(grid.channels):
            acc = np.zeros(grid.spatial)
            for fc in freqs:
                acc += rng.uniform(lo, hi) * np.sin(
                    2.0 * np.pi * fc * phase_ax + rng.uniform(0.0, 2.0 * np.pi)
                )
            out[b, ..., ch] = acc * env
    return BatchTensor(out)


def advect_exact(u0: BatchTensor, pde: GridPde, t: float) -> BatchTensor:
    """Closed-form transport u(x, t) = u0(x - c*t) on a periodic grid.

    Whole-cell shifts are applied by rolling the array, which is exact for
    any field.  Fractional shifts use the spectral phase factor, exact for
    band-limited fields.
    """
    d = u0.ndim
    check_request("advection", d, u0.channels, pde.boundary, vars(pde))
    if len(pde.c) != d:
        raise RankError(f"c has {len(pde.c)} components for a rank-{d} grid")
    shifts = [ci * t / pde.dx for ci in pde.c]
    rounded = [round(s) for s in shifts]
    if all(abs(s - r) < 1e-9 for s, r in zip(shifts, rounded)):
        a = u0.data
        for axis, r in enumerate(rounded):
            n = u0.spatial[axis]
            if r % n:
                a = np.roll(a, r % n, axis=axis + 1)
        return BatchTensor(np.ascontiguousarray(a))
    spec = np.fft.fftn(u0.data, axes=range(1, d + 1))
    for axis, s in enumerate(shifts):
        n = u0.spatial[axis]
        k = np.fft.fftfreq(n)
        shape = [1] * u0.data.ndim
        shape[axis + 1] = n
        spec = spec * np.exp(-2j * np.pi * k * s).reshape(shape)
    out = np.fft.ifftn(spec, axes=range(1, d + 1)).real
    return BatchTensor(np.ascontiguousarray(out))


def _neighbor_sum(ring: np.ndarray, d: int) -> np.ndarray:
    """Sum of the 2d axis neighbors of every inner cell of a ``(N_b, N_1+2 .., N_c)`` ring."""
    inner = [slice(None), *[slice(1, -1)] * d, slice(None)]
    total = np.zeros(ring[tuple(inner)].shape)
    for axis in range(1, d + 1):
        lo, hi = list(inner), list(inner)
        lo[axis], hi[axis] = slice(0, -2), slice(2, None)
        total += ring[tuple(lo)] + ring[tuple(hi)]
    return total


def _substeps(total: float, limit: float) -> int:
    if not math.isfinite(total):
        raise StabilityError("non-finite stability number")
    n = max(1, math.ceil(total / limit - 1e-12))
    if n > _MAX_SUBSTEPS:
        raise StabilityError(f"stability requires {n} sub-steps; dt_sub underflow")
    return n


def heat_step(field_t: BatchTensor, pde: GridPde) -> BatchTensor:
    """Advance a scalar temperature field by one dt of explicit diffusion.

    Sub-steps internally so the per-step diffusion number alpha*dt_sub/dx^2
    never exceeds 1/(2d); the caller-visible dt is unrestricted.
    """
    d = field_t.ndim
    check_request("heat", d, field_t.channels, pde.boundary, vars(pde))
    if pde.alpha == 0.0:
        return BatchTensor(field_t.data.copy())
    total = pde.alpha * pde.dt / pde.dx**2
    n_sub = _substeps(total, 1.0 / (2 * d))
    lam = total / n_sub
    a = field_t.data
    # the frame plus one cell beyond each face, as the boundary extends it
    ring = np.empty((field_t.batch, *(n + 2 for n in field_t.spatial), field_t.channels))
    for _ in range(n_sub):
        _fill_slab(ring, a, (0, *(-1,) * d), pde.boundary)
        a = a + lam * (_neighbor_sum(ring, d) - 2 * d * a)
    return BatchTensor(np.ascontiguousarray(a))


def burgers_step(u: BatchTensor, pde: GridPde) -> BatchTensor:
    """Advance a 2D two-component velocity field by one dt.

    First-order upwind self-advection plus central-difference viscosity,
    sub-stepped so that 2C + 4D <= 1 per sub-step, with C = max|u|*dt/dx the
    Courant number and D = nu*dt/dx^2 the diffusion number.  Every new value
    is then a convex combination of old ones, so max|u| never grows.
    Periodic boundary only.
    """
    check_request("burgers", u.ndim, u.channels, pde.boundary, vars(pde))
    vmax = float(np.max(np.abs(u.data)))
    n_sub = _substeps(2 * vmax * pde.dt / pde.dx + 4 * pde.nu * pde.dt / pde.dx**2, 1.0)
    dt = pde.dt / n_sub
    dx = pde.dx
    a = u.data
    for _ in range(n_sub):
        # both components at once; the speed along spatial axis i is component i
        conv = np.zeros_like(a)
        for axis in (1, 2):
            w = a[..., axis - 1 : axis]
            back = (a - np.roll(a, 1, axis=axis)) / dx
            fwd = (np.roll(a, -1, axis=axis) - a) / dx
            conv += np.maximum(w, 0.0) * back + np.minimum(w, 0.0) * fwd
        lap = (
            np.roll(a, 1, axis=1)
            + np.roll(a, -1, axis=1)
            + np.roll(a, 1, axis=2)
            + np.roll(a, -1, axis=2)
            - 4 * a
        ) / dx**2
        a = a + dt * (pde.nu * lap - conv)
    return BatchTensor(np.ascontiguousarray(a))


def _initial_field(ic: InitialCondition, grid: Shape, pde: GridPde, seed: int) -> BatchTensor:
    if ic.kind == "sine":
        return sin_field(ic.freq, grid, pde.dx)
    if ic.kind == "bumps":
        return gaussian_bump_field(
            seed, grid, pde.dx, ic.n_bumps,
            width_fraction_range=ic.width_fraction_range, center_margin=ic.center_margin,
        )
    return harmonic_field(seed, grid, pde.dx, ic.bandwidth, ic.base_freq, ic.envelope_sigma)


def check_request(kind, rank: int, channels: int, boundary, pde_fields: Mapping) -> None:
    """Refuse what :func:`generate_dataset` cannot make; ``pde_fields`` maps GridPde fields.

    Checked in this order, each message begins with the field at fault: ``kind``,
    ``extents`` (the rank), ``channels``, a field the kind ``needs``, ``boundary``.
    """
    if not isinstance(kind, str) or kind not in GENERATED:
        raise DomainError(f"kind: cannot generate dataset kind {kind!r}")
    ranks, n_channels, boundaries, needs, _ = GENERATED[kind]
    if rank not in ranks:
        raise RankError(f"extents: {kind} datasets need "
                        f"{' or '.join(map(str, ranks))} dimensions, got {rank}")
    if n_channels is not None and channels != n_channels:
        raise DomainError(f"channels: {kind} datasets need {n_channels}, got {channels}")
    for name in needs:
        if pde_fields.get(name) is None:
            raise DomainError(f"{name}: missing required field for {kind} datasets")
    if boundary not in boundaries:
        raise UnsupportedBoundary(f"boundary: {kind} datasets need "
                                  f"{' or '.join(boundaries)}, got {boundary!r}")


def check_ic(ic: InitialCondition) -> None:
    """Refuse an unknown IC kind, one without its parameter, and harmonics whose
    ``bandwidth`` holds no octave of ``base_freq``, which would make an all-zero
    field (``ic.kind``, ``ic.<name>``, ``ic.bandwidth``)."""
    if ic.kind not in IC_PARAMETER:
        raise DomainError(f"ic.kind: unknown initial condition {ic.kind!r}")
    name = IC_PARAMETER[ic.kind]
    if getattr(ic, name) is None:
        raise DomainError(f"ic.{name}: missing required field for kind {ic.kind!r}")
    if ic.kind == "harmonics" and not _harmonic_freqs(ic.bandwidth, ic.base_freq):
        raise DomainError(f"ic.bandwidth: {ic.bandwidth} holds no octave of base_freq "
                          f"{ic.base_freq}, so the field would be all zeros")


def _generated(
    kind: str, grid: Shape, pde: GridPde, ic: InitialCondition, n_steps: int, seed: int
) -> tuple[dict[str, str], Iterator[BatchTensor]]:
    """Check a request and return its dataset's meta and its frames u^0..u^T.

    The frames come one at a time, each made when it is drawn, so the
    iterator holds at most u^0 and the latest frame, never the sequence.
    """
    check_request(kind, grid.ndim, grid.channels, pde.boundary, vars(pde))
    check_ic(ic)
    if n_steps < 0:
        raise DomainError("n_steps must be >= 0")
    if not 0 <= seed <= MAX_SEED:
        raise DomainError(f"seed: must be in [0, {MAX_SEED}], got {seed}")
    meta = {"ic": ic.kind}
    if ic.freq is not None:
        meta["ic_freq"] = repr(float(ic.freq))
    if ic.bandwidth is not None:
        meta["ic_bandwidth"] = repr(float(ic.bandwidth))
    return meta, _stepped_frames(kind, _initial_field(ic, grid, pde, seed), pde, n_steps)


def _stepped_frames(kind: str, u: BatchTensor, pde: GridPde,
                    n_steps: int) -> Iterator[BatchTensor]:
    """Frames u^0..u^T from u = u^0: advection shifts u^0 itself to each time,
    the other kinds step the frame before."""
    if kind == "advection":
        for t in range(n_steps + 1):
            yield advect_exact(u, pde, t * pde.dt)
        return
    step = burgers_step if kind == "burgers" else heat_step
    yield u
    for _ in range(n_steps):
        u = step(u, pde)
        yield u


def generate_dataset(
    kind: str,
    grid: Shape,
    pde: GridPde,
    ic: InitialCondition,
    n_steps: int,
    seed: int,
) -> Dataset:
    """Produce frames u^0..u^T with the stepper selected by ``kind``."""
    meta, frames = _generated(kind, grid, pde, ic, n_steps, seed)
    return Dataset(kind, tuple(frames), pde, seed, meta)


def write_generated(
    path,
    kind: str,
    grid: Shape,
    pde: GridPde,
    ic: InitialCondition,
    n_steps: int,
    seed: int,
) -> None:
    """Write ``generate_dataset(kind, grid, pde, ic, n_steps, seed)`` to ``path``.

    The file is :func:`write_dataset`'s, byte for byte, but each frame is
    written as soon as it is made, so the call holds two frames (u^0 or the
    frame being stepped, and the new one) and one step's scratch instead of
    every frame.  A step that fails leaves ``path`` as it was.
    """
    meta, frames = _generated(kind, grid, pde, ic, n_steps, seed)
    _write_container(path, kind, grid, pde, seed, meta, n_steps, frames)


# --- binary container -------------------------------------------------------
#
# Layout, little-endian, in order:
#   magic "DDLD" | version u32 | kind u8 | d u8 | reserved u16
#   N_b u32 | N_1..N_d u32 | N_c u32 | T u32
#   dt f64 | dx f64 | c f64 x d | nu f64 | alpha f64 | seed u64
#   meta_len u32 | meta bytes (UTF-8 "key=value" lines)
#   (T+1) frames of row-major f64
#
# The boundary convention travels inside meta under the reserved key
# "boundary"; an unset transport speed is flagged by the reserved key "c".


def _bytes_left(fh: BinaryIO) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of a container or raise :class:`FormatError`.

    A length beyond the end of the file is refused before anything is read,
    so a corrupt length field cannot ask for a buffer larger than the file.
    """
    if n > _bytes_left(fh):
        raise FormatError(f"truncated file while reading {what}")
    buf = fh.read(n)
    if len(buf) != n:
        raise FormatError(f"truncated file while reading {what}")
    return buf


def read_header(fh: BinaryIO, fmt: str, magic: bytes, version: int, rank: int) -> tuple:
    """Read a container's leading ``fmt`` fields: its magic, its version, and its
    spatial rank at index ``rank``; :class:`FormatError` unless they are
    ``magic``, ``version`` and 1..3."""
    fields = struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), "header"))
    if fields[0] != magic:
        raise FormatError(f"bad magic {fields[0]!r}")
    if fields[1] != version:
        raise FormatError(f"unsupported version {fields[1]}")
    if not 1 <= fields[rank] <= MAX_SPATIAL_RANK:
        raise FormatError(f"unsupported spatial rank {fields[rank]}")
    return fields


def check_payload(fh: BinaryIO, n: int, what: str) -> None:
    """Raise :class:`FormatError` unless exactly ``n`` bytes follow the header.

    Called before the payload is read, with the size the header implies.
    """
    left = _bytes_left(fh)
    if left != n:
        raise FormatError(f"header implies {n} bytes of {what}, but {left} follow")


@contextlib.contextmanager
def replacing_file(path) -> Iterator[BinaryIO]:
    """A new binary file beside ``path``, renamed over it when the block ends;
    a write that fails partway leaves ``path`` as it was and no file behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        # "x": a new file, with the mode open(path, "wb") would give it
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class _FrameFile(abc.Sequence):
    """The frames of a dataset file that :func:`read_dataset` validated, read on demand.

    The file stays open from :func:`read_dataset` until this sequence is
    collected, so a file renamed over the path does not change what is read.
    Every read checks its length and that its values are finite, and raises
    :class:`FormatError` otherwise, so a file truncated or written in place
    is refused, never read.
    """

    def __init__(self, fh: BinaryIO, grid: Shape, count: int):
        self.grid = grid
        self._fh = fh
        weakref.finalize(self, fh.close)
        self._offset = fh.tell()
        self._count = count
        # slot 0 takes the checks and one-frame reads; slot 1, which only
        # the walks need, is allocated at the first walk
        self._slots = [np.empty(grid.dims, dtype="<f8")]
        self._walking = False

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, t) -> BatchTensor:
        """Frame t, read afresh into an array of its own."""
        t = operator.index(t)
        if not -self._count <= t < self._count:
            raise IndexError(f"frame {t} out of range for {self._count} frames")
        out = np.empty(self.grid.dims, dtype="<f8")
        self._read(t % self._count, out)
        return BatchTensor(out)

    def _read(self, t: int, out: np.ndarray) -> None:
        """Read frame t into the frame-sized ``out`` and check it."""
        raw = memoryview(out).cast("B")
        done = 0
        while done < raw.nbytes:  # one preadv reads at most about 2 GiB
            n = os.preadv(self._fh.fileno(), [raw[done:]],
                          self._offset + t * raw.nbytes + done)
            if not n:
                raise FormatError(f"truncated file while reading frame {t}")
            done += n
        _check_frame(t, out)

    def check_all(self) -> None:
        """Read and check every frame, one at a time, in slot 0."""
        for t in range(self._count):
            self._read(t, self._slots[0])

    def frame(self, t: int) -> np.ndarray:
        """:meth:`Dataset.frame` of a file: frame t is read into slot 0."""
        out = np.empty_like(self._slots[0]) if self._walking else self._slots[0]
        self._read(t, out)
        return _read_only(out)

    def pairs(self, indices: Iterable[int]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """:meth:`Dataset.pairs` of a file: frame f is read into slot f % 2."""
        shared = not self._walking
        if shared and len(self._slots) == 1:
            self._slots.append(np.empty_like(self._slots[0]))
        slots = self._slots if shared else [np.empty_like(self._slots[0]) for _ in range(2)]
        self._walking = True
        try:
            frames = [_read_only(s) for s in slots]
            held = [None, None]
            for t in indices:
                t = _index(t, self._count - 1, "pair")
                for f in (t, t + 1):
                    if held[f % 2] != f:
                        self._read(f, slots[f % 2])
                        held[f % 2] = f
                yield t, frames[t % 2], frames[(t + 1) % 2]
        finally:
            if shared:
                self._walking = False


def _check_frame(t: int, a: np.ndarray) -> None:
    """Refuse frame t unless every value of ``a`` is finite."""
    if not np.isfinite(a).all():
        raise FormatError(f"frame {t} holds NaN or Inf")


def _parse_meta(text: str) -> dict[str, str]:
    """The ``key=value`` lines of a container's meta text, as a dict."""
    meta = {}
    for line in text.splitlines():
        if line:
            k, _, v = line.partition("=")
            meta[k] = v
    return meta


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def write_dataset(path, ds: Dataset) -> None:
    """Serialize a dataset through :func:`replacing_file`; floats round-trip
    bit-exactly, and a dataset read from ``path`` can be written back to it."""
    _write_container(path, ds.kind, ds.grid, ds.pde, ds.seed, ds.meta, ds.n_steps, ds.frames)


def _write_container(path, kind: str, grid: Shape, pde: GridPde, seed: int,
                     meta: Mapping[str, str], n_steps: int,
                     frames: Iterable[BatchTensor]) -> None:
    """Write the header and then each of the ``n_steps + 1`` frames as drawn.

    Raises :class:`FormatError` for what :func:`read_dataset` would refuse or
    read back changed: reserved or unreadable meta and header values that do
    not fit their fields before the file is made, a frame holding NaN or Inf
    as it is written.
    """
    d = grid.ndim
    c = pde.c if pde.c is not None else (0.0,) * d
    if len(c) != d:
        raise FormatError(f"c has {len(c)} components for a rank-{d} grid")
    reserved = sorted({"boundary", "c"} & meta.keys())
    if reserved:
        raise FormatError(f"meta: {reserved} are reserved keys")
    meta = {**meta, "boundary": pde.boundary, **({"c": "unset"} if pde.c is None else {})}
    meta_text = "\n".join(f"{k}={v}" for k, v in sorted(meta.items()))
    if _parse_meta(meta_text) != meta:
        raise FormatError(f"meta: {meta!r} does not read back as written")
    try:
        meta_bytes = meta_text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"meta is not UTF-8: {exc}") from exc
    header = _packed([
        ("magic", "4s", DATASET_MAGIC), ("version", "I", DATASET_VERSION),
        ("kind", "B", _KIND_CODES[kind]), ("rank", "B", d), ("reserved", "H", 0),
        ("batch", "I", grid.batch),
        *((f"extents[{i}]", "I", n) for i, n in enumerate(grid.spatial)),
        ("channels", "I", grid.channels), ("n_steps", "I", n_steps),
        ("dt", "d", pde.dt), ("dx", "d", pde.dx), *((f"c[{i}]", "d", v) for i, v in enumerate(c)),
        ("nu", "d", pde.nu), ("alpha", "d", pde.alpha), ("seed", "Q", seed),
        ("meta length", "I", len(meta_bytes)),
    ])
    with replacing_file(path) as fh:
        fh.write(header)
        fh.write(meta_bytes)
        for t, frame in enumerate(frames):
            _check_frame(t, frame.data)
            # little-endian as declared, and no copy on a little-endian host
            fh.write(frame.data.astype("<f8", copy=False))
            del frame  # before the next one is drawn


def _packed(fields: Iterable[tuple[str, str, object]]) -> bytes:
    """``(name, struct code, value)`` header fields, packed little-endian;
    :class:`FormatError`, naming the field, for a value its code cannot hold."""
    out = bytearray()
    for name, code, value in fields:
        try:
            out += struct.pack("<" + code, value)
        except struct.error as exc:
            raise FormatError(f"{name}: {value!r} does not fit the header's "
                              f"{code!r} field ({exc})") from exc
    return bytes(out)


def read_dataset(path) -> Dataset:
    """Parse and check a dataset container, rejecting unknown magic or version.

    A file that does not decode to a valid dataset, one holding a NaN or
    Inf included, raises :class:`FormatError`.  Every frame is read and
    checked here, one at a time, but none is kept: the dataset's frames are
    read from the file again when they are used (see :meth:`Dataset.frame`
    and :meth:`Dataset.pairs`), each read checked the same way, so reading
    holds one frame, and a walk two, however many the file has.
    """
    fh = open(path, "rb")
    try:
        _, _, kind_code, d, _ = read_header(fh, "<4sIBBH", DATASET_MAGIC, DATASET_VERSION, 3)
        if kind_code not in _KIND_NAMES:
            raise FormatError(f"unknown dataset kind code {kind_code}")
        counts = struct.unpack(f"<{d + 3}I", read_exact(fh, 4 * (d + 3), "extents"))
        batch, spatial, channels, n_steps = counts[0], counts[1:-2], counts[-2], counts[-1]
        scalars = struct.unpack(
            f"<2d{d}d2dQ", read_exact(fh, 8 * (d + 5), "parameters")
        )
        dt, dx = scalars[0], scalars[1]
        c = tuple(scalars[2 : 2 + d])
        nu, alpha, seed = scalars[2 + d], scalars[3 + d], scalars[4 + d]
        (meta_len,) = struct.unpack("<I", read_exact(fh, 4, "meta length"))
        try:
            meta_text = read_exact(fh, meta_len, "meta").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"meta is not UTF-8: {exc}") from exc
        meta = _parse_meta(meta_text)
        boundary = meta.pop("boundary", "periodic")
        c_opt: tuple[float, ...] | None = c
        if meta.pop("c", None) == "unset":
            c_opt = None
        try:
            grid = Shape(batch, spatial, channels)
            pde = GridPde(dx=dx, dt=dt, c=c_opt, nu=nu, alpha=alpha, boundary=boundary)
        except WindecError as exc:
            raise FormatError(f"invalid header values: {exc}") from exc
        check_payload(fh, (n_steps + 1) * grid.count * 8, "frames")
        frames = _FrameFile(fh, grid, n_steps + 1)
        frames.check_all()
    except BaseException:
        fh.close()
        raise
    return Dataset(_KIND_NAMES[kind_code], frames, pde, seed, meta)
