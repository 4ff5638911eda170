"""Independent reference implementations used to cross-check the library.

Everything here recomputes expected results through a different code path
than the module under test: direct index arithmetic, scipy's interpolation
and correlation routines, explicit padded-array slicing, per-block
split/stack decomposition, one-sample-at-a-time loops, or an SVD in place
of the normal equations.  The copy-based ``split``, ``stack`` and
``slice_region`` primitives that the per-offset sweep is built from live
here too, as does the unit ``impulse``; the library's prediction path does
not use them.
"""

import math
from itertools import product

import numpy as np
import scipy.ndimage

from windec import (
    BatchTensor,
    DivisibilityError,
    RankError,
    ShapeMismatchError,
    SliceBoundsError,
    expand_domain,
)


def flat_index(dims, coords):
    """Row-major flat index of a multi-coordinate, slowest axis first."""
    idx = 0
    for n, c in zip(dims, coords):
        idx = idx * n + c
    return idx


def gather_window(x, w_sizes, block):
    """Window (j_1..j_d) of a grid batch by direct hyper-rectangle slicing."""
    slices = tuple(slice(j * w, (j + 1) * w) for j, w in zip(block, w_sizes))
    return x[(slice(None), *slices, slice(None))]


def chunk_batch_index(batch, blocks, b, block):
    """Batch position of window ``block`` for item ``b`` after chunking.

    The decomposition stacks dimension 1 blocks first, so the original batch
    index varies fastest and the last dimension's block index slowest.
    """
    idx = 0
    for dim in reversed(range(len(blocks))):
        idx = idx * blocks[dim] + block[dim]
    return idx * batch + b


def upwind_full(data, courant):
    """Zero-extension semi-Lagrangian transport of a full (B, .., C) array.

    grid-constant mode interpolates partially against zero ghost cells,
    which is the zero-extension convention of the window pipeline.
    """
    shift = (0.0, *courant, 0.0)
    return scipy.ndimage.shift(data, shift, order=1, mode="grid-constant", cval=0.0)


def diffusion_full(data, lam):
    """One explicit diffusion update with zero ghost cells."""
    d = data.ndim - 2
    widths = [(0, 0)] + [(1, 1)] * d + [(0, 0)]
    padded = np.pad(data, widths)
    nbsum = np.zeros_like(data)
    core = [slice(1, 1 + n) for n in data.shape]
    core[0] = slice(None)
    core[-1] = slice(None)
    for axis in range(1, 1 + d):
        for step in (-1, 1):
            idx = list(core)
            idx[axis] = slice(1 + step, 1 + step + data.shape[axis])
            nbsum += padded[tuple(idx)]
    return data + lam * (nbsum - 2 * d * data)


def burgers_loop(data, dx, dt, nu, n_sub):
    """``n_sub`` Burgers sub-steps of ``dt / n_sub``, one velocity component at a time.

    Periodic first-order upwind self-advection plus central viscosity on a
    (B, N_1, N_2, 2) array, the update of ``burgers_step`` written per component.
    """
    dt = dt / n_sub
    a = data.copy()
    for _ in range(n_sub):
        vel = [a[..., 0], a[..., 1]]
        new = np.empty_like(a)
        for comp in range(2):
            phi = a[..., comp]
            conv = np.zeros_like(phi)
            for axis, w in enumerate(vel):
                ax = axis + 1
                back = (phi - np.roll(phi, 1, axis=ax)) / dx
                fwd = (np.roll(phi, -1, axis=ax) - phi) / dx
                conv += np.maximum(w, 0.0) * back + np.minimum(w, 0.0) * fwd
            lap = (
                np.roll(phi, 1, axis=1)
                + np.roll(phi, -1, axis=1)
                + np.roll(phi, 1, axis=2)
                + np.roll(phi, -1, axis=2)
                - 4 * phi
            ) / dx**2
            new[..., comp] = phi + dt * (nu * lap - conv)
        a = new
    return a


def convolve_stencil_full(data, weights, bias, w_sizes):
    """Apply a learned window filter to the whole grid with zero extension.

    ``weights`` has shape (prod(w)*C_in, C_out) with window cells flattened
    row-major, channels fastest; computed here with scipy correlation.
    """
    batch, *spatial, cin = data.shape
    cout = weights.shape[1]
    kernel = weights.reshape(*w_sizes, cin, cout)
    out = np.zeros((batch, *spatial, cout))
    for b in range(batch):
        for co in range(cout):
            acc = np.zeros(spatial)
            for ci in range(cin):
                acc += scipy.ndimage.correlate(
                    data[b, ..., ci], kernel[..., ci, co], mode="constant", cval=0.0
                )
            out[b, ..., co] = acc + bias[co]
    return out


def brute_offsets(w_sizes):
    """Cartesian product of per-dimension offsets by brute enumeration."""
    return list(product(*(range(w) for w in w_sizes)))


def expansion_formula(n, w):
    """Expanded extent and block count, straight from the definitions."""
    expanded = (math.floor((n - 1) / w) + 1) * w + (w - 1)
    blocks = math.floor(expanded / w)
    return expanded, blocks


def _check_axis(t, axis):
    if not 0 <= axis < t.data.ndim:
        raise SliceBoundsError(f"axis {axis} out of range for rank-{t.data.ndim} tensor")


def split(t, parts, axis):
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


def stack(parts, axis):
    """Concatenate equally-shaped tensors along ``axis`` into one copy."""
    if not parts:
        raise ShapeMismatchError("cannot stack an empty sequence")
    first = parts[0].dims
    for p in parts[1:]:
        if p.dims != first:
            raise ShapeMismatchError(f"heterogeneous shapes: {first} vs {p.dims}")
    _check_axis(parts[0], axis)
    return BatchTensor(np.concatenate([p.data for p in parts], axis=axis))


def slice_region(t, start, extent):
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



def impulse(shape, pos):
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

def split_stack_chunk(t, blocks):
    """Window batch by d rounds of: split spatial axis i, stack onto the batch axis."""
    for i, b in enumerate(blocks):
        t = stack(split(t, b, axis=i + 1), 0)
    return t


def split_stack_patch(t, batch, blocks):
    """Inverse of split_stack_chunk: peel block groups off the batch axis, last dim first."""
    d = t.ndim
    for i in range(d):
        t = stack(split(t, blocks[d - 1 - i], axis=0), d - i)
    return t


def predict_centers(predictor, windows):
    """A predictor's centers for a window batch, as a ``(M, 1..1, N_c)`` batch."""
    centers = predictor.predict_windows(windows.data)
    return BatchTensor(centers.reshape(windows.batch, *(1,) * windows.ndim, windows.channels))


def offset_sweep_integrate(t, w, predictor):
    """Full-field prediction by sweeping every in-window decomposition offset.

    For each offset p the expanded domain is sliced at p, chunked into
    windows, predicted, patched back, and scattered onto the lattice of cells
    p + j*W whose windows that offset centers.  Returns a plain array.
    """
    expanded, rec = expand_domain(t, w)
    canvas = np.zeros((t.batch, *rec.step1, t.channels))
    for p in brute_offsets(w.sizes):
        windows = split_stack_chunk(slice_region(expanded, p, rec.step1), rec.blocks)
        lattice = split_stack_patch(predict_centers(predictor, windows), t.batch, rec.blocks)
        idx = (slice(None), *(slice(pi, None, wi) for pi, wi in zip(p, w.sizes)), slice(None))
        canvas[idx] = lattice.data
    return canvas[(slice(None), *(slice(0, n) for n in rec.original), slice(None))]


def sample_pairs_loop(ds, w, sample_budget, seed, pair_indices=None):
    """Training pairs gathered one sample at a time, drawing the RNG in the
    library's order: frame pairs, batch items, then one center per dimension."""
    pairs = np.arange(ds.n_steps) if pair_indices is None else np.asarray(pair_indices)
    radius = w.radius
    rng = np.random.default_rng(seed)
    ts = rng.choice(pairs, size=sample_budget)
    bs = rng.integers(0, ds.grid.batch, size=sample_budget)
    cells = np.stack(
        [rng.integers(r, n - r, size=sample_budget) for n, r in zip(ds.grid.spatial, radius)],
        axis=1,
    )
    x = np.empty((sample_budget, w.cells * ds.grid.channels))
    y = np.empty((sample_budget, ds.grid.channels))
    for s in range(sample_budget):
        t, b = int(ts[s]), int(bs[s])
        center = cells[s]
        idx = (b, *(slice(c - r, c + r + 1) for c, r in zip(center, radius)), slice(None))
        x[s] = ds.frames[t].data[idx].ravel()
        y[s] = ds.frames[t + 1].data[(b, *center, slice(None))]
    return x, y


def ridge_svd(x, y, lam):
    """Centered ridge regression through the thin SVD of the centered inputs.

    With xc = U diag(s) V^T the weights are V diag(s / (s^2 + lam)) U^T yc,
    and the bias is ym - xm @ w, as for an unpenalized intercept.
    """
    xm = x.mean(axis=0)
    ym = y.mean(axis=0)
    u, s, vt = np.linalg.svd(x - xm, full_matrices=False)
    w = vt.T @ ((s / (s**2 + lam))[:, None] * (u.T @ (y - ym)))
    return w, ym - xm @ w
