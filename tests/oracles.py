"""Independent reference implementations used to cross-check the library.

Everything here recomputes expected results through a different code path
than the module under test: direct index arithmetic, scipy's interpolation
and correlation routines, explicit padded-array slicing, windows viewed on
one zero-padded copy of the whole grid (prediction fills a slab per tile),
per-block split/stack decomposition, one-sample-at-a-time loops,
whole-frame metric formulas (evaluation sums them tile by tile), an SVD in
place of the normal equations, or normal equations summed over explicitly
listed blocks of samples.  The copy-based ``split``, ``stack`` and
``slice_region`` primitives that the per-offset sweep is built from live
here too, as does the unit ``impulse``; the library's prediction path does
not use them.  An axis, slice or index outside a tensor's extents raises
``ShapeMismatchError``, as a shape the library cannot use does.
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
    expand_domain,
)
from windec.windowing import _tiles, window_view


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


def heat_padded(data, lam, n_sub, boundary):
    """``n_sub`` explicit diffusion sub-steps of diffusion number ``lam``.

    Each sub-step pads the whole (B, N_1..N_d, 1) array by one cell with
    ``np.pad`` (``wrap`` for periodic, ``constant`` for zero-extension,
    ``edge`` for insulated, which at one cell is the mirror about the face)
    and sums the 2d axis neighbours from shifted slices of the padded copy.
    """
    mode = {"periodic": "wrap", "zero-extension": "constant", "insulated": "edge"}[boundary]
    d = data.ndim - 2
    a = data
    for _ in range(n_sub):
        padded = np.pad(a, [(0, 0), *[(1, 1)] * d, (0, 0)], mode=mode)
        total = np.zeros_like(a)
        for axis in range(1, d + 1):
            lo = [slice(None), *[slice(1, -1)] * d, slice(None)]
            hi = list(lo)
            lo[axis], hi[axis] = slice(0, -2), slice(2, None)
            total += padded[tuple(lo)] + padded[tuple(hi)]
        a = a + lam * (total - 2 * d * a)
    return a


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


def dense_tap_table(taps, w_sizes, channels):
    """A (prod(w)*C, C) learned-stencil weight table from center-relative taps.

    Each ``(offset, weight)`` tap puts ``weight`` on channel ch of the cell at
    center + offset for output channel ch, by flat index arithmetic.
    """
    center = [(w - 1) // 2 for w in w_sizes]
    table = np.zeros((math.prod(w_sizes) * channels, channels))
    for offset, weight in taps:
        cell = flat_index(w_sizes, [c + o for c, o in zip(center, offset)])
        for ch in range(channels):
            table[cell * channels + ch, ch] += weight
    return table


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
        raise ShapeMismatchError(f"axis {axis} out of range for rank-{t.data.ndim} tensor")


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
            raise ShapeMismatchError(
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
            raise ShapeMismatchError(f"spatial dim {i}: index {p} outside extent {full}")
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


def pad_view_integrate(t, w, predictor, tile_bytes):
    """Full-field prediction from one zero-padded copy of the whole grid.

    The grid is padded by the window radius with ``np.pad``, viewed as every
    window with ``window_view``, and each tile of ``windowing._tiles`` (the
    same tiles, from the same byte cap) goes to the predictor as a view of
    that padded copy.  Returns a plain array.
    """
    padded = np.pad(t.data, [(0, 0), *((r, r) for r in w.radius), (0, 0)])
    windows = window_view(padded, w.sizes)
    out = np.empty(t.dims)
    max_cells = max(1, tile_bytes // (w.sizes[-1] * t.channels * 8))
    for tile in _tiles(t.dims[:-1], max_cells):
        out[tile] = predictor.predict_windows(windows[tile])
    return out


def whole_frame_metrics(pred, truth):
    """``(rel_l2, paper_l2, r2, zero-truth cells)`` of a whole predicted frame.

    Each metric is one formula over the whole frame, as evaluation took them
    before it scored tile by tile: norms of the frame of differences, the
    relative errors gathered at the non-zero truth cells, and the residual
    and total sums of squares about the truth mean.
    """
    p, t = np.ravel(pred), np.ravel(truth)
    d = p - t
    mask = t != 0.0
    return (float(np.linalg.norm(d)) / float(np.linalg.norm(t)),
            float(np.sum(np.abs(d[mask]) / np.abs(t[mask]))),
            1.0 - float(np.sum(d ** 2)) / float(np.sum((t - t.mean()) ** 2)),
            int(t.size - np.count_nonzero(t)))


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


def sample_blocks_loop(ds, sample_budget, seed, step, pair_indices=None):
    """The sample indices of each block the streamed fit gathers, by a loop:
    the samples of each drawn frame pair in increasing order, ``step`` at a
    time.  Draws the frame pairs as ``sample_pairs_loop`` does."""
    pairs = np.arange(ds.n_steps) if pair_indices is None else np.asarray(pair_indices)
    ts = np.random.default_rng(seed).choice(pairs, size=sample_budget)
    blocks = []
    for t in sorted(set(ts.tolist())):
        take = [s for s in range(sample_budget) if ts[s] == t]
        blocks += [take[i:i + step] for i in range(0, len(take), step)]
    return blocks


def ridge_by_blocks(x, y, blocks, lam):
    """Centered ridge weights and bias from normal equations summed block by block.

    Each block of rows is centered by its own mean and adds its Gram and
    cross products; the overall mean m is the count-weighted mean of the
    block means, which add their scatter sum_j n_j (m_j - m)(m_j - m)^T.
    Then (G + lam I) w = c is solved by LU with one refinement step, and the
    bias is ym - xm @ w.
    """
    p, nc = x.shape[1], y.shape[1]
    gram, cross = np.zeros((p, p)), np.zeros((p, nc))
    counts, x_means, y_means = [], [], []
    for rows in blocks:
        xb, yb = x[rows], y[rows]
        xm, ym = xb.mean(axis=0), yb.mean(axis=0)
        xc, yc = xb - xm, yb - ym
        gram += xc.T @ xc
        cross += xc.T @ yc
        counts.append(float(len(rows)))
        x_means.append(xm)
        y_means.append(ym)
    n = sum(counts)
    xm, ym = np.zeros(p), np.zeros(nc)
    for count, bxm, bym in zip(counts, x_means, y_means):
        xm = xm + count * bxm
        ym = ym + count * bym
    xm, ym = xm / n, ym / n
    dx, dy = np.array(x_means) - xm, np.array(y_means) - ym
    weighted = np.array(counts)[:, None] * dx
    gram += weighted.T @ dx
    cross += weighted.T @ dy
    a = gram + lam * np.eye(p)
    w = np.linalg.solve(a, cross)
    w = w + np.linalg.solve(a, cross - a @ w)
    return w, ym - xm @ w
