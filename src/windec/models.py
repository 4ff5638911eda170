"""Window-to-center predictors and evaluation metrics.

A predictor's ``predict_windows`` maps windows ``(..., W_1..W_d, N_c)``, with
any leading axes, to the predicted next values at their centers
``(..., N_c)``; it reads the read-only strided windows that
``integrate_predictions`` hands it in place, views of a slab buffer that
holds one tile's cells plus the window-radius halo.  The exact stencils
(identity, upwind transport, explicit diffusion) are tables of center-relative
``(offset, weight)`` taps built from known update rules, whose radius is
the reach of their non-zero taps; one ``predict_windows`` applies them to
any window that holds that reach.  The learned stencil is a
ridge-regressed linear filter over the whole window.
Where a tile's strides show a window view's overlap (a window's last-axis
step equals the step between windows), it copies the tile's runs of slab
cells under each block of ``BAND`` windows once, laid out so that the runs
under one output row of one block are one stretch of memory; then one matmul
per outer in-window offset (one per 2-D tile, ``W_1`` per 3-D tile) applies
the stacked banded matrices of every row offset to all of them.  The cells
after the last whole block, and windows laid out otherwise, take one window
row at a time.
The global linear model is the deliberately non-local baseline that maps
whole frames to whole frames.  Fitted from fewer frames than a frame has
values, the baseline keeps its ridge solution in sample space (two n x p
factors), so it never holds a dense whole-frame-squared weight matrix.

The metrics (``rel_l2``, ``paper_l2``, ``r2``) are ratios of per-cell sums,
so ``MetricSums`` can add them up tile by tile as each tile is predicted;
the whole-array functions take the same sums over one tile.

Every predictor declares its dependence radius: cells outside the central
``(2r+1)^d`` sub-window never influence its output.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import operator
import struct
from dataclasses import dataclass, field
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import (
    DegenerateTruth,
    DomainError,
    FormatError,
    ShapeMismatchError,
    SingularSystem,
    StabilityError,
    WindowTooLarge,
    WindowTooSmall,
)
from .generators import Dataset, GridPde, check_payload, read_exact
from .sizing import courant
from .tensor import BatchTensor
from . import windowing
from .windowing import WindowSpec, window_view

log = logging.getLogger(__name__)

STENCIL_MAGIC = b"DDST"
STENCIL_VERSION = 1


@runtime_checkable
class Predictor(Protocol):
    """Contract for anything that predicts window centers.

    ``predict_windows`` works like a gufunc with core dimensions
    ``(W_1..W_d, N_c) -> (N_c)``: it maps a read-only ``(..., W_1..W_d, N_c)``
    array of windows to ``(..., N_c)`` centers.  Prediction, both
    ``integrate_predictions`` and the CLI's evaluation, passes it strided
    views of a slab buffer, one tile's cells zero-extended by the window
    radius, so a predictor that copies its windows copies up to
    prod(W_1..W_{d-1}) * ``TILE_BYTES`` per call.  The slab is refilled for
    the next tile, so the windows are valid only during the call: a
    predictor must not keep them, and what it returns is written into an
    output frame or scored against the truth before the next fill, so it
    may be a view of them.
    """

    radius: tuple[int, ...]

    def predict_windows(self, windows: np.ndarray) -> np.ndarray: ...


def _check_real(windows: np.ndarray) -> None:
    if windows.dtype.kind not in "biuf":
        raise DomainError(f"windows must hold real numbers, not {windows.dtype}")


def _check_windows(windows: np.ndarray, window: WindowSpec, channels: int) -> None:
    """Windows must be real numbers ending in ``window``'s sizes and ``channels``."""
    want = (*window.sizes, channels)
    if windows.shape[-len(want):] != want:
        raise ShapeMismatchError(f"windows {windows.shape} do not match {want}")
    _check_real(windows)


class _TapStencil:
    """Exact linear stencil held as center-relative ``(offset, weight)`` taps.

    Zero weights are dropped, and ``radius`` is the largest |offset| of the
    remaining taps on each axis.  :meth:`predict_windows` reads any windows
    that hold that reach, over all channels at once.
    """

    def __init__(self, taps: Sequence[tuple[tuple[int, ...], float]]):
        self._taps = [(offset, weight) for offset, weight in taps if weight != 0.0]
        self.radius = tuple(max((abs(offset[i]) for offset, _ in self._taps), default=0)
                            for i in range(len(taps[0][0])))

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """``w_0 * cell_0 + sum_k w_k * cell_k`` over the taps, in tap order."""
        _check_real(windows)
        center = [(w - 1) // 2 for w in windows.shape[-len(self.radius) - 1:-1]]
        if len(center) < len(self.radius) or any(c < r for c, r in zip(center, self.radius)):
            raise ShapeMismatchError(f"windows {windows.shape} do not hold radius {self.radius}")
        terms = (weight * windows[(..., *map(operator.add, center, offset), slice(None))]
                 for offset, weight in self._taps)
        return functools.reduce(operator.iadd, terms)  # sums into the first term


class IdentityPredictor(_TapStencil):
    """Returns the window center unchanged: one unit tap, radius zero."""

    def __init__(self, ndim: int):
        super().__init__([((0,) * ndim, 1.0)])


class UpwindStencil(_TapStencil):
    """First-order upwind transport of the window center over one dt.

    The center value is taken from the characteristic foot, center - c*dt/dx
    cells away, with linear interpolation between the two straddling cells:
    per axis one or two taps, multiplied out over the axes in axis order.  A
    foot within 1e-12 of a whole cell snaps to it, an exact shifted lookup.
    The foot is placed from ``window``'s center, which must hold its reach.
    """

    def __init__(self, pde: GridPde, window: WindowSpec):
        if pde.c is None:
            raise DomainError("upwind stencil needs transport speeds c")
        if len(pde.c) != window.ndim:
            raise ShapeMismatchError(
                f"c has {len(pde.c)} components for a rank-{window.ndim} window"
            )
        self.courant = tuple(courant(ci, pde.dt, pde.dx) for ci in pde.c)
        axes = []
        for c, center in zip(self.courant, window.radius):
            pos = center - c
            if abs(pos - round(pos)) < 1e-12:
                pos = round(pos)  # its upper tap then has weight 0 and is dropped
            low = math.floor(pos)
            axes.append([(low - center, 1.0 - (pos - low)), (low + 1 - center, pos - low)])
        super().__init__([(offset, math.prod(weights)) for offset, weights in
                          (zip(*combo) for combo in itertools.product(*axes))])
        if any(r > wr for r, wr in zip(self.radius, window.radius)):
            raise WindowTooSmall(
                f"Courant reach {self.radius} cells exceeds window radius {window.radius}"
            )


class DiffusionStencil(_TapStencil):
    """One explicit central-difference diffusion update at the window center.

    With diffusion number lam = alpha*dt/dx^2 the taps are 1 - 2*d*lam at
    the center and lam at +-1 on each axis, so at alpha = 0 the radius is 0.
    """

    def __init__(self, pde: GridPde, window: WindowSpec):
        d = window.ndim
        lam = pde.alpha * pde.dt / pde.dx**2
        if lam > 1.0 / (2 * d) + 1e-12:
            raise StabilityError(
                f"diffusion number {lam:.4g} exceeds 1/(2d)={1.0 / (2 * d):.4g}"
            )
        super().__init__([((0,) * d, 1.0 - 2 * d * lam)] + [
            (tuple(step if i == axis else 0 for i in range(d)), lam)
            for axis in range(d) for step in (-1, 1)
        ])


# Outputs per banded GEMM along the last spatial axis.  integrate_predictions
# in ms with 4/8/12/16 outputs on a 2-core Xeon (medians of 9 rounds, each
# the median of 10 calls; rounds spread by up to +-20%): 4x256^2 at 17^2
# 15.8/16.1/27.6/18.3, 2x48^3 at 9^3 34/27/61/43, 2x32^3 at 5^3
# 5.0/4.1/13.2/3.9, 4x256^2x2 at 3^2 13.4/12.3/13.5/11.2; 4x48^2 at 5^2 and
# 4x1024 at 61 and at 5 within 0.1 ms of each other.  On these extents 12
# leaves a ragged tail for the row matmuls; 4 and 16 tie with 8 on some
# shapes and lose on others.
BAND = 8


def _stacked_bands(weights: np.ndarray, sizes: tuple[int, ...], nc: int) -> np.ndarray:
    """The banded block-Toeplitz matrices of :meth:`LearnedStencil.predict_windows`.

    ``band[k'][q * run + (j + m) * N_c + i, j * N_c + o] =
    kernel[k', q][m * N_c + i, o]`` with ``run = (BAND + W_d - 1) * N_c``:
    the ``W_{d-1}`` band matrices of outer offset k' stacked along K, one
    ``(W_{d-1} * run, BAND * N_c)`` matrix per k' (a 1-D window has one,
    for a unit leading axis).
    """
    lead, w_d = (sizes[:-1] if len(sizes) > 1 else (1,)), sizes[-1]
    taps = weights.reshape(*lead, w_d, nc, nc)
    band = np.zeros((*lead, BAND + w_d - 1, nc, BAND, nc))
    for j in range(BAND):
        band[..., j:j + w_d, :, j, :] = taps
    return band.reshape(*lead[:-1], lead[-1] * (BAND + w_d - 1) * nc, BAND * nc)


def _float_array(value, name: str) -> np.ndarray:
    try:
        return np.asarray(value).astype(np.float64, casting="safe")
    except (TypeError, ValueError) as exc:
        raise DomainError(f"stencil {name} must be real numbers: {exc}") from exc


@dataclass(frozen=True)
class LearnedStencil:
    """Linear filter over the whole window, one weight row per feature.

    Features are the window cells flattened row-major with channels fastest,
    matching the buffer layout of :class:`BatchTensor`; ``weights`` has shape
    (prod(W_i)*N_c, N_c) and ``bias`` shape (N_c,), both held as float64.
    On a window view's tile :meth:`predict_windows` takes one matmul per
    outer in-window offset (k_1..k_{d-2}) over a copy of the tile's runs of
    slab cells, one run per block of ``BAND`` windows and grid row, with
    banded matrices built once from the weights; otherwise one matmul per
    leading in-window offset, each over one window row (``W_d * N_c``
    features) of every window, read in place.
    """

    window: WindowSpec
    weights: np.ndarray
    bias: np.ndarray
    ridge_lambda: float
    # the stacked band matrices of the banded path, built once from the weights
    _band: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _float_array(self.weights, "weights"))
        object.__setattr__(self, "bias", _float_array(self.bias, "bias"))
        if self.bias.ndim != 1 or self.bias.size == 0:
            raise ShapeMismatchError(f"bias {self.bias.shape} is not (N_c,)")
        nc = self.bias.shape[0]
        if self.weights.shape != (self.window.cells * nc, nc):
            raise ShapeMismatchError(
                f"weights {self.weights.shape} do not match window {self.window.sizes} "
                f"with {nc} channels"
            )
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.bias)):
            raise DomainError("stencil weights must be finite")
        object.__setattr__(self, "_band", _stacked_bands(self.weights, self.window.sizes, nc))

    @property
    def channels(self) -> int:
        return self.bias.shape[0]

    @property
    def radius(self) -> tuple[int, ...]:
        return self.window.radius

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """Bias plus, over the prod(W_1..W_{d-1}) leading in-window offsets k,
        window row k times its ``(W_d * N_c, N_c)`` block of the weights.

        Where a window's last-axis step equals the step between windows along
        the last spatial axis (N_c values), and along each leading grid axis
        of extent > 1 the step between windows equals the in-window step, as
        in a :func:`window_view` tile, the rows at offset k of ``BAND``
        consecutive windows are one run of ``run = (BAND + W_d - 1) * N_c``
        cells of the zero-extended grid (of the slab ``integrate_predictions``
        fills), and a banded block-Toeplitz matrix maps it to all
        ``BAND * N_c`` of their outputs.  The runs under the tile are copied
        once to a contiguous ``(..., L_1..L_{d-2}, blocks, L_{d-1}, run)``
        buffer, with ``L_i = N_i + W_i - 1`` grid rows on leading axis i
        (``N_i`` is 1 where a tile cut inside a row has dropped the axis):
        about three times the tile's slab rows at 17 x 17.  The ``W_{d-1}``
        runs under one output row of one block are then one stretch of
        ``W_{d-1} * run`` values, so the ``W_{d-1}`` band matrices of an outer
        offset (k_1..k_{d-2}) stack into one ``(W_{d-1} * run, BAND * N_c)``
        matrix, and the sum over k_{d-1} runs inside BLAS: one matmul per
        2-D tile, ``W_1`` per 3-D tile, and one per 1-D tile, which has a
        unit leading axis.  The cells after the last whole block, and windows
        laid out otherwise, go through one matmul per window row.
        """
        _check_windows(windows, self.window, self.channels)
        sizes, nc = self.window.sizes, self.channels
        d, w_d = len(sizes), sizes[-1]
        kernel = self.weights.reshape(*sizes[:-1], w_d * nc, nc)
        offsets = list(itertools.product(*(range(s) for s in sizes[:-1])))
        out = np.empty((*windows.shape[:-d - 1], nc))
        shape, strides, item = windows.shape, windows.strides, windows.itemsize
        # the tile's extents along grid axes 1..d-1, 1 where a tile cut inside
        # a row has dropped the axis
        grid = [shape[i - 2 * d - 1] if windows.ndim > 2 * d - i else 1 for i in range(d - 1)]
        overlap = (windows.ndim > d + 1 and strides[-1] == item
                   and strides[-2] == strides[-d - 2] == nc * item
                   and all(n == 1 or strides[i - 2 * d - 1] == strides[i - d - 1]
                           for i, n in enumerate(grid)))
        done = shape[-d - 2] // BAND * BAND if overlap and out.size else 0
        rest, out_rest = windows, out
        if done:
            # a 1-D window gets a unit leading axis: one offset, one grid row
            lead, grid, lsteps = ((sizes[:-1], grid, strides[-d - 1:-2]) if d > 1
                                  else ((1,), [1], (0,)))
            run = (BAND + w_d - 1) * nc
            # runs[..., p_1..p_{d-2}, i, p_{d-1}, :] is the slab run under row p
            # of windows i * BAND .. (i + 1) * BAND - 1, copied once; the
            # W_{d-1} runs under one output row of one block are then one
            # stretch of W_{d-1} * run values
            batch, blocks = shape[:max(0, windows.ndim - 2 * d - 1)], done // BAND
            runs = as_strided(
                windows,
                (*batch, *(n + s - 1 for n, s in zip(grid[:-1], lead[:-1])), blocks,
                 grid[-1] + lead[-1] - 1, run),
                (*strides[:len(batch)], *lsteps[:-1], BAND * nc * item, lsteps[-1], item),
                writeable=False,
            ).copy()
            head, step = out[..., :done, :], runs.strides
            for i, k in enumerate(itertools.product(*(range(s) for s in lead[:-1]))):
                # rows n and blocks i of one outer offset: row step run, block
                # step (N_{d-1} + W_{d-1} - 1) * run >= K, so each (blocks, K)
                # matrix is a BLAS operand
                operand = as_strided(
                    runs[(..., *k, 0, 0, 0)], (*batch, *grid, blocks, lead[-1] * run),
                    (*step[:-3], step[-2], step[-3], item), writeable=False)
                if i:
                    head += np.matmul(operand, self._band[k]).reshape(head.shape)
                else:
                    # the first product lands in the output (a view: unit axes
                    # added, N_c merged into blocks of BAND); (p_0 + b) + p_1
                    # is (b + p_0) + p_1 bit for bit
                    np.matmul(operand, self._band[k], out=head.reshape(
                        *batch, *grid, blocks, BAND * nc))
                    head += self.bias
            rest = windows[(..., slice(done, None)) + (slice(None),) * (d + 1)]
            out_rest = out[..., done:, :]
        if out_rest.size:
            out_rest[...] = self.bias
            # merging W_d and N_c is a view when the windows come from a C-ordered grid
            rows = rest.reshape(*rest.shape[:-2], -1)
            for k in offsets:
                out_rest += rows[(..., *k, slice(None))] @ kernel[k]
        return out


@dataclass(frozen=True)
class GlobalLinearModel:
    """Whole-frame to whole-frame ridge map; the non-local baseline.

    A frame ``x`` flattened to p values maps to
    ``(x - x_mean) @ factors[0] @ factors[1] ... + y_mean``.  With fewer
    training samples n than features p the factors are the dual pair
    ``(xc.T, a)`` of :func:`_solve_ridge`, both n x p, so the model and a
    prediction take O(n p) memory and no p x p weight matrix is formed;
    otherwise they are the primal weights ``(w,)``.
    """

    dims: tuple[int, ...]
    factors: tuple[np.ndarray, ...]
    x_mean: np.ndarray
    y_mean: np.ndarray
    ridge_lambda: float

    def predict_frame(self, frame: BatchTensor) -> BatchTensor:
        if frame.dims[1:] != self.dims[1:]:
            raise ShapeMismatchError(f"frame {frame.dims} does not match {self.dims}")
        out = frame.data.reshape(frame.batch, -1) - self.x_mean
        for f in self.factors:
            out = out @ f
        out += self.y_mean
        return BatchTensor(out.reshape(frame.dims))


def _check_ridge(n: int, p: int, lam: float) -> None:
    """Refuse a negative ridge, and no ridge with n <= p samples for p features.

    Centering leaves rank at most n - 1, so lam == 0 with n <= p is always
    singular.
    """
    if lam < 0:
        raise DomainError("ridge_lambda must be non-negative")
    if lam == 0 and n <= p:
        raise SingularSystem(
            f"{n} samples for {p} features leave the normal equations singular "
            "without ridge; increase ridge_lambda"
        )


def _check_residual(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> None:
    b_norm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(a @ w - b))
    if b_norm > 0 and resid / b_norm > 1e-8:
        raise SingularSystem(
            f"normal-equation residual {resid / b_norm:.3g} > 1e-8; "
            "increase ridge_lambda"
        )


def _solve_primal(gram: np.ndarray, cross: np.ndarray, lam: float) -> np.ndarray:
    """Weights w of (X^T X + lam I) w = X^T y from the centered ``gram`` and
    ``cross`` products, by LU solve and one refinement pass.

    Adds lam to ``gram``'s diagonal in place, so no second p x p matrix
    exists beside the LU factors.  Raises SingularSystem when the solve fails
    or leaves a relative residual above 1e-8.
    """
    gram.reshape(-1)[::gram.shape[0] + 1] += lam  # the diagonal, in place
    try:
        w = np.linalg.solve(gram, cross)
        w += np.linalg.solve(gram, cross - gram @ w)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations are singular; increase ridge_lambda") from exc
    _check_residual(gram, w, cross)
    return w


def _solve_ridge(
    x: np.ndarray, y: np.ndarray, lam: float
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Centered ridge normal equations with one refinement pass.

    Returns (factors, xm, ym): the weights are the product of ``factors`` and
    the prediction of ``x`` is ``(x - xm) @ weights + ym``, which leaves the
    bias unpenalized.  With n samples and p features the solve runs in the
    smaller space: the p x p system (X^T X + lam I) w = X^T y when n >= p,
    with factors ``(w,)`` (:func:`_solve_primal`); otherwise the n x n
    system (X X^T + lam I) a = y, with factors ``(X^T, a)`` by the identity
    (X^T X + lam I)^-1 X^T = X^T (X X^T + lam I)^-1.  The dual factors are
    both n x p, so the p x p weights are never formed.

    The dual system is n x n with as many right-hand sides as features
    (c09: 16 x 16 against 2304), and LAPACK's LU solve pays per right-hand
    side.  So the dual branch inverts the matrix once and applies the
    inverse by GEMM for both the solve and the refinement: 0.26-0.35 ms at
    c09's size on a 2-core Xeon, where two LU solves take 1.4-1.6 ms.  The
    primal system has p unknowns and one right-hand side per channel, where
    the inverse loses (p = 289, one channel: 3.5-3.8 ms against 1.8-2.2 ms),
    so it keeps ``np.linalg.solve``.

    Raises DomainError for lam < 0, and SingularSystem when lam == 0 and the
    system is rank deficient, which always holds for lam == 0 when n <= p.

    Takes ownership of ``x`` and ``y``: they are centered in place, so no
    second n x p array exists, and the dual factor ``X^T`` is a view of the
    centered ``x``.  Pass arrays that nothing else reads.
    """
    n, p = x.shape
    _check_ridge(n, p, lam)
    xm = x.mean(axis=0)
    ym = y.mean(axis=0)
    x -= xm
    y -= ym
    if n >= p:
        return (_solve_primal(x.T @ x, x.T @ y, lam),), xm, ym
    a = x @ x.T + lam * np.eye(n)
    try:
        a_inv = np.linalg.inv(a)
        w = a_inv @ y
        w = w + a_inv @ (y - a @ w)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("normal equations are singular; increase ridge_lambda") from exc
    _check_residual(a, w, y)
    return (x.T, w), xm, ym


def _training_pairs(ds: Dataset, pair_indices: Sequence[int] | None) -> np.ndarray:
    """The frame pairs (t, t + 1) to train on: all of them, or ``pair_indices``."""
    if ds.n_steps < 1:
        raise DomainError("training needs at least 2 frames")
    if pair_indices is None:
        return np.arange(ds.n_steps)
    pairs = np.asarray(pair_indices)
    if pairs.size == 0:
        raise DomainError("no training pairs")
    if pairs.ndim != 1 or pairs.dtype.kind not in "iu":
        raise DomainError(f"pair indices must be a list of integers, got {pair_indices!r}")
    if pairs.min() < 0 or pairs.max() >= ds.n_steps:
        raise DomainError(f"pair indices out of range [0, {ds.n_steps})")
    return pairs


def _sample_blocks(
    ds: Dataset,
    w: WindowSpec,
    sample_budget: int,
    seed: int,
    pair_indices: Sequence[int] | None,
    min_rows: int = 1,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Check the request and draw the samples of :func:`sample_training_pairs`.

    The returned iterator gathers them, frame pair by frame pair in
    increasing order, as ``(rows, x, y)`` blocks: the sample indices
    ``rows`` of one frame pair, their windows ``x`` as fresh
    ``rows.size x prod(W_i)*N_c`` rows, and their next center values ``y``.
    A block holds at most ``TILE_BYTES`` of windows, or ``min_rows`` windows
    where those take more.  The frames are read one at a time with
    :meth:`Dataset.frame`: for each frame pair t, frame t + 1 gives the
    next center values of all its samples, then frame t their windows, so
    a fit holds one frame of a file.  Every block is a copy, so none
    depends on a frame buffer the next read reuses.
    """
    pairs = _training_pairs(ds, pair_indices)
    if w.ndim != ds.grid.ndim:
        raise ShapeMismatchError(
            f"window rank {w.ndim} does not match grid rank {ds.grid.ndim}"
        )
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    radius = np.asarray(w.radius)
    highs = tuple(n - r for n, r in zip(ds.grid.spatial, w.radius))
    if any(hi <= lo for lo, hi in zip(w.radius, highs)):
        raise WindowTooLarge(
            f"window {w.sizes} leaves no interior cells on grid {ds.grid.spatial}"
        )
    rng = np.random.default_rng(seed)
    ts = rng.choice(pairs, size=sample_budget)
    bs = rng.integers(0, ds.grid.batch, size=sample_budget)
    cells = np.stack(
        [rng.integers(lo, hi, size=sample_budget) for lo, hi in zip(w.radius, highs)],
        axis=1,
    )
    n_features = w.cells * ds.grid.channels
    step = max(min_rows, windowing.TILE_BYTES // (n_features * 8))

    def blocks():
        for t in np.unique(ts):
            take = np.flatnonzero(ts == t)
            y = ds.frame(t + 1)[(bs[take], *cells[take].T)]
            windows = window_view(ds.frame(t), w.sizes)
            for i in range(0, take.size, step):
                rows = take[i:i + step]
                # the window of center c starts at c - r; no block is kept
                # here while the next one is gathered
                yield (rows,
                       windows[(bs[rows], *(cells[rows] - radius).T)].reshape(-1, n_features),
                       y[i:i + step])
    return blocks()


def sample_training_pairs(
    ds: Dataset,
    w: WindowSpec,
    sample_budget: int,
    seed: int,
    pair_indices: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (window, next center value) training pairs from a dataset.

    Cells are sampled uniformly over frame pairs, batch items, and interior
    positions at least half a window from every boundary, so each feature
    vector is a fully in-domain window.  Windows are gathered straight into
    the returned ``x``, at most ``TILE_BYTES`` of them per gather, so no
    second copy of the samples exists on the way.
    """
    blocks = _sample_blocks(ds, w, sample_budget, seed, pair_indices)
    x = np.empty((sample_budget, w.cells * ds.grid.channels))
    y = np.empty((sample_budget, ds.grid.channels))
    for rows, xb, yb in blocks:
        x[rows] = xb
        y[rows] = yb
    return x, y


def _centered_products(
    blocks: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]], p: int, nc: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Centered X^T X and X^T Y of streamed sample blocks, and the means of
    X and Y, holding one block of samples at a time.

    Each block is centered by its own mean m_j, in place, and its Gram and
    cross products are summed.  The blocks' means are then combined as in
    the pairwise update of Chan, Golub and LeVeque (1979): the Gram gains
    sum_j n_j (m_j - m)(m_j - m)^T about the overall mean m, and the cross
    product likewise.  No raw moment such as X^T X - n m m^T is formed, so
    nothing cancels against a large mean.
    """
    gram, block_gram = np.zeros((p, p)), np.empty((p, p))
    cross = np.zeros((p, nc))
    counts, x_means, y_means = [], [], []
    for _, x, y in blocks:
        xm, ym = x.mean(axis=0), y.mean(axis=0)
        x -= xm
        y -= ym
        gram += np.matmul(x.T, x, out=block_gram)
        cross += x.T @ y
        counts.append(x.shape[0])
        x_means.append(xm)
        y_means.append(ym)
        del x, y  # before the next block is gathered
    del block_gram  # the scatter's product takes its place
    counts = np.asarray(counts, dtype=np.float64)[:, None]
    n = counts.sum()
    x_means, y_means = np.array(x_means), np.array(y_means)
    xm = (counts * x_means).sum(axis=0) / n
    ym = (counts * y_means).sum(axis=0) / n
    x_means -= xm
    y_means -= ym
    weighted = counts * x_means
    gram += weighted.T @ x_means
    cross += weighted.T @ y_means
    return gram, cross, xm, ym


def fit_stencil(
    ds: Dataset,
    w: WindowSpec,
    ridge_lambda: float = 1e-8,
    sample_budget: int = 4096,
    seed: int = 0,
    pair_indices: Sequence[int] | None = None,
) -> LearnedStencil:
    """Ridge-regress a linear window filter onto next-step center values.

    The samples are those :func:`sample_training_pairs` draws.  With at
    least as many samples as features p = prod(W_i) * N_c the fit streams
    them: it gathers at most ``TILE_BYTES`` of windows, or p windows where
    those take more, at a time into the centered p x p normal equations
    (:func:`_centered_products`), so its memory is two p x p arrays and one
    block, whatever the budget.  With fewer samples than features it holds
    the samples and solves in sample space (:func:`_solve_ridge`).

    The weights and outputs are reproducible bit for bit only under one BLAS
    configuration: the summation order of a GEMM depends on the BLAS thread
    count, and the sample covariance is ill-conditioned (a condition number
    of order 1e19 for 17 x 17 windows on smooth advection data).  On a
    2-core Xeon (OpenBLAS 0.3.31) a 17 x 17 fit of 4096 samples on 4 x 256^2
    advection frames moves by up to 8.6e-5 in its weights (|w| <= 0.043)
    and 1.5e-5 per predicted cell between 2 BLAS threads and
    ``OPENBLAS_NUM_THREADS=1``.
    """
    p = w.cells * ds.grid.channels
    if sample_budget < p:
        x, y = sample_training_pairs(ds, w, sample_budget, seed, pair_indices)
        factors, xm, ym = _solve_ridge(x, y, ridge_lambda)
        weights = functools.reduce(np.matmul, factors)
    else:
        # blocks of at least p samples keep each Gram product's inner size
        # at p or more, where BLAS runs near full speed: at 9^3 (p = 729) on
        # a 2-core Xeon, blocks of 179 and 729 samples took the 4096-sample
        # fit 122 and 82 ms (82 ms holding all samples) for a traced peak of
        # 9.5 and 12.4 MiB
        blocks = _sample_blocks(ds, w, sample_budget, seed, pair_indices, min_rows=p)
        _check_ridge(sample_budget, p, ridge_lambda)
        gram, cross, xm, ym = _centered_products(blocks, p, ds.grid.channels)
        weights = _solve_primal(gram, cross, ridge_lambda)
    return LearnedStencil(w, weights, ym - xm @ weights, ridge_lambda)


def fit_global_linear(
    ds: Dataset,
    ridge_lambda: float = 1e-8,
    sample_budget: int = 4096,
    seed: int = 0,
    pair_indices: Sequence[int] | None = None,
) -> GlobalLinearModel:
    """Ridge-regress a whole-frame linear map as the non-local baseline.

    One training sample is one (frame, next frame) pair per batch item, so
    the usable sample count is capped by the data; the budget subsamples
    when more pairs are available than requested.
    """
    pairs = _training_pairs(ds, pair_indices)
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    combos = [(t, b) for t in pairs for b in range(ds.grid.batch)]
    rng = np.random.default_rng(seed)
    if len(combos) > sample_budget:
        keep = rng.choice(len(combos), size=sample_budget, replace=False)
        combos = [combos[i] for i in sorted(keep)]
    n_flat = math.prod(ds.grid.dims[1:])
    x = np.empty((len(combos), n_flat))
    y = np.empty((len(combos), n_flat))
    rows: dict[int, list[tuple[int, int]]] = {}  # pair -> its (sample, batch item)s
    for s, (t, b) in enumerate(combos):
        rows.setdefault(int(t), []).append((s, b))
    for t, now, after in ds.pairs(rows):
        for s, b in rows[t]:
            x[s] = now[b].ravel()
            y[s] = after[b].ravel()
    factors, xm, ym = _solve_ridge(x, y, ridge_lambda)
    return GlobalLinearModel(ds.grid.dims, factors, xm, ym, ridge_lambda)


# --- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRecord:
    """Per-prediction error summary, one row of the metrics CSV."""

    rel_l2: float
    paper_l2: float
    r2: float


def _array(x) -> np.ndarray:
    return x.data if isinstance(x, BatchTensor) else np.asarray(x, dtype=np.float64)


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p, t = _array(pred), _array(truth)
    if p.shape != t.shape:
        raise ShapeMismatchError(f"prediction {p.shape} vs truth {t.shape}")
    return p.ravel(), t.ravel()


# Each metric is a ratio of per-cell sums: ``_dot2`` and ``_*_terms`` sum a
# part of the frame, and the finishing function takes the sums over the
# whole frame.


def _dot2(x: np.ndarray) -> float:
    """Sum x^2 as the dot product ``np.linalg.norm`` takes."""
    return float(x.dot(x))


def _rel_l2(res_dot: float, truth_dot: float) -> float:
    num, den = math.sqrt(res_dot), math.sqrt(truth_dot)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def _paper_terms(d: np.ndarray, t: np.ndarray) -> tuple[float, int]:
    """The summed |d_i| / |t_i| over cells with non-zero truth, and how many
    cells have zero truth.  Overwrites ``d`` when no truth cell is zero."""
    excluded = int(t.size - np.count_nonzero(t))
    if excluded:
        log.debug("paper_l2 excluded %d zero-truth cells of %d", excluded, t.size)
        mask = t != 0.0
        d, t = d[mask], t[mask]
    # |d / t| is |d| / |t| bit for bit, and needs no second array
    np.divide(d, t, out=d)
    return float(np.sum(np.abs(d, out=d))), excluded


def _r2_terms(d: np.ndarray, t: np.ndarray, mean: float) -> tuple[float, float]:
    """Sum d^2 and (t - mean)^2 pairwise, each in ``d``'s memory.  Overwrites ``d``."""
    res = float(np.sum(np.square(d, out=d)))
    np.subtract(t, mean, out=d)
    return res, float(np.sum(np.square(d, out=d)))


def _r2(res: float, dev: float) -> float:
    """1 - SS_res / SS_tot."""
    if dev == 0.0:
        raise DegenerateTruth("truth has zero variance; r2 is undefined")
    return 1.0 - res / dev


@dataclass
class MetricSums:
    """The per-cell sums the three metrics are ratios of, added up part by part.

    :meth:`of` starts the sums of one truth frame and reads the two that need
    no temporary from the whole frame: its mean and its sum of squares (one
    dot product per frame, not one per tile, also measured about 6% faster
    per ``eval-2d-w17`` pass).  Each :meth:`add` takes a prediction of some
    of its cells and the truth under them, so a frame can be scored tile by
    tile as it is predicted; once every cell is added, :meth:`record` gives
    the metrics.  Added over one part holding the whole frame, the sums are
    exactly those of :func:`metrics_record`.  The sum of squared differences
    is kept twice, summed as ``rel_l2`` and ``r2`` each sum it, so that each
    keeps its own value bit for bit.
    """

    truth_mean: float
    truth_dot: float  # sum of t^2 over the frame, as a dot product (rel_l2)
    res_dot: float = 0.0  # sum of d^2, as dot products (rel_l2)
    paper: float = 0.0  # sum of |d| / |t| over non-zero truth (paper_l2)
    excluded: int = 0  # cells with zero truth (paper_l2)
    res: float = 0.0  # sum of d^2, pairwise (r2)
    dev: float = 0.0  # sum of (t - truth_mean)^2, pairwise (r2)

    @classmethod
    def of(cls, truth) -> "MetricSums":
        t = _array(truth).ravel()
        return cls(float(t.mean()), _dot2(t))

    def add(self, pred, truth) -> None:
        """Add the terms of ``pred`` against ``truth``, using one array of differences."""
        p, t = _pair(pred, truth)
        d = p - t
        self.res_dot += _dot2(d)
        paper, excluded = _paper_terms(d, t)
        np.subtract(p, t, out=d)
        res, dev = _r2_terms(d, t, self.truth_mean)
        self.paper += paper
        self.excluded += excluded
        self.res += res
        self.dev += dev

    def record(self) -> MetricsRecord:
        """The frame's metrics; raises :class:`DegenerateTruth` if its truth is constant."""
        return MetricsRecord(_rel_l2(self.res_dot, self.truth_dot), self.paper,
                             _r2(self.res, self.dev))


def rel_l2(pred, truth) -> float:
    """Norm-ratio error ||pred - truth||_2 / ||truth||_2."""
    p, t = _pair(pred, truth)
    return _rel_l2(_dot2(p - t), _dot2(t))


def paper_l2(pred, truth, return_excluded: bool = False):
    """Summed per-cell relative error sum_i |pred_i - truth_i| / |truth_i|.

    Cells with zero truth are excluded from the sum; the exclusion count is
    logged and optionally returned.
    """
    p, t = _pair(pred, truth)
    value, excluded = _paper_terms(p - t, t)
    if return_excluded:
        return value, excluded
    return value


def r2(pred, truth) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    p, t = _pair(pred, truth)
    return _r2(*_r2_terms(p - t, t, t.mean()))


def metrics_record(pred, truth) -> MetricsRecord:
    """All three metrics, as :class:`MetricSums` over the whole frame.

    It holds one frame-sized array, the differences; each value is
    bit-identical to its own function's.
    """
    sums = MetricSums.of(truth)
    sums.add(pred, truth)
    return sums.record()


# --- stencil container ------------------------------------------------------
#
# Layout, little-endian, in order:
#   magic "DDST" | version u32 | d u8 | W_1..W_d u32 | N_c u32 | lambda f64
#   weights f64: N_c output blocks of prod(W_i)*N_c coefficients
#   biases f64: N_c values


def write_stencil(path, st: LearnedStencil) -> None:
    d = st.window.ndim
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIB", STENCIL_MAGIC, STENCIL_VERSION, d))
        fh.write(struct.pack(f"<{d}I", *st.window.sizes))
        fh.write(struct.pack("<Id", st.channels, st.ridge_lambda))
        fh.write(np.ascontiguousarray(st.weights.T).tobytes())
        fh.write(np.ascontiguousarray(st.bias).tobytes())


def read_stencil(path) -> LearnedStencil:
    with open(path, "rb") as fh:
        magic, version, d = struct.unpack("<4sIB", read_exact(fh, 9, "header"))
        if magic != STENCIL_MAGIC:
            raise FormatError(f"bad magic {magic!r}")
        if version != STENCIL_VERSION:
            raise FormatError(f"unsupported version {version}")
        if not 1 <= d <= 3:
            raise FormatError(f"unsupported spatial rank {d}")
        sizes = struct.unpack(f"<{d}I", read_exact(fh, 4 * d, "window sizes"))
        nc, lam = struct.unpack("<Id", read_exact(fh, 12, "channels/lambda"))
        if nc < 1:
            raise FormatError("channel count must be positive")
        try:
            window = WindowSpec(sizes)
        except Exception as exc:
            raise FormatError(f"invalid window sizes {sizes}: {exc}") from exc
        n_features = window.cells * nc
        check_payload(fh, 8 * n_features * nc + 8 * nc, "weights and biases")
        raw_w = read_exact(fh, 8 * n_features * nc, "weights")
        raw_b = read_exact(fh, 8 * nc, "biases")
        weights = np.frombuffer(raw_w, dtype="<f8").reshape(nc, n_features).T.copy()
        bias = np.frombuffer(raw_b, dtype="<f8").copy()
        if not (math.isfinite(lam) and np.isfinite(weights).all() and np.isfinite(bias).all()):
            raise FormatError("stencil lambda, weights or biases hold NaN or Inf")
    return LearnedStencil(window, weights, bias, lam)
