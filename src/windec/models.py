"""Window-to-center predictors and evaluation metrics.

A predictor's ``predict_windows`` maps windows ``(..., W_1..W_d, N_c)``, with
any leading axes, to the predicted next values at their centers
``(..., N_c)``; it reads the read-only strided windows that
``integrate_predictions`` hands it in place.  Exact stencil oracles
(upwind transport, explicit diffusion) implement known update rules; the
learned stencil is a ridge-regressed linear filter over the whole window.
Where a tile's strides show a window view's overlap (a window's last-axis
step equals the step between windows), it copies the tile's runs of padded
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

Every predictor declares its dependence radius: cells outside the central
``(2r+1)^d`` sub-window never influence its output.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
import struct
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

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
    array of windows to ``(..., N_c)`` centers.  ``integrate_predictions``
    passes strided views of the padded grid, so a predictor that copies its
    windows copies up to prod(W_1..W_{d-1}) * ``TILE_BYTES`` per call.
    """

    radius: tuple[int, ...]

    def predict_windows(self, windows: np.ndarray) -> np.ndarray: ...


def _check_real(windows: np.ndarray) -> None:
    if windows.dtype.kind not in "biuf":
        raise DomainError(f"windows must hold real numbers, not {windows.dtype}")


def _check_windows(windows: np.ndarray, window: WindowSpec, channels: int | None = None) -> None:
    """Windows must be real numbers ending in ``window``'s sizes and, if given,
    ``channels``."""
    want = (*window.sizes, windows.shape[-1] if channels is None else channels)
    if windows.shape[-len(want):] != want:
        raise ShapeMismatchError(f"windows {windows.shape} do not match {want}")
    _check_real(windows)


@dataclass(frozen=True)
class IdentityPredictor:
    """Returns the window center unchanged; dependence radius zero."""

    ndim: int

    @property
    def radius(self) -> tuple[int, ...]:
        return (0,) * self.ndim

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        _check_real(windows)
        sizes = windows.shape[-self.ndim - 1:-1]
        return windows[(..., *((w - 1) // 2 for w in sizes), slice(None))]


class UpwindStencil:
    """First-order upwind transport of the window center over one dt.

    The center value is taken from the characteristic foot, center - c*dt/dx
    cells away, with linear interpolation between the two straddling cells.
    At whole-cell Courant numbers this reduces to an exact shifted lookup;
    for sub-cell Courant numbers it is the classic upwind update.
    """

    def __init__(self, pde: GridPde, window: WindowSpec):
        if pde.c is None:
            raise DomainError("upwind stencil needs transport speeds c")
        if len(pde.c) != window.ndim:
            raise ShapeMismatchError(
                f"c has {len(pde.c)} components for a rank-{window.ndim} window"
            )
        self.pde = pde
        self.window = window
        self.courant = tuple(ci * pde.dt / pde.dx for ci in pde.c)
        self.radius = tuple(int(math.ceil(abs(c))) for c in self.courant)
        for r, w in zip(self.radius, window.sizes):
            if r > (w - 1) // 2:
                raise WindowTooSmall(
                    f"Courant reach {r} cells exceeds window radius {(w - 1) // 2}"
                )
        self._taps: list[list[tuple[int, float]]] = []
        for c, w in zip(self.courant, window.sizes):
            center = (w - 1) // 2
            pos = center - c
            low = math.floor(pos)
            frac = pos - low
            if frac < 1e-12:
                self._taps.append([(low, 1.0)])
            else:
                self._taps.append([(low, 1.0 - frac), (low + 1, frac)])

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        _check_windows(windows, self.window)
        acc = np.zeros((*windows.shape[:-self.window.ndim - 1], windows.shape[-1]))
        combos = [((), 1.0)]
        for taps in self._taps:
            combos = [(idx + (i,), wgt * tw) for idx, wgt in combos for i, tw in taps]
        for idx, wgt in combos:
            acc += wgt * windows[(..., *idx, slice(None))]
        return acc


class DiffusionStencil:
    """One explicit central-difference diffusion update at the window center."""

    def __init__(self, pde: GridPde, window: WindowSpec):
        d = window.ndim
        self.lam = pde.alpha * pde.dt / pde.dx**2
        if self.lam > 1.0 / (2 * d) + 1e-12:
            raise StabilityError(
                f"diffusion number {self.lam:.4g} exceeds 1/(2d)={1.0 / (2 * d):.4g}"
            )
        self.pde = pde
        self.window = window
        self.radius = (1,) * d

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        _check_windows(windows, self.window)
        d = self.window.ndim
        center = tuple((w - 1) // 2 for w in self.window.sizes)
        mid = windows[(..., *center, slice(None))]
        nbsum = np.zeros_like(mid)
        for axis in range(d):
            for step in (-1, 1):
                idx = list(center)
                idx[axis] += step
                nbsum += windows[(..., *idx, slice(None))]
        return mid + self.lam * (nbsum - 2 * d * mid)


# Outputs per banded GEMM along the last spatial axis.  integrate_predictions
# in ms with 4/8/12/16 outputs on a 2-core Xeon (medians of 9 rounds, each
# the median of 10 calls; rounds spread by up to +-20%): 4x256^2 at 17^2
# 15.8/16.1/27.6/18.3, 2x48^3 at 9^3 34/27/61/43, 2x32^3 at 5^3
# 5.0/4.1/13.2/3.9, 4x256^2x2 at 3^2 13.4/12.3/13.5/11.2; 4x48^2 at 5^2 and
# 4x1024 at 61 and at 5 within 0.1 ms of each other.  On these extents 12
# leaves a ragged tail for the row matmuls; 4 and 16 tie with 8 on some
# shapes and lose on others.
BAND = 8


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
    padded cells, one run per block of ``BAND`` windows and grid row;
    otherwise one matmul per leading in-window offset, each over one window
    row (``W_d * N_c`` features) of every window, read in place.
    """

    window: WindowSpec
    weights: np.ndarray
    bias: np.ndarray
    ridge_lambda: float

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
        padded cells, and a banded block-Toeplitz matrix maps it to all
        ``BAND * N_c`` of their outputs.  The runs under the tile are copied
        once to a contiguous ``(..., L_1..L_{d-2}, blocks, L_{d-1}, run)``
        buffer, with ``L_i = N_i + W_i - 1`` grid rows on leading axis i
        (``N_i`` is 1 where a tile cut inside a row has dropped the axis):
        about three times the tile's padded rows at 17 x 17.  The ``W_{d-1}``
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
        out[...] = self.bias
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
            # band[k'][q * run + (j + m) * N_c + i, j * N_c + o] =
            # kernel[k', q][m * N_c + i, o]: the W_{d-1} band matrices of outer
            # offset k' stacked along K
            taps = self.weights.reshape(*lead, w_d, nc, nc)
            band = np.zeros((*lead, BAND + w_d - 1, nc, BAND, nc))
            for j in range(BAND):
                band[..., j:j + w_d, :, j, :] = taps
            band = band.reshape(*lead[:-1], lead[-1] * run, BAND * nc)
            # runs[..., p_1..p_{d-2}, i, p_{d-1}, :] is the padded run under row p
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
            for k in itertools.product(*(range(s) for s in lead[:-1])):
                # rows n and blocks i of one outer offset: row step run, block
                # step (N_{d-1} + W_{d-1} - 1) * run >= K, so each (blocks, K)
                # matrix is a BLAS operand
                operand = as_strided(
                    runs[(..., *k, 0, 0, 0)], (*batch, *grid, blocks, lead[-1] * run),
                    (*step[:-3], step[-2], step[-3], item), writeable=False)
                head += np.matmul(operand, band[k]).reshape(head.shape)
            rest = windows[(..., slice(done, None)) + (slice(None),) * (d + 1)]
            out_rest = out[..., done:, :]
        if out_rest.size:
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


def _solve_ridge(
    x: np.ndarray, y: np.ndarray, lam: float
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Centered ridge normal equations with one refinement pass.

    Returns (factors, xm, ym): the weights are the product of ``factors`` and
    the prediction of ``x`` is ``(x - xm) @ weights + ym``, which leaves the
    bias unpenalized.  With n samples and p features the solve runs in the
    smaller space: the p x p system (X^T X + lam I) w = X^T y when n >= p,
    with factors ``(w,)``; otherwise the n x n system (X X^T + lam I) a = y,
    with factors ``(X^T, a)`` by the identity
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

    Raises SingularSystem when lam == 0 and the system is rank deficient.
    Centering leaves rank at most n - 1, so that always holds for lam == 0
    when n <= p.

    Takes ownership of ``x`` and ``y``: they are centered in place, so no
    second n x p array exists, and the dual factor ``X^T`` is a view of the
    centered ``x``.  Pass arrays that nothing else reads.
    """
    if lam < 0:
        raise DomainError("ridge_lambda must be non-negative")
    n, p = x.shape
    if lam == 0 and n <= p:
        raise SingularSystem(
            f"{n} samples for {p} features leave the normal equations singular "
            "without ridge; increase ridge_lambda"
        )
    xm = x.mean(axis=0)
    ym = y.mean(axis=0)
    x -= xm
    y -= ym
    dual = n < p
    if dual:
        a = x @ x.T + lam * np.eye(n)
        b = y
    else:
        a = x.T @ x + lam * np.eye(p)
        b = x.T @ y
    try:
        if dual:
            a_inv = np.linalg.inv(a)
            w = a_inv @ b
            w = w + a_inv @ (b - a @ w)
        else:
            w = np.linalg.solve(a, b)
            w = w + np.linalg.solve(a, b - a @ w)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(
            "normal equations are singular; increase ridge_lambda"
        ) from exc
    b_norm = float(np.linalg.norm(b))
    resid = float(np.linalg.norm(a @ w - b))
    if b_norm > 0 and resid / b_norm > 1e-8:
        raise SingularSystem(
            f"normal-equation residual {resid / b_norm:.3g} > 1e-8; "
            "increase ridge_lambda"
        )
    return ((x.T, w) if dual else (w,)), xm, ym


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
    pairs = _training_pairs(ds, pair_indices)
    if w.ndim != ds.grid.ndim:
        raise ShapeMismatchError(
            f"window rank {w.ndim} does not match grid rank {ds.grid.ndim}"
        )
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    radius = w.radius
    lows = radius
    highs = tuple(n - r for n, r in zip(ds.grid.spatial, radius))
    if any(hi <= lo for lo, hi in zip(lows, highs)):
        raise WindowTooLarge(
            f"window {w.sizes} leaves no interior cells on grid {ds.grid.spatial}"
        )
    rng = np.random.default_rng(seed)
    ts = rng.choice(pairs, size=sample_budget)
    bs = rng.integers(0, ds.grid.batch, size=sample_budget)
    cells = np.stack(
        [rng.integers(lo, hi, size=sample_budget) for lo, hi in zip(lows, highs)],
        axis=1,
    )
    n_features = w.cells * ds.grid.channels
    x = np.empty((sample_budget, n_features))
    y = np.empty((sample_budget, ds.grid.channels))
    starts = cells - np.asarray(radius)  # the window of center c starts at c - r
    step = max(1, windowing.TILE_BYTES // (n_features * x.itemsize))
    for t in np.unique(ts):
        take = np.flatnonzero(ts == t)
        windows = window_view(ds.frames[t].data, w.sizes)
        for i in range(0, take.size, step):
            rows = take[i:i + step]
            x[rows] = windows[(bs[rows], *starts[rows].T)].reshape(-1, n_features)
        y[take] = ds.frames[t + 1].data[(bs[take], *cells[take].T)]
    return x, y


def fit_stencil(
    ds: Dataset,
    w: WindowSpec,
    ridge_lambda: float = 1e-8,
    sample_budget: int = 4096,
    seed: int = 0,
    pair_indices: Sequence[int] | None = None,
) -> LearnedStencil:
    """Ridge-regress a linear window filter onto next-step center values."""
    x, y = sample_training_pairs(ds, w, sample_budget, seed, pair_indices)
    factors, xm, ym = _solve_ridge(x, y, ridge_lambda)
    weights = functools.reduce(np.matmul, factors)
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
    for s, (t, b) in enumerate(combos):
        x[s] = ds.frames[t].data[b].ravel()
        y[s] = ds.frames[t + 1].data[b].ravel()
    factors, xm, ym = _solve_ridge(x, y, ridge_lambda)
    return GlobalLinearModel(ds.grid.dims, factors, xm, ym, ridge_lambda)


# --- metrics ----------------------------------------------------------------


@dataclass(frozen=True)
class MetricsRecord:
    """Per-prediction error summary, one row of the metrics CSV."""

    rel_l2: float
    paper_l2: float
    r2: float


def _pair(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    p = pred.data if isinstance(pred, BatchTensor) else np.asarray(pred, dtype=np.float64)
    t = truth.data if isinstance(truth, BatchTensor) else np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeMismatchError(f"prediction {p.shape} vs truth {t.shape}")
    return p.ravel(), t.ravel()


def _rel_l2(d: np.ndarray, t: np.ndarray) -> float:
    den = float(np.linalg.norm(t))
    num = float(np.linalg.norm(d))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def _paper_l2(d: np.ndarray, t: np.ndarray) -> tuple[float, int]:
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


def _r2(d: np.ndarray, t: np.ndarray) -> float:
    """1 - SS_res / SS_tot, summing each in ``d``'s memory.  Overwrites ``d``."""
    ss_res = float(np.sum(np.square(d, out=d)))
    np.subtract(t, t.mean(), out=d)
    ss_tot = float(np.sum(np.square(d, out=d)))
    if ss_tot == 0.0:
        raise DegenerateTruth("truth has zero variance; r2 is undefined")
    return 1.0 - ss_res / ss_tot


def rel_l2(pred, truth) -> float:
    """Norm-ratio error ||pred - truth||_2 / ||truth||_2."""
    p, t = _pair(pred, truth)
    return _rel_l2(p - t, t)


def paper_l2(pred, truth, return_excluded: bool = False):
    """Summed per-cell relative error sum_i |pred_i - truth_i| / |truth_i|.

    Cells with zero truth are excluded from the sum; the exclusion count is
    logged and optionally returned.
    """
    p, t = _pair(pred, truth)
    value, excluded = _paper_l2(p - t, t)
    if return_excluded:
        return value, excluded
    return value


def r2(pred, truth) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    p, t = _pair(pred, truth)
    return _r2(p - t, t)


def metrics_record(pred, truth) -> MetricsRecord:
    """All three metrics with one frame-sized array, the differences ``d``.

    The paper sum and r2 each overwrite ``d``, so it is formed a second time
    in the same memory; each value is bit-identical to its own function's.
    """
    p, t = _pair(pred, truth)
    d = p - t
    rel = _rel_l2(d, t)
    paper, _ = _paper_l2(d, t)
    np.subtract(p, t, out=d)
    return MetricsRecord(rel, paper, _r2(d, t))


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
