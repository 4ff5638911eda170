"""Window-to-center predictors and evaluation metrics.

A predictor's ``predict_windows`` maps windows ``(..., W_1..W_d, N_c)``, with
any leading axes, to the predicted next values at their centers
``(..., N_c)``; it reads the read-only strided windows that
``integrate_predictions`` hands it in place.  Exact stencil oracles
(upwind transport, explicit diffusion) implement known update rules; the
learned stencil is a ridge-regressed linear filter over the whole window,
and the global linear model is the deliberately non-local baseline that maps
whole frames to whole frames.

Every predictor declares its dependence radius: cells outside the central
``(2r+1)^d`` sub-window never influence its output.
"""

from __future__ import annotations

import itertools
import logging
import math
import struct
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

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


def _check_windows(windows: np.ndarray, window: WindowSpec, channels: int | None = None) -> None:
    """Windows must end in ``window``'s sizes and, if given, ``channels``."""
    want = (*window.sizes, windows.shape[-1] if channels is None else channels)
    if windows.shape[-len(want):] != want:
        raise ShapeMismatchError(f"windows {windows.shape} do not match {want}")


@dataclass(frozen=True)
class IdentityPredictor:
    """Returns the window center unchanged; dependence radius zero."""

    ndim: int

    @property
    def radius(self) -> tuple[int, ...]:
        return (0,) * self.ndim

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
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


@dataclass(frozen=True)
class LearnedStencil:
    """Linear filter over the whole window, one weight row per feature.

    Features are the window cells flattened row-major with channels fastest,
    matching the buffer layout of :class:`BatchTensor`; ``weights`` has shape
    (prod(W_i)*N_c, N_c) and ``bias`` shape (N_c,).  :meth:`predict_windows`
    applies them one window row (``W_d * N_c`` features) at a time, so it reads
    strided windows in place.
    """

    window: WindowSpec
    weights: np.ndarray
    bias: np.ndarray
    ridge_lambda: float

    def __post_init__(self):
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.bias)):
            raise DomainError("stencil weights must be finite")
        nc = self.bias.shape[0]
        if self.weights.shape != (self.window.cells * nc, nc):
            raise ShapeMismatchError(
                f"weights {self.weights.shape} do not match window {self.window.sizes} "
                f"with {nc} channels"
            )

    @property
    def channels(self) -> int:
        return self.bias.shape[0]

    @property
    def radius(self) -> tuple[int, ...]:
        return self.window.radius

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """Bias plus, over the prod(W_1..W_{d-1}) leading in-window offsets k,
        window row k times its ``(W_d * N_c, N_c)`` block of the weights."""
        _check_windows(windows, self.window, self.channels)
        sizes, nc = self.window.sizes, self.channels
        # merging W_d and N_c is a view when the windows come from a C-ordered grid
        rows = windows.reshape(*windows.shape[:-2], -1)
        kernel = self.weights.reshape(*sizes[:-1], -1, nc)
        out = np.empty((*windows.shape[:-len(sizes) - 1], nc))
        out[...] = self.bias
        for k in itertools.product(*(range(s) for s in sizes[:-1])):
            out += rows[(..., *k, slice(None))] @ kernel[k]
        return out


@dataclass(frozen=True)
class GlobalLinearModel:
    """Whole-frame to whole-frame ridge map; the non-local baseline."""

    dims: tuple[int, ...]
    weights: np.ndarray
    bias: np.ndarray
    ridge_lambda: float

    def predict_frame(self, frame: BatchTensor) -> BatchTensor:
        if frame.dims[1:] != self.dims[1:]:
            raise ShapeMismatchError(f"frame {frame.dims} does not match {self.dims}")
        flat = frame.data.reshape(frame.batch, -1)
        out = flat @ self.weights + self.bias
        return BatchTensor(np.ascontiguousarray(out.reshape(frame.dims)))


def _solve_ridge(
    x: np.ndarray, y: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Centered ridge normal equations with one refinement pass.

    Returns (weights, bias); the bias is left unpenalized by fitting on
    centered data.  With n samples and p features the solve runs in the
    smaller space: the p x p system (X^T X + lam I) w = X^T y when n >= p,
    otherwise the n x n system (X X^T + lam I) a = y with w = X^T a, by the
    identity (X^T X + lam I)^-1 X^T = X^T (X X^T + lam I)^-1.

    Raises SingularSystem when lam == 0 and the system is rank deficient.
    Centering leaves rank at most n - 1, so that always holds for lam == 0
    when n <= p.
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
    xc = x - xm
    yc = y - ym
    dual = n < p
    if dual:
        a = xc @ xc.T + lam * np.eye(n)
        b = yc
    else:
        a = xc.T @ xc + lam * np.eye(p)
        b = xc.T @ yc
    try:
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
    if dual:
        w = xc.T @ w
    bias = ym - xm @ w
    return w, bias


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
    vector is a fully in-domain window.
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
    for t in np.unique(ts):
        take = ts == t
        at = (bs[take], *starts[take].T)
        x[take] = window_view(ds.frames[t].data, w.sizes)[at].reshape(-1, n_features)
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
    weights, bias = _solve_ridge(x, y, ridge_lambda)
    return LearnedStencil(w, weights, bias, ridge_lambda)


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
    weights, bias = _solve_ridge(x, y, ridge_lambda)
    return GlobalLinearModel(ds.grid.dims, weights, bias, ridge_lambda)


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


def rel_l2(pred, truth) -> float:
    """Norm-ratio error ||pred - truth||_2 / ||truth||_2."""
    p, t = _pair(pred, truth)
    den = float(np.linalg.norm(t))
    num = float(np.linalg.norm(p - t))
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


def paper_l2(pred, truth, return_excluded: bool = False):
    """Summed per-cell relative error sum_i |pred_i - truth_i| / |truth_i|.

    Cells with zero truth are excluded from the sum; the exclusion count is
    logged and optionally returned.
    """
    p, t = _pair(pred, truth)
    mask = t != 0.0
    excluded = int(t.size - mask.sum())
    if excluded:
        log.debug("paper_l2 excluded %d zero-truth cells of %d", excluded, t.size)
    value = float(np.sum(np.abs(p[mask] - t[mask]) / np.abs(t[mask])))
    if return_excluded:
        return value, excluded
    return value


def r2(pred, truth) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot."""
    p, t = _pair(pred, truth)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTruth("truth has zero variance; r2 is undefined")
    return 1.0 - float(np.sum((p - t) ** 2)) / ss_tot


def metrics_record(pred, truth) -> MetricsRecord:
    return MetricsRecord(rel_l2(pred, truth), paper_l2(pred, truth), r2(pred, truth))


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
