import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from windec import (
    BatchTensor,
    Dataset,
    DegenerateTruth,
    DomainError,
    DiffusionStencil,
    GridPde,
    IdentityPredictor,
    InitialCondition,
    LearnedStencil,
    MetricSums,
    MetricsRecord,
    Shape,
    ShapeMismatchError,
    SingularSystem,
    StabilityError,
    UpwindStencil,
    WindowSpec,
    WindowTooSmall,
    fit_global_linear,
    fit_stencil,
    generate_dataset,
    heat_step,
    integrate_predictions,
    metrics_record,
    paper_l2,
    r2,
    read_dataset,
    rel_l2,
    sample_training_pairs,
    write_dataset,
)
from windec import models, windowing
from windec.models import _solve_primal, _solve_ridge
from windec.windowing import window_view
from oracles import (
    convolve_stencil_full,
    dense_tap_table,
    diffusion_full,
    predict_centers,
    ridge_by_blocks,
    ridge_svd,
    sample_blocks_loop,
    sample_pairs_loop,
    upwind_full,
)


def rand_windows(rng, m, sizes, channels=1):
    return BatchTensor(rng.standard_normal((m, *sizes, channels)))


# --- upwind stencil -----------------------------------------------------------


def test_upwind_zero_speed_is_identity():
    w = WindowSpec((3, 3))
    pred = UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.0, 0.0)), w)
    rng = np.random.default_rng(0)
    windows = rand_windows(rng, 5, (3, 3))
    out = predict_centers(pred, windows)
    centers = windows.data[:, 1, 1, :]
    assert np.array_equal(out.data.reshape(5, 1), centers)


def test_upwind_integer_shift_is_exact_lookup():
    w = WindowSpec((7,))
    pred = UpwindStencil(GridPde(dx=0.5, dt=1.0, c=(1.0,)), w)  # shift 2 cells
    rng = np.random.default_rng(1)
    windows = rand_windows(rng, 4, (7,))
    out = predict_centers(pred, windows)
    assert np.array_equal(out.data.reshape(4, 1), windows.data[:, 3 - 2, :])


def test_upwind_window_too_small():
    with pytest.raises(WindowTooSmall):
        UpwindStencil(GridPde(dx=0.1, dt=1.0, c=(0.25,)), WindowSpec((3,)))


def test_upwind_full_domain_equivalence():
    rng = np.random.default_rng(2)
    t = BatchTensor(rng.standard_normal((2, 16, 12, 1)))
    w = WindowSpec((5, 5))
    pred = UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(1.3, -0.6)), w)
    out = integrate_predictions(t, w, pred)
    assert np.max(np.abs(out.data - upwind_full(t.data, pred.courant))) <= 1e-12


# --- diffusion stencil ----------------------------------------------------------


def test_diffusion_uniform_window_unchanged():
    pred = DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.2), WindowSpec((3, 3)))
    windows = BatchTensor(np.full((3, 3, 3, 1), 1.25))
    assert np.all(predict_centers(pred, windows).data == 1.25)


def test_diffusion_zero_alpha_is_identity():
    pred = DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.0), WindowSpec((3, 3)))
    rng = np.random.default_rng(3)
    windows = rand_windows(rng, 4, (3, 3))
    assert np.array_equal(predict_centers(pred, windows).data.reshape(4, 1),
                          windows.data[:, 1, 1, :])


def test_diffusion_stability_guard():
    with pytest.raises(StabilityError):
        DiffusionStencil(GridPde(dx=0.1, dt=1.0, alpha=0.1), WindowSpec((3, 3)))


def test_diffusion_matches_heat_step_via_integration():
    rng = np.random.default_rng(4)
    t = BatchTensor(rng.standard_normal((1, 20, 20, 1)))
    pde = GridPde(dx=1.0, dt=1.0, alpha=0.2, boundary="zero-extension")
    w = WindowSpec((3, 3))
    out = integrate_predictions(t, w, DiffusionStencil(pde, w))
    assert np.max(np.abs(out.data - heat_step(t, pde).data)) <= 1e-12
    assert np.max(np.abs(out.data - diffusion_full(t.data, 0.2))) <= 1e-12


# --- locality contract -----------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda w: IdentityPredictor(2),
    lambda w: UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.9, -0.4)), w),
    lambda w: DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.2), w),
])
def test_predictions_ignore_cells_outside_declared_radius(build):
    w = WindowSpec((5, 5))
    pred = build(w)
    rng = np.random.default_rng(5)
    windows = rand_windows(rng, 6, (5, 5))
    base = predict_centers(pred, windows).data

    center = np.array([2, 2])
    radius = np.array(pred.radius)
    noisy = windows.data.copy()
    for i in range(5):
        for j in range(5):
            if np.any(np.abs(np.array([i, j]) - center) > radius):
                noisy[:, i, j, :] = rng.standard_normal((6, 1))
    out = predict_centers(pred, BatchTensor(noisy)).data
    assert np.array_equal(out, base)


# --- tap tables ------------------------------------------------------------------


def exact_stencils(sizes):
    """Each exact predictor, built for window ``sizes``."""
    d, w = len(sizes), WindowSpec(sizes)
    return {
        "identity": IdentityPredictor(d),
        "upwind": UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.7, -1.4, 0.25)[:d]), w),
        "upwind-whole": UpwindStencil(GridPde(dx=0.5, dt=1.0, c=(-0.5, 1.0, 0.0)[:d]), w),
        "diffusion": DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.9 / (2 * d)), w),
    }


TAP_SIZES = [(5,), (5, 5), (5, 5, 3)]


@pytest.mark.parametrize("sizes", TAP_SIZES)
@pytest.mark.parametrize("channels", [1, 2])
def test_exact_stencils_equal_their_dense_tap_table(sizes, channels):
    rng = np.random.default_rng(30)
    windows = rng.standard_normal((3, 4, *sizes, channels))
    for name, pred in exact_stencils(sizes).items():
        table = dense_tap_table(pred._taps, sizes, channels)
        dense = LearnedStencil(WindowSpec(sizes), table, np.zeros(channels), 0.0)
        got = pred.predict_windows(windows)
        assert got.shape == (3, 4, channels), name
        assert np.max(np.abs(got - dense.predict_windows(windows))) <= 1e-12, name
        # the table's non-zero cells reach exactly the declared radius
        cells = np.argwhere(table.reshape(*sizes, channels, channels).any(axis=(-2, -1)))
        reach = np.abs(cells - np.array(WindowSpec(sizes).radius)).max(axis=0)
        assert tuple(reach) == pred.radius, name


@pytest.mark.parametrize("sizes", TAP_SIZES)
def test_exact_stencils_read_any_window_that_holds_their_reach(sizes):
    rng = np.random.default_rng(31)
    wide = rng.standard_normal((6, *(s + 4 for s in sizes), 2))
    inner = wide[(slice(None), *(slice(2, -2),) * len(sizes), slice(None))]
    for name, pred in exact_stencils(sizes).items():
        assert np.array_equal(pred.predict_windows(wide), pred.predict_windows(inner)), name
        narrow = tuple(2 * r - 1 if r else 1 for r in pred.radius)
        if narrow != (1,) * len(sizes):
            with pytest.raises(ShapeMismatchError):
                pred.predict_windows(np.zeros((2, *narrow, 1)))


@pytest.mark.parametrize("pred, radius", [
    (IdentityPredictor(3), (0, 0, 0)),
    (DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.0), WindowSpec((3, 5))), (0, 0)),
    (DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.2), WindowSpec((5, 5))), (1, 1)),
    (UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.0, 1.3)), WindowSpec((3, 5))), (0, 2)),
    (UpwindStencil(GridPde(dx=0.5, dt=1.0, c=(1.0,)), WindowSpec((7,))), (2,)),
])
def test_radius_is_the_reach_of_the_nonzero_taps(pred, radius):
    assert pred.radius == radius


@pytest.mark.parametrize("c, dt, dx", [(0.1, 0.1, 0.01), (0.1, 0.7, 0.07)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("size", [3, 5])
def test_upwind_courant_a_rounding_step_from_one_is_a_one_cell_shift(c, dt, dx, sign, size):
    pred = UpwindStencil(GridPde(dx=dx, dt=dt, c=(sign * c,)), WindowSpec((size,)))
    assert abs(pred.courant[0]) != 1.0  # 1 +- 2.2e-16
    assert pred.radius == (1,) and len(pred._taps) == 1
    windows = np.random.default_rng(32).standard_normal((4, size, 2))
    center = (size - 1) // 2
    assert np.array_equal(pred.predict_windows(windows), windows[:, center - sign, :])


def test_only_the_tap_and_learned_stencils_define_predict_windows():
    defining = {name for name, cls in vars(models).items()
                if isinstance(cls, type) and cls.__module__ == models.__name__
                and "predict_windows" in vars(cls)}
    # Predictor is the protocol that declares the method
    assert defining == {"Predictor", "_TapStencil", "LearnedStencil"}


# --- learned stencil -------------------------------------------------------------


def advection_dataset(shift_cells=(1, 0), extents=(48, 48), batch=2, steps=8, seed=9):
    grid = Shape(batch, extents, 1)
    dx = 1.0 / extents[0]
    pde = GridPde(dx=dx, dt=1.0, c=tuple(s * dx for s in shift_cells))
    ic = InitialCondition("bumps", n_bumps=3, width_fraction_range=(0.03, 0.06),
                          center_margin=0.3)
    return generate_dataset("advection", grid, pde, ic, steps, seed)


def test_fit_recovers_one_hot_shift():
    ds = advection_dataset()
    w = WindowSpec((5, 5))
    st = fit_stencil(ds, w, ridge_lambda=1e-12, sample_budget=4096, seed=0)
    weights = st.weights.reshape(5, 5, 1)
    expected = np.zeros((5, 5, 1))
    expected[2 - 1, 2, 0] = 1.0  # source cell one step upstream
    assert np.max(np.abs(weights - expected)) <= 1e-5
    x, y = sample_training_pairs(ds, w, 4096, seed=0)
    pred = x @ st.weights + st.bias
    assert np.linalg.norm(pred - y) / np.linalg.norm(y) <= 1e-6


def test_fit_lambda_zero_identifies_generating_weights():
    rng = np.random.default_rng(10)
    w = WindowSpec((3, 3))
    true_w = rng.standard_normal((9, 1))
    true_b = rng.standard_normal(1)
    frame0 = rng.standard_normal((2, 16, 16, 1))
    frame1 = convolve_stencil_full(frame0, true_w, true_b, (3, 3))
    ds = Dataset(
        "external",
        (BatchTensor(frame0), BatchTensor(frame1)),
        GridPde(dx=1.0, dt=1.0),
        seed=0,
    )
    st = fit_stencil(ds, w, ridge_lambda=0.0, sample_budget=4096, seed=1)
    assert np.max(np.abs(st.weights - true_w)) / np.max(np.abs(true_w)) <= 1e-6
    assert abs(st.bias[0] - true_b[0]) <= 1e-6


def test_fit_constant_dataset_is_bias_only():
    frames = (BatchTensor(np.full((1, 12, 12, 1), 2.5)),
              BatchTensor(np.full((1, 12, 12, 1), 2.5)))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    st = fit_stencil(ds, WindowSpec((3, 3)), ridge_lambda=1e-6, sample_budget=256, seed=0)
    assert np.max(np.abs(st.weights)) <= 1e-9
    assert st.bias[0] == pytest.approx(2.5)


def test_fit_singular_without_ridge():
    frames = (BatchTensor(np.full((1, 12, 12, 1), 2.5)),
              BatchTensor(np.full((1, 12, 12, 1), 2.5)))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    with pytest.raises(SingularSystem):
        fit_stencil(ds, WindowSpec((3, 3)), ridge_lambda=0.0, sample_budget=256, seed=0)


def test_fit_satisfies_normal_equations():
    ds = advection_dataset(seed=13)
    w = WindowSpec((3, 3))
    lam = 1e-8
    st = fit_stencil(ds, w, ridge_lambda=lam, sample_budget=1024, seed=2)
    x, y = sample_training_pairs(ds, w, 1024, seed=2)
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    a = xc.T @ xc + lam * np.eye(x.shape[1])
    b = xc.T @ yc
    assert np.linalg.norm(a @ st.weights - b) / np.linalg.norm(b) <= 1e-8


def assert_fit_equals_block_oracle(step):
    ds = advection_dataset(seed=13)
    w = WindowSpec((5, 5))
    lam = 1e-8
    st = fit_stencil(ds, w, ridge_lambda=lam, sample_budget=2048, seed=2)
    x, y = sample_pairs_loop(ds, w, 2048, seed=2)
    blocks = sample_blocks_loop(ds, 2048, seed=2, step=step)
    want, want_bias = ridge_by_blocks(x, y, blocks, lam)
    assert np.array_equal(st.weights, want)
    assert np.array_equal(st.bias, want_bias)
    return blocks, ds


def test_fit_stencil_weights_equal_primal_normal_equation_solve():
    # n >= p sums the p x p normal equations over the blocks of samples the
    # fit gathers, exactly as written out in ridge_by_blocks, bit for bit;
    # here each frame pair's samples fit in one tile
    blocks, ds = assert_fit_equals_block_oracle(step=2048)
    assert len(blocks) == ds.n_steps


# 97 samples of windows a tile; 10 a tile, so p = 25 samples a block
@pytest.mark.parametrize("tile_bytes, step", [(97 * 25 * 8 + 5, 97), (10 * 25 * 8, 25)])
def test_fit_stencil_sums_the_blocks_it_gathers(monkeypatch, tile_bytes, step):
    monkeypatch.setattr(windowing, "TILE_BYTES", tile_bytes)
    blocks, ds = assert_fit_equals_block_oracle(step)
    assert len(blocks) > ds.n_steps


def frame_pairs(ds, pairs):
    """Whole-frame (input, target) rows, one per pair and batch item, in the
    order ``fit_global_linear`` draws them."""
    x = np.stack([ds.frames[t].data[b].ravel() for t in pairs for b in range(ds.grid.batch)])
    y = np.stack([ds.frames[t + 1].data[b].ravel() for t in pairs for b in range(ds.grid.batch)])
    return x, y


def c09_frame_pairs(pairs):
    """Whole-frame rows of the c09 dataset: 4 x 48^2, one row per item."""
    return frame_pairs(advection_dataset(batch=4), pairs)


def random_regression(n, p, seed=15):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, p))
    y = x @ rng.standard_normal((p, 2)) + 0.1 * rng.standard_normal((n, 2))
    return x, y


@pytest.mark.parametrize("case", ["dual-c09", "primal"])
def test_solve_ridge_matches_svd_oracle(case):
    lam = 1e-8
    if case == "dual-c09":
        (x, y), (x_test, _) = c09_frame_pairs([0, 2, 4, 6]), c09_frame_pairs([1, 3, 5, 7])
        assert x.shape == (16, 2304)
    else:
        x, y = random_regression(400, 30)
        x_test, _ = random_regression(50, 30, seed=16)
    # _solve_ridge centers its arguments in place
    factors, xm, ym = _solve_ridge(x.copy(), y.copy(), lam)
    want_w, want_bias = ridge_svd(x, y, lam)
    for inputs in (x, x_test):
        pred = functools.reduce(np.matmul, factors, inputs - xm) + ym
        want = inputs @ want_w + want_bias
        assert np.linalg.norm(pred - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("n, p, inv_calls, solve_calls", [(16, 2304, 1, 0), (400, 30, 0, 2)])
def test_solve_ridge_factors_the_dual_system_once(monkeypatch, n, p, inv_calls, solve_calls):
    # the dual branch applies one n x n inverse by GEMM; the primal branch keeps LU
    calls = {"inv": 0, "solve": 0}

    def counted(name):
        real = getattr(np.linalg, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return spy

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    x, y = random_regression(n, p)
    _solve_ridge(x, y, 1e-8)
    assert calls == {"inv": inv_calls, "solve": solve_calls}


@pytest.mark.parametrize("n, p", [(16, 2304), (30, 30)])
def test_solve_ridge_without_ridge_needs_more_samples_than_features(n, p):
    # centered data has rank <= n - 1, so lam = 0 is singular whenever n <= p
    x, y = random_regression(n, p)
    with pytest.raises(SingularSystem):
        _solve_ridge(x, y, 0.0)


def test_primal_solve_refuses_weights_that_leave_a_residual():
    # Wilkinson's matrix (1 on the diagonal, -1 below it, 1 in the last
    # column) grows by 2**127 under partial-pivoting LU, so the solve and its
    # refinement pass succeed but leave a residual far above 1e-8.  A centered
    # Gram matrix reaches this check only through near-collinear features,
    # where the residual rides on rounding luck.
    n = 128
    gram = np.eye(n) - np.tril(np.ones((n, n)), -1)
    gram[:, -1] = 1.0
    cross = np.random.default_rng(0).standard_normal((n, 1))
    with pytest.raises(SingularSystem, match="normal-equation residual"):
        _solve_primal(gram, cross, 0.0)


def test_solve_ridge_refuses_a_dual_system_that_rounds_to_singular():
    # two centered samples v and -v give X X^T = [[1, -1], [-1, 1]]; a ridge
    # below rounding leaves it exactly singular, so the inverse fails
    x = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    y = np.array([[1.0], [0.0]])
    with pytest.raises(SingularSystem, match="singular") as info:
        _solve_ridge(x, y, 1e-30)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_learned_stencil_integration_matches_full_convolution():
    rng = np.random.default_rng(11)
    w = WindowSpec((3, 5))
    weights = rng.standard_normal((15, 1))
    bias = rng.standard_normal(1)
    st = LearnedStencil(w, weights, bias, 0.0)
    t = BatchTensor(rng.standard_normal((2, 12, 15, 1)))
    out = integrate_predictions(t, w, st)
    expected = convolve_stencil_full(t.data, weights, bias, (3, 5))
    assert np.max(np.abs(out.data - expected)) <= 1e-12


def test_learned_stencil_builds_its_band_once(monkeypatch):
    calls = []
    real = models._stacked_bands

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(models, "_stacked_bands", spy)
    rng = np.random.default_rng(26)
    w = WindowSpec((5, 5))
    st = LearnedStencil(w, rng.standard_normal((25, 1)), rng.standard_normal(1), 0.0)
    assert len(calls) == 1
    t = BatchTensor(rng.standard_normal((2, 64, 64, 1)))
    monkeypatch.setattr(windowing, "TILE_BYTES", 16 * 5 * 8)  # many tiles
    for _ in range(2):
        integrate_predictions(t, w, st)
    assert len(calls) == 1
    # the band is derived state: left out of repr and equality
    assert "_band" not in repr(st)
    assert "_band" not in [f.name for f in dataclasses.fields(st) if f.compare]


@pytest.mark.parametrize("bias", [np.float64(0.5), np.zeros((1, 1))], ids=["0-d", "1x1"])
def test_learned_stencil_bias_must_be_one_value_per_channel(bias):
    with pytest.raises(ShapeMismatchError):
        LearnedStencil(WindowSpec((3, 3)), np.zeros((9, 1)), bias, 0.0)


@pytest.mark.parametrize("weights", [np.ones((9, 1), dtype=complex), [["x"]] * 9],
                         ids=["complex", "text"])
def test_learned_stencil_weights_must_be_real_numbers(weights):
    with pytest.raises(DomainError):
        LearnedStencil(WindowSpec((3, 3)), weights, np.zeros(1), 0.0)


def test_learned_stencil_holds_list_weights_as_float64_arrays():
    rng = np.random.default_rng(21)
    w = WindowSpec((3, 3))
    weights, bias = rng.standard_normal((18, 2)), rng.standard_normal(2)
    st = LearnedStencil(w, weights.tolist(), bias.tolist(), 0.0)
    assert st.weights.dtype == st.bias.dtype == np.float64
    t = BatchTensor(rng.standard_normal((1, 10, 11, 2)))
    want = integrate_predictions(t, w, LearnedStencil(w, weights, bias, 0.0))
    assert integrate_predictions(t, w, st).equals(want)


@pytest.mark.parametrize("kind", ["upwind", "diffusion", "learned", "identity"])
@pytest.mark.parametrize("dtype", [complex, object])
def test_stencils_reject_windows_that_are_not_real_numbers(kind, dtype):
    w = WindowSpec((3, 3))
    pred = {
        "identity": lambda: IdentityPredictor(2),
        "upwind": lambda: UpwindStencil(GridPde(dx=1.0, dt=1.0, c=(0.5, 0.5)), w),
        "diffusion": lambda: DiffusionStencil(GridPde(dx=1.0, dt=1.0, alpha=0.2), w),
        "learned": lambda: LearnedStencil(w, np.ones((9, 1)), np.zeros(1), 0.0),
    }[kind]()
    windows = window_view(np.zeros((1, 11, 11, 1), dtype), w.sizes)
    with pytest.raises(DomainError):
        pred.predict_windows(windows)


@pytest.mark.parametrize("sizes,extents,channels,pair_indices", [
    ((5,), (40,), 1, None),
    ((3, 5), (12, 15), 2, None),
    ((5, 5), (20, 20), 1, [1, 3, 4]),
    ((3, 3, 3), (6, 5, 7), 2, [0, 2]),
])
def test_sample_training_pairs_matches_per_sample_loop(sizes, extents, channels,
                                                       pair_indices):
    rng = np.random.default_rng(14)
    frames = tuple(BatchTensor(rng.standard_normal((3, *extents, channels)))
                   for _ in range(6))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    w = WindowSpec(sizes)
    x, y = sample_training_pairs(ds, w, 500, seed=5, pair_indices=pair_indices)
    want_x, want_y = sample_pairs_loop(ds, w, 500, seed=5, pair_indices=pair_indices)
    assert np.array_equal(x, want_x)
    assert np.array_equal(y, want_y)


def test_sample_training_pairs_gathers_a_few_windows_at_a_time(monkeypatch):
    # 3 windows of 3 x 5 x 2 values per gather: many per frame pair, the last ragged
    monkeypatch.setattr(windowing, "TILE_BYTES", 3 * 30 * 8 + 7)
    rng = np.random.default_rng(23)
    frames = tuple(BatchTensor(rng.standard_normal((2, 12, 15, 2))) for _ in range(4))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    w = WindowSpec((3, 5))
    x, y = sample_training_pairs(ds, w, 100, seed=6)
    want_x, want_y = sample_pairs_loop(ds, w, 100, seed=6)
    assert np.array_equal(x, want_x)
    assert np.array_equal(y, want_y)


@pytest.mark.parametrize("dims, sizes", [
    ((1, 64, 64, 1), (17, 17)),
    ((2, 32, 32, 32, 1), (9, 9, 9)),
])
def test_fit_stencil_holds_one_copy_of_the_samples(dims, sizes):
    # the 4096 x p samples x dominate; a gather or a centered copy beside them
    # would hold them twice
    rng = np.random.default_rng(24)
    frames = tuple(BatchTensor(rng.standard_normal(dims)) for _ in range(3))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    w = WindowSpec(sizes)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_stencil(ds, w, sample_budget=4096)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    p = w.cells
    assert peak < 4096 * p * 8 + 3 * p * p * 8 + windowing.TILE_BYTES


@pytest.mark.parametrize("dims, sizes", [
    ((1, 64, 64, 1), (17, 17)),
    ((2, 32, 32, 32, 1), (9, 9, 9)),
])
def test_fit_stencil_memory_does_not_scale_with_sample_budget(dims, sizes):
    # the fit streams its samples into the p x p normal equations: the Gram,
    # one block's product or the LU copy of the Gram, and one block of at
    # most max(TILE_BYTES, p samples); only the n-long index draws grow
    rng = np.random.default_rng(24)
    frames = tuple(BatchTensor(rng.standard_normal(dims)) for _ in range(3))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    w = WindowSpec(sizes)
    p = w.cells
    peaks = {}
    for budget in (4096, 16384):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fit_stencil(ds, w, sample_budget=budget)
            peaks[budget] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    bound = 4 * p * p * 8 + 2 * windowing.TILE_BYTES
    assert peaks[4096] < bound and peaks[16384] < bound
    # the 12288 extra samples' rows alone would take 12288 * p * 8 bytes
    assert peaks[16384] - peaks[4096] < 12288 * p * 8 / 20


@pytest.mark.parametrize("dims, sizes, budget, pair_indices", [
    ((2, 16, 15, 2), (3, 5), 900, None),  # streamed: 900 samples for 30 features
    ((2, 16, 15, 2), (3, 5), 20, [1, 3, 4]),  # sample space: 20 for 30
    ((1, 9, 8, 7, 1), (3, 3, 3), 400, [0, 2, 4]),
    ((3, 40, 1), (5,), 64, [4]),
])
def test_fit_stencil_on_a_file_equals_the_fit_in_memory(tmp_path, dims, sizes, budget,
                                                        pair_indices):
    # the file-backed fit reads one frame at a time into the dataset's
    # buffer; it draws and gathers the same samples as the in-memory fit
    rng = np.random.default_rng(26)
    frames = tuple(BatchTensor(rng.standard_normal(dims)) for _ in range(6))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    path = tmp_path / "ds.ddld"
    write_dataset(path, ds)
    w = WindowSpec(sizes)
    want = fit_stencil(ds, w, sample_budget=budget, seed=7, pair_indices=pair_indices)
    got = fit_stencil(read_dataset(path), w, sample_budget=budget, seed=7,
                      pair_indices=pair_indices)
    assert np.array_equal(got.weights, want.weights)
    assert np.array_equal(got.bias, want.bias)


@pytest.mark.parametrize("sizes", [(9, 9), (17, 17)])
def test_fit_stencil_on_a_file_holds_one_frame(tmp_path, sizes):
    # reading the file and fitting on it holds the frame buffer the reads
    # share, the two p x p arrays and one block of windows: never two frames
    rng = np.random.default_rng(27)
    frames = tuple(BatchTensor(rng.standard_normal((2, 256, 256, 1))) for _ in range(5))
    path = tmp_path / "ds.ddld"
    write_dataset(path, Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0))
    w = WindowSpec(sizes)
    fit_stencil(read_dataset(path), w, sample_budget=4096, pair_indices=[0, 2, 3])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fit_stencil(read_dataset(path), w, sample_budget=4096, pair_indices=[0, 2, 3])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    frame, p = frames[0].data.nbytes, w.cells
    # the margin takes the index draws, the finiteness check's mask and the
    # 8 KiB read buffer; a second frame would not fit in it
    assert peak < frame + 2 * p * p * 8 + windowing.TILE_BYTES + 0.5 * frame


@pytest.mark.parametrize("lam", [1e-8, 0.1])
def test_fit_stencil_below_p_samples_equals_sample_space_solve(lam):
    # 100 samples for 3 * 7 * 5 * 2 = 210 features: the fit holds its samples
    # and solves the dual system, as _solve_ridge does on the same samples
    rng = np.random.default_rng(25)
    frames = tuple(BatchTensor(rng.standard_normal((2, 10, 12, 9, 2))) for _ in range(3))
    ds = Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)
    w = WindowSpec((3, 7, 5))
    st = fit_stencil(ds, w, ridge_lambda=lam, sample_budget=100, seed=4)
    factors, xm, ym = _solve_ridge(*sample_training_pairs(ds, w, 100, seed=4), lam)
    want = functools.reduce(np.matmul, factors)
    assert len(factors) == 2
    assert np.array_equal(st.weights, want)
    assert np.array_equal(st.bias, ym - xm @ want)


@pytest.mark.parametrize("budget", [64, 256], ids=["dual", "primal"])
def test_fit_stencil_rejects_negative_ridge(budget):
    ds = advection_dataset(extents=(12, 12))
    w = WindowSpec((11, 11))  # 121 features
    with pytest.raises(DomainError):
        fit_stencil(ds, w, ridge_lambda=-1e-8, sample_budget=budget)


def test_fit_stencil_without_ridge_needs_more_samples_than_features():
    # exactly p samples take the streamed fit, which refuses lam = 0 before
    # it gathers a window, as _solve_ridge does
    ds = advection_dataset(extents=(12, 12))
    with pytest.raises(SingularSystem):
        fit_stencil(ds, WindowSpec((3, 3)), ridge_lambda=0.0, sample_budget=9)


@pytest.mark.parametrize("case", ["dual-c09", "primal"])
def test_fits_leave_frames_unchanged_and_unshared(case):
    ds = advection_dataset(batch=4) if case == "dual-c09" else primal_dataset()
    before = [f.data.tobytes() for f in ds.frames]
    if case == "dual-c09":  # the primal frames are too small for a window
        sample_training_pairs(ds, WindowSpec((3, 3)), 64, seed=0)
        fit_stencil(ds, WindowSpec((3, 3)), sample_budget=64)
    model = fit_global_linear(ds, sample_budget=64)
    assert [f.data.tobytes() for f in ds.frames] == before
    for factor in model.factors:
        assert not any(np.shares_memory(factor, f.data) for f in ds.frames)


def test_fit_deterministic():
    ds = advection_dataset(seed=21)
    a = fit_stencil(ds, WindowSpec((5, 5)), sample_budget=512, seed=3)
    b = fit_stencil(ds, WindowSpec((5, 5)), sample_budget=512, seed=3)
    assert np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)


# --- global linear baseline -------------------------------------------------------


def test_global_linear_learns_identity_dynamics():
    grid = Shape(4, (12, 12), 1)
    pde = GridPde(dx=1 / 12, dt=1.0, c=(0.0, 0.0))
    ic = InitialCondition("bumps", n_bumps=3)
    ds = generate_dataset("advection", grid, pde, ic, 6, seed=8)
    model = fit_global_linear(ds, ridge_lambda=1e-10, sample_budget=64, seed=0)
    scores = [r2(model.predict_frame(ds.frames[t]), ds.frames[t + 1]) for t in range(6)]
    assert min(scores) >= 0.999


def test_global_linear_deterministic():
    ds = advection_dataset(extents=(16, 16), seed=5)
    a = fit_global_linear(ds, sample_budget=8, seed=4)
    b = fit_global_linear(ds, sample_budget=8, seed=4)
    assert len(a.factors) == len(b.factors) == 2
    for fa, fb in zip(a.factors, b.factors):
        assert np.array_equal(fa, fb)
    assert np.array_equal(a.x_mean, b.x_mean) and np.array_equal(a.y_mean, b.y_mean)
    for t in range(ds.n_steps):
        assert np.array_equal(a.predict_frame(ds.frames[t]).data,
                              b.predict_frame(ds.frames[t]).data)


def primal_dataset():
    """Random 3 x (3 x 2) x 2 frames: 12 features, 3 samples per frame pair."""
    rng = np.random.default_rng(17)
    frames = [BatchTensor(rng.standard_normal((3, 3, 2, 2))) for _ in range(8)]
    return Dataset("external", frames, GridPde(dx=1.0, dt=1.0), seed=0)


@pytest.mark.parametrize("case", ["dual-c09", "primal"])
def test_global_linear_predictions_match_dense_svd_weights(case):
    lam = 1e-8
    if case == "dual-c09":
        ds, train, test = advection_dataset(batch=4), [0, 2, 4, 6], [1, 3, 5, 7]
    else:
        ds, train, test = primal_dataset(), [0, 1, 3, 4, 6], [2, 5]
    x, y = frame_pairs(ds, train)
    n, p = x.shape
    assert (n < p) == (case == "dual-c09")
    model = fit_global_linear(ds, ridge_lambda=lam, sample_budget=64, pair_indices=train)
    # the dual fit keeps two n x p factors; only the primal one is p x p
    want_shapes = [(p, n), (n, p)] if n < p else [(p, p)]
    assert [f.shape for f in model.factors] == want_shapes
    want_w, want_bias = ridge_svd(x, y, lam)
    for t in train + test:
        frame = ds.frames[t]
        pred = model.predict_frame(frame).data
        want = (frame.data.reshape(frame.batch, -1) @ want_w + want_bias).reshape(frame.dims)
        assert np.linalg.norm(pred - want) <= 1e-10 * np.linalg.norm(want)


def test_global_linear_memory_stays_in_sample_space():
    # c09-sized: 16 samples x 2304 features; dense p x p weights alone are 40.5 MiB
    ds = advection_dataset(batch=4)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = fit_global_linear(ds, sample_budget=64, pair_indices=[0, 2, 4, 6])
        for t in (1, 3, 5, 7):
            model.predict_frame(ds.frames[t])
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_global_linear_without_ridge_raises():
    ds = advection_dataset(batch=4)
    with pytest.raises(SingularSystem):
        fit_global_linear(ds, ridge_lambda=0.0, seed=0, pair_indices=[0, 2, 4, 6])


@pytest.mark.parametrize("fit", [
    lambda ds, pairs: fit_stencil(ds, WindowSpec((3, 3)), sample_budget=64, pair_indices=pairs),
    lambda ds, pairs: fit_global_linear(ds, sample_budget=64, pair_indices=pairs),
])
# empty, past the last pair, negative (would wrap to the last frame), not integers
@pytest.mark.parametrize("pairs", [[], [99], [-1], [0, 8], [0.5], [[0, 1]]])
def test_fits_reject_bad_pair_indices(fit, pairs):
    ds = advection_dataset(extents=(12, 12))
    with pytest.raises(DomainError):
        fit(ds, pairs)


def test_local_beats_global_on_advection():
    ds = advection_dataset()
    pairs = list(range(ds.n_steps))
    train, test = pairs[::2], pairs[1::2]
    w = WindowSpec((5, 5))
    st = fit_stencil(ds, w, sample_budget=2048, seed=0, pair_indices=train)
    gl = fit_global_linear(ds, sample_budget=2048, seed=0, pair_indices=train)
    rel_st = np.mean([rel_l2(integrate_predictions(ds.frames[t], w, st), ds.frames[t + 1])
                      for t in test])
    rel_gl = np.mean([rel_l2(gl.predict_frame(ds.frames[t]), ds.frames[t + 1])
                      for t in test])
    assert rel_st <= 0.5 * rel_gl


# --- metrics ----------------------------------------------------------------------


def test_metrics_hand_example():
    truth = np.array([1.0, 2.0, 3.0])
    pred = np.array([1.0, 2.0, 4.0])
    assert paper_l2(pred, truth) == pytest.approx(1.0 / 3.0)
    assert rel_l2(pred, truth) == pytest.approx(1.0 / math.sqrt(14.0))
    assert r2(pred, truth) == pytest.approx(0.5)


def test_metrics_perfect_and_mean_prediction():
    rng = np.random.default_rng(12)
    truth = rng.standard_normal(100)
    assert rel_l2(truth, truth) == 0.0
    assert r2(truth, truth) == 1.0
    assert r2(np.full_like(truth, truth.mean()), truth) == pytest.approx(0.0)


def test_metrics_invariances():
    rng = np.random.default_rng(13)
    truth = rng.standard_normal(64)
    pred = truth + 0.1 * rng.standard_normal(64)
    shift, scale = 3.7, 2.5
    assert r2(pred + shift, truth + shift) == pytest.approx(r2(pred, truth), abs=1e-11)
    assert rel_l2(pred * scale, truth * scale) == pytest.approx(rel_l2(pred, truth), abs=1e-13)


def test_metrics_paper_l2_excludes_zero_cells():
    truth = np.array([0.0, 1.0, 2.0])
    pred = np.array([5.0, 1.5, 2.0])
    assert paper_l2(pred, truth) == pytest.approx(0.5)
    sums = MetricSums.of(truth)
    sums.add(pred, truth)
    assert sums.excluded == 1


@pytest.mark.parametrize("zeros", [0, 37])
def test_paper_l2_equals_the_gathered_sum(zeros):
    # gathering only when a truth cell is zero must not change a single bit
    rng = np.random.default_rng(24)
    truth = rng.standard_normal((4, 33, 35, 2))
    truth.flat[rng.choice(truth.size, zeros, replace=False)] = 0.0
    pred = truth + 0.1 * rng.standard_normal(truth.shape)
    p, t = pred.ravel(), truth.ravel()
    mask = t != 0.0
    want = float(np.sum(np.abs(p[mask] - t[mask]) / np.abs(t[mask])))
    assert paper_l2(pred, truth) == want
    assert paper_l2(BatchTensor(pred), BatchTensor(truth)) == want
    sums = MetricSums.of(truth)
    sums.add(pred, truth)
    assert (sums.paper, sums.excluded) == (want, zeros)


def test_metrics_degenerate_truth():
    with pytest.raises(DegenerateTruth):
        r2(np.ones(4), np.ones(4))
    assert rel_l2(np.zeros(4), np.zeros(4)) == 0.0
    assert rel_l2(np.ones(4), np.zeros(4)) == math.inf


def test_metrics_record_fields():
    rec = metrics_record(np.array([1.0, 2.0, 4.0]), np.array([1.0, 2.0, 3.0]))
    assert (rec.rel_l2, rec.paper_l2, rec.r2) == (
        pytest.approx(1.0 / math.sqrt(14.0)),
        pytest.approx(1.0 / 3.0),
        pytest.approx(0.5),
    )


@pytest.mark.parametrize("zeros", [0, 37])
def test_metrics_record_is_bit_identical_to_each_metric(zeros):
    rng = np.random.default_rng(27)
    truth = rng.standard_normal((4, 33, 35, 2))
    truth.flat[rng.choice(truth.size, zeros, replace=False)] = 0.0
    pred = truth + 0.1 * rng.standard_normal(truth.shape)
    kept = pred.copy(), truth.copy()
    rec = metrics_record(BatchTensor(pred), BatchTensor(truth))
    assert (rec.rel_l2, rec.paper_l2, rec.r2) == (
        rel_l2(pred, truth), paper_l2(pred, truth), r2(pred, truth))
    # the values of the one-formula-per-metric definitions, each forming p - t
    p, t = pred.ravel(), truth.ravel()
    mask = t != 0.0
    assert rec == MetricsRecord(
        float(np.linalg.norm(p - t)) / float(np.linalg.norm(t)),
        float(np.sum(np.abs(p[mask] - t[mask]) / np.abs(t[mask]))),
        1.0 - float(np.sum((p - t) ** 2)) / float(np.sum((t - t.mean()) ** 2)))
    assert np.array_equal(pred, kept[0]) and np.array_equal(truth, kept[1])


def test_rel_l2_and_r2_read_one_sum_of_squared_differences():
    # scored part by part, both metrics take the same sum of d.d over the parts
    # (at this seed a pairwise sum of d^2 differs from it in the last bit)
    rng = np.random.default_rng(31)
    truth = rng.standard_normal((3, 1000))
    pred = truth + 0.1 * rng.standard_normal(truth.shape)
    sums = MetricSums.of(truth)
    res = dev = 0.0
    for p, t in zip(pred, truth):
        sums.add(p, t)
        res += float((p - t).dot(p - t))
        dev += float(np.sum((t - sums.truth_mean) ** 2))
    assert (sums.res, sums.dev) == (res, dev)
    rec = sums.record()
    assert rec.rel_l2 == math.sqrt(res) / math.sqrt(float(truth.ravel().dot(truth.ravel())))
    assert rec.r2 == 1.0 - res / dev


def test_metrics_record_holds_one_frame_of_differences():
    rng = np.random.default_rng(28)
    truth = BatchTensor(1.0 + rng.random((4, 128, 128, 1)))
    pred = BatchTensor(truth.data + 0.1 * rng.standard_normal(truth.dims))
    metrics_record(pred, truth)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        metrics_record(pred, truth)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * truth.data.nbytes
