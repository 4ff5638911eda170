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
    rel_l2,
    sample_training_pairs,
)
from windec import windowing
from windec.models import _solve_ridge
from windec.windowing import window_view
from oracles import (
    convolve_stencil_full,
    diffusion_full,
    predict_centers,
    ridge_svd,
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


def test_fit_stencil_weights_equal_primal_normal_equation_solve():
    # n >= p solves the p x p normal equations exactly as written here, bit for bit
    ds = advection_dataset(seed=13)
    w = WindowSpec((5, 5))
    lam = 1e-8
    st = fit_stencil(ds, w, ridge_lambda=lam, sample_budget=2048, seed=2)
    x, y = sample_training_pairs(ds, w, 2048, seed=2)
    xm, ym = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - xm, y - ym
    a = xc.T @ xc + lam * np.eye(x.shape[1])
    b = xc.T @ yc
    want = np.linalg.solve(a, b)
    want = want + np.linalg.solve(a, b - a @ want)
    assert np.array_equal(st.weights, want)
    assert np.array_equal(st.bias, ym - xm @ want)


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
    value, excluded = paper_l2(pred, truth, return_excluded=True)
    assert excluded == 1
    assert value == pytest.approx(0.5)


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
    assert paper_l2(pred, truth, return_excluded=True) == (want, zeros)
    assert paper_l2(BatchTensor(pred), BatchTensor(truth)) == want


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
