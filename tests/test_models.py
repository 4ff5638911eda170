import math

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
    Shape,
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
from windec.models import _solve_ridge
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


def c09_frame_pairs(pairs):
    """Whole-frame (input, target) rows of the c09 dataset: 4 x 48^2, one row per item."""
    ds = advection_dataset(batch=4)
    x = np.stack([ds.frames[t].data[b].ravel() for t in pairs for b in range(4)])
    y = np.stack([ds.frames[t + 1].data[b].ravel() for t in pairs for b in range(4)])
    return x, y


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
    w, bias = _solve_ridge(x, y, lam)
    want_w, want_bias = ridge_svd(x, y, lam)
    for inputs in (x, x_test):
        pred, want = inputs @ w + bias, inputs @ want_w + want_bias
        assert np.linalg.norm(pred - want) <= 1e-10 * np.linalg.norm(want)


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
    assert np.array_equal(a.weights, b.weights)


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
