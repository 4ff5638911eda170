import itertools
import math
import tracemalloc

import numpy as np
import pytest

from windec import (
    BOUNDARIES,
    BatchTensor,
    ConfigError,
    DomainError,
    GridPde,
    InitialCondition,
    RankError,
    Shape,
    StabilityError,
    UnsupportedBoundary,
    WindecError,
    advect_exact,
    burgers_step,
    gaussian_bump_field,
    generate_dataset,
    harmonic_field,
    heat_step,
    sample_bumps,
    sin_field,
)
from windec.config import DatasetConfig

from oracles import burgers_loop, impulse


# --- sin_field ----------------------------------------------------------------


def test_sin_field_bounded():
    u = sin_field(2.0, Shape(2, (32, 32), 1), 1.0 / 32)
    assert np.max(np.abs(u.data)) <= 1.0


def test_sin_field_periodic_seam_is_continuous():
    # two unit lengths at f=1.5: exactly three periods across the domain
    u = sin_field(1.5, Shape(1, (64,), 1), 2.0 / 64).data[0, :, 0]
    interior_step = np.max(np.abs(np.diff(u)))
    seam_step = abs(u[0] - u[-1])
    assert seam_step <= interior_step + 1e-12


def test_sin_field_dominant_bin_scales_with_frequency():
    grid = Shape(1, (128,), 1)
    dx = 2.0 / 128  # two unit lengths, so f cycles/unit occupies bin 2f
    bins = {}
    for f in (0.5, 4.0):
        u = sin_field(f, grid, dx).data[0, :, 0]
        spec = np.abs(np.fft.rfft(u))
        bins[f] = int(np.argmax(spec))
    assert bins[4.0] == 8 * bins[0.5]


def test_sin_field_rejects_bad_freq():
    with pytest.raises(DomainError):
        sin_field(0.0, Shape(1, (8,), 1), 0.1)


# --- gaussian bumps -----------------------------------------------------------


def test_bumps_deterministic():
    grid = Shape(2, (32, 32), 1)
    a = gaussian_bump_field(42, grid, 1 / 32, 3)
    b = gaussian_bump_field(42, grid, 1 / 32, 3)
    assert a.equals(b)


def test_bumps_zero_amplitude_gives_zero_field():
    u = gaussian_bump_field(7, Shape(1, (16, 16), 1), 1 / 16, 2, amplitude_range=(0.0, 0.0))
    assert np.all(u.data == 0.0)


def test_bumps_maximum_sits_at_strongest_center():
    seed, n = 11, 3
    grid = Shape(1, (64, 64), 1)
    dx = 1 / 64
    rng = np.random.default_rng(seed)
    bumps = sample_bumps(rng, (1.0, 1.0), n)
    field = gaussian_bump_field(seed, grid, dx, n)
    center, _, _ = max(bumps, key=lambda bump: bump[2])
    am = np.unravel_index(np.argmax(field.data[0, :, :, 0]), (64, 64))
    for got, want in zip(am, center):
        assert abs(got - (want / dx - 0.5)) <= 1.0


def test_harmonic_field_deterministic_and_band_limited():
    grid = Shape(1, (256,), 1)
    dx = 4.0 / 256
    a = harmonic_field(3, grid, dx, bandwidth=2.0)
    assert a.equals(harmonic_field(3, grid, dx, bandwidth=2.0))
    spec = np.abs(np.fft.rfft(a.data[0, :, 0])) ** 2
    freqs = np.fft.rfftfreq(256, d=dx)
    assert spec[freqs > 2.0 + 1e-9].sum() <= 1e-20 * spec.sum()


@pytest.mark.parametrize("bandwidth, base_freq", [(0.4, 0.5), (0.0, 0.5), (1.0, -0.5)])
def test_harmonic_field_refuses_a_band_without_an_octave(bandwidth, base_freq):
    # no octave would fit, and the field would be all zeros
    with pytest.raises(DomainError, match="no octave"):
        harmonic_field(3, Shape(1, (16,), 1), 0.25, bandwidth=bandwidth, base_freq=base_freq)


# --- advect_exact ---------------------------------------------------------------


def test_advect_zero_speed_identity():
    rng = np.random.default_rng(0)
    u0 = BatchTensor(rng.standard_normal((1, 16, 16, 1)))
    pde = GridPde(dx=0.1, dt=1.0, c=(0.0, 0.0))
    assert advect_exact(u0, pde, 5.0).equals(u0)


def test_advect_full_period_returns_start():
    grid = Shape(1, (64,), 1)
    dx = 1.0 / 64
    u0 = sin_field(3.0, grid, dx)
    pde = GridPde(dx=dx, dt=1.0, c=(0.35,))
    # two fractional half-period hops exercise the spectral path
    half = advect_exact(u0, pde, 1.0 / 0.7)
    full = advect_exact(half, pde, 1.0 / 0.7)
    assert np.max(np.abs(full.data - u0.data)) <= 1e-12


def test_advect_matches_phase_shift_oracle():
    grid = Shape(1, (64, 64), 1)
    dx = 1.0 / 64
    f = 2.0
    u0 = sin_field(f, grid, dx)
    c = (0.2, 0.3)
    t = 0.7
    pde = GridPde(dx=dx, dt=1.0, c=c)
    moved = advect_exact(u0, pde, t)
    x = (np.arange(64) + 0.5) * dx
    xs, ys = np.meshgrid(x, x, indexing="ij")
    expected = np.sin(2 * np.pi * f * (xs + ys - (c[0] + c[1]) * t))
    assert np.max(np.abs(moved.data[0, :, :, 0] - expected)) <= 1e-10


def test_advect_conserves_total_mass():
    rng = np.random.default_rng(1)
    u0 = BatchTensor(rng.standard_normal((1, 64, 64, 1)))
    pde = GridPde(dx=1 / 64, dt=1.0, c=(0.013, 0.027))
    moved = advect_exact(u0, pde, 1.0)
    assert abs(math.fsum(moved.data.ravel()) - math.fsum(u0.data.ravel())) <= 1e-10


# --- burgers_step ---------------------------------------------------------------


def test_burgers_zero_field_fixed_point():
    pde = GridPde(dx=1 / 16, dt=0.1, nu=0.01)
    u = BatchTensor(np.zeros((1, 16, 16, 2)))
    assert burgers_step(u, pde).equals(u)


def test_burgers_uniform_field_unchanged():
    pde = GridPde(dx=1 / 16, dt=0.1, nu=0.01)
    u = BatchTensor(np.full((1, 16, 16, 2), 0.75))
    out = burgers_step(u, pde)
    assert np.max(np.abs(out.data - 0.75)) <= 1e-14


def test_burgers_kinetic_energy_non_increasing():
    grid = Shape(1, (48, 48), 2)
    pde = GridPde(dx=1 / 48, dt=0.1, nu=0.01)
    u = gaussian_bump_field(3, grid, pde.dx, 3, amplitude_range=(-0.8, 0.8))
    energy = float(np.sum(u.data**2))
    for _ in range(100):
        u = burgers_step(u, pde)
        new_energy = float(np.sum(u.data**2))
        assert new_energy <= energy + 1e-12
        energy = new_energy


def test_burgers_stability_guard():
    pde = GridPde(dx=1e-6, dt=1e3, nu=0.5)
    with pytest.raises(StabilityError):
        burgers_step(BatchTensor(np.ones((1, 4, 4, 2))), pde)


@pytest.mark.parametrize("nu, dt", [(0.01, 0.2), (0.02, 0.05), (0.02, 0.1)])
def test_burgers_maximum_principle(nu, dt):
    # explicit upwind plus central viscosity is monotone only while
    # 2C + 4D <= 1; sizing C and D separately let max|u| grow to 264
    ds = generate_dataset("burgers", Shape(2, (32, 32), 2), GridPde(dx=1 / 32, dt=dt, nu=nu),
                          InitialCondition("bumps", n_bumps=4), 10, seed=1)
    peaks = [float(np.max(np.abs(f.data))) for f in ds.frames]
    assert all(b <= a for a, b in zip(peaks, peaks[1:])), peaks


def _burgers_substeps(vmax, dx, dt, nu):
    """Sub-step count of the documented Burgers rule, 2C + 4D <= 1 per sub-step."""
    return max(1, math.ceil(2 * vmax * dt / dx + 4 * nu * dt / dx**2 - 1e-12))


@pytest.mark.parametrize("shape, dt, nu, seed, substepped", [
    ((1, 8, 8, 2), 0.001, 0.01, 0, False),
    ((2, 5, 7, 2), 0.004, 0.0, 1, False),
    ((3, 6, 4, 2), 0.002, 0.005, 2, False),
    ((1, 16, 12, 2), 0.1, 0.01, 3, True),
    ((2, 9, 11, 2), 0.05, 0.0, 4, True),
    ((1, 7, 16, 2), 0.05, 0.02, 5, True),
])
def test_burgers_step_matches_per_component_loop(shape, dt, nu, seed, substepped):
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, shape)
    dx = 1 / max(shape[1:3])
    n_sub = _burgers_substeps(float(np.max(np.abs(data))), dx, dt, nu)
    assert (n_sub > 1) == substepped
    out = burgers_step(BatchTensor(data), GridPde(dx=dx, dt=dt, nu=nu))
    assert np.array_equal(out.data, burgers_loop(data, dx, dt, nu, n_sub))


# --- heat_step ------------------------------------------------------------------


def test_heat_uniform_insulated_stationary():
    pde = GridPde(dx=1.0, dt=1.0, alpha=0.1, boundary="insulated")
    u = BatchTensor(np.full((1, 12, 12, 1), 3.5))
    assert heat_step(u, pde).equals(u)


def test_heat_conserves_total_heat_insulated():
    rng = np.random.default_rng(2)
    pde = GridPde(dx=1.0, dt=1.0, alpha=0.7, boundary="insulated")  # sub-stepped
    u = BatchTensor(rng.uniform(0, 2, size=(1, 20, 20, 1)))
    total = math.fsum(u.data.ravel())
    for _ in range(20):
        u = heat_step(u, pde)
        new_total = math.fsum(u.data.ravel())
        assert abs(new_total - total) <= 1e-10
        total = new_total


def test_heat_maximum_principle():
    rng = np.random.default_rng(3)
    for boundary in ("periodic", "insulated", "zero-extension"):
        pde = GridPde(dx=1.0, dt=1.0, alpha=0.2, boundary=boundary)
        u = BatchTensor(rng.uniform(-1, 1, size=(1, 16, 16, 1)))
        lo, hi = u.data.min(), u.data.max()
        out = heat_step(u, pde)
        assert out.data.max() <= max(hi, 0.0) + 1e-12
        assert out.data.min() >= min(lo, 0.0) - 1e-12


def test_heat_point_source_spreads_at_kernel_width():
    grid = Shape(1, (96, 96), 1)
    pde = GridPde(dx=1.0, dt=1.0, alpha=0.2, boundary="insulated")
    u = impulse(grid, (48, 48))
    steps = 50
    for _ in range(steps):
        u = heat_step(u, pde)
    a = u.data[0, :, :, 0]
    x = np.arange(96)
    expected = math.sqrt(2 * pde.alpha * steps * pde.dt)
    for axis in (0, 1):
        marginal = a.sum(axis=1 - axis)
        mean = float((x * marginal).sum() / marginal.sum())
        width = math.sqrt(float(((x - mean) ** 2 * marginal).sum() / marginal.sum()))
        assert abs(width - expected) / expected <= 0.05


def test_heat_3d_supported():
    pde = GridPde(dx=1.0, dt=1.0, alpha=0.05, boundary="insulated")
    rng = np.random.default_rng(4)
    u = BatchTensor(rng.uniform(0, 1, size=(1, 8, 8, 8, 1)))
    out = heat_step(u, pde)
    assert abs(math.fsum(out.data.ravel()) - math.fsum(u.data.ravel())) <= 1e-10


@pytest.mark.parametrize("step, channels, pde, bound", [
    *((heat_step, 1, GridPde(dx=1.0, dt=0.1, alpha=1.0, boundary=b), 4.0) for b in BOUNDARIES),
    (burgers_step, 2, GridPde(dx=1.0, dt=0.1, nu=0.1), 6.0),
], ids=[*(f"heat-{b}" for b in BOUNDARIES), "burgers"])
def test_one_step_holds_no_copy_of_its_input(step, channels, pde, bound):
    # one sub-step: a heat step holds its output, the padded input, the
    # neighbor sum and one temporary; a copy of the input would be one more
    u = BatchTensor(np.random.default_rng(5).uniform(-0.5, 0.5, (2, 128, 128, channels)))
    step(u, pde)  # once untraced, so that one-time set-up is not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step(u, pde)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < bound * u.data.nbytes


# --- what the steppers refuse ---------------------------------------------------


def _zeros(*spatial, channels=1):
    return BatchTensor(np.zeros((1, *spatial, channels)))


_PDE = dict(dx=0.1, dt=0.1, nu=0.01, alpha=0.1)


# each stepper refuses through check_request what its GENERATED row refuses,
# with the error class and leading field generate_dataset gives
@pytest.mark.parametrize("call, error, field", [
    (lambda: advect_exact(_zeros(8, 8), GridPde(**_PDE, c=(1.0, 0.0), boundary="insulated"),
                          1.0), UnsupportedBoundary, "boundary: "),
    (lambda: advect_exact(_zeros(8, 8), GridPde(**_PDE), 1.0), DomainError, "c: "),
    (lambda: advect_exact(_zeros(8, 8), GridPde(**_PDE, c=(1.0,)), 1.0), RankError,
     "c has 1 components"),
    (lambda: heat_step(_zeros(8, 8, channels=2), GridPde(**_PDE)), DomainError, "channels: "),
    (lambda: heat_step(_zeros(8), GridPde(**_PDE)), RankError, "extents: "),
    (lambda: burgers_step(_zeros(8, 8), GridPde(**_PDE)), DomainError, "channels: "),
    (lambda: burgers_step(_zeros(8, 8, 8, channels=2), GridPde(**_PDE)), RankError, "extents: "),
    (lambda: burgers_step(_zeros(8, 8, channels=2), GridPde(**_PDE, boundary="insulated")),
     UnsupportedBoundary, "boundary: "),
], ids=["advect-boundary", "advect-no-c", "advect-c-rank", "heat-channels", "heat-rank",
        "burgers-channels", "burgers-rank", "burgers-boundary"])
def test_steppers_refuse_what_generation_refuses(call, error, field):
    with pytest.raises(error, match=f"^{field}"):
        call()


# --- generate_dataset -----------------------------------------------------------


def test_generate_advection_frames_are_exact_transport():
    grid = Shape(1, (32, 32), 1)
    pde = GridPde(dx=1 / 32, dt=0.25, c=(0.1, 0.2))
    ic = InitialCondition("sine", freq=1.0)
    ds = generate_dataset("advection", grid, pde, ic, 10, seed=0)
    assert len(ds.frames) == 11
    u0 = ds.frames[0]
    for t in (3, 7, 10):
        assert ds.frames[t].equals(advect_exact(u0, pde, t * pde.dt))


def test_generate_burgers_horizon_frame_count():
    grid = Shape(1, (16, 16), 2)
    pde = GridPde(dx=1 / 16, dt=0.1, nu=0.01)
    ic = InitialCondition("bumps", n_bumps=2)
    ds = generate_dataset("burgers", grid, pde, ic, 100, seed=1)
    assert len(ds.frames) == 101


def test_generate_deterministic():
    grid = Shape(2, (24, 24), 1)
    pde = GridPde(dx=1 / 24, dt=0.5, alpha=0.05, boundary="insulated")
    ic = InitialCondition("bumps", n_bumps=3)
    a = generate_dataset("heat", grid, pde, ic, 5, seed=12)
    b = generate_dataset("heat", grid, pde, ic, 5, seed=12)
    assert a.equals(b)


def test_generate_validates_channels():
    pde = GridPde(dx=0.1, dt=0.1, nu=0.01)
    with pytest.raises(DomainError):
        generate_dataset(
            "burgers", Shape(1, (8, 8), 1), pde, InitialCondition("bumps", n_bumps=1), 1, 0
        )


_BUMP = InitialCondition("bumps", n_bumps=1)


@pytest.mark.parametrize("kind, grid, pde, ic, error", [
    ("heat", Shape(1, (8,), 1), GridPde(dx=0.1, dt=0.1, alpha=0.1), _BUMP, RankError),
    ("burgers", Shape(1, (8, 8, 8), 2), GridPde(dx=0.1, dt=0.1, nu=0.01), _BUMP, RankError),
    ("burgers", Shape(1, (8, 8), 2), GridPde(dx=0.1, dt=0.1, nu=0.01, boundary="insulated"),
     _BUMP, UnsupportedBoundary),
    ("advection", Shape(1, (8,), 1), GridPde(dx=0.1, dt=0.1, c=(1.0,), boundary="insulated"),
     _BUMP, UnsupportedBoundary),
    ("heat", Shape(1, (8, 8), 1), GridPde(dx=0.1, dt=0.1, alpha=0.1),
     InitialCondition("bumps"), DomainError),
    ("advection", Shape(1, (8,), 1), GridPde(dx=0.1, dt=0.1), _BUMP, DomainError),
    ("advection", Shape(1, (8,), 1), GridPde(dx=0.1, dt=0.1, c=(1.0,)),
     InitialCondition("harmonics", bandwidth=0.4, base_freq=0.5), DomainError),
])
def test_generate_refuses_unsupported_requests_without_steps(kind, grid, pde, ic, error):
    # no stepper runs at n_steps=0, so each is refused before any frame is built
    with pytest.raises(error):
        generate_dataset(kind, grid, pde, ic, 0, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_generate_refuses_a_seed_a_file_cannot_hold(seed):
    # refused before the bumps are drawn, which numpy refuses for -1 with a ValueError
    with pytest.raises(DomainError, match="^seed: "):
        generate_dataset("heat", Shape(1, (8, 8), 1), GridPde(dx=0.1, dt=0.1, alpha=0.1),
                         _BUMP, 0, seed)


_IC_VALUES = {"sine": ("freq", 1.0), "bumps": ("n_bumps", 1), "harmonics": ("bandwidth", 1.0)}


def test_config_accepts_exactly_what_generation_accepts():
    refused = accepted = 0
    for kind, rank, channels, boundary, ic_kind, with_parameter, with_c in itertools.product(
        ("advection", "burgers", "heat"), (1, 2, 3), (1, 2), BOUNDARIES, _IC_VALUES,
        (True, False), (True, False),
    ):
        name, value = _IC_VALUES[ic_kind]
        ic = {"kind": ic_kind, **({name: value} if with_parameter else {})}
        c = [0.25] * rank if with_c else None
        raw = {"kind": kind, "extents": [4] * rank, "channels": channels, "dx": 0.25,
               "dt": 0.1, "c": c, "nu": 0.01, "alpha": 0.01,
               "boundary": boundary, "ic": ic, "n_steps": 1}
        config_field = generate_field = None
        try:
            DatasetConfig.parse(raw).check_ic()
        except ConfigError as exc:
            config_field = str(exc).split(":")[0]
        pde = GridPde(dx=0.25, dt=0.1, c=c, nu=0.01, alpha=0.01, boundary=boundary)
        try:
            generate_dataset(kind, Shape(1, (4,) * rank, channels), pde,
                             InitialCondition(**ic), 1, 0)
        except WindecError as exc:
            generate_field = str(exc).split(":")[0]
        generated = generate_field is None
        # both refuse by the same rule, so they name the same field first
        assert config_field == (None if generated else f"dataset.{generate_field}"), raw
        accepted += generated
        refused += not generated
    # with c: advection 3 ranks x 2 channels, burgers 1, heat 2 ranks x 3 boundaries;
    # without c: burgers and heat only; x 3 ICs
    assert accepted == (6 + 1 + 6) * 3 + (1 + 6) * 3
    assert refused == 648 - accepted
