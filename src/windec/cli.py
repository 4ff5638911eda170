"""Command-line front end: generate, evaluate, sweep, bench, probe, sizing.

Each subcommand declares only the flags it reads::

    gen, sizing   --config --out
    eval          --config --out --seed --window --data
    sweep         --config --out --seed --windows --freqs
    bench         --out --blocks --reps --bench-window
    probe         --radius --layers --extent --ndim

``--config`` names a JSON config (see :mod:`windec.config`) and is required
wherever it is declared; ``--seed`` and ``--window`` replace the config's
top-level fields before it is parsed.  A flag that a subcommand does not
declare, or an abbreviation of one, is a configuration error.  A call
builds the root parser and only the parser of the command it names, since
building all six costs about a millisecond per call; ``--help``, an empty
argument list and an unknown command build all six, so that their usage
and "invalid choice" messages list every command.  The
config-driven commands are deterministic given (config, seed) except for
wall clock timings.  Exit codes: 0 success, 1 configuration error, 2
runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from . import __version__
from .config import (
    MAX_DATASET_VALUES,
    DatasetConfig,
    ExperimentConfig,
    _number,
    load_config,
    parse_number_list,
    window_size,
)
from .errors import ConfigError, DomainError, WindecError, WindowTooLarge
from .generators import (
    GENERATED,
    MAX_SEED,
    Dataset,
    GridPde,
    InitialCondition,
    check_ic,
    generate_dataset,
    read_dataset,
    write_generated,
)
from .models import (
    DiffusionStencil,
    IdentityPredictor,
    MetricsRecord,
    MetricSums,
    UpwindStencil,
    fit_global_linear,
    fit_stencil,
)
from .sizing import SizingReport, recommend_window
from .tensor import BatchTensor, Shape
from .decomposition import chunk_domain, receptive_field_probe, window_patch
from .windowing import WindowSpec, _predicted_tiles

# A frame's prediction as ``(tile, centers)`` parts: ``centers`` predicts the
# cells ``frame.data[tile]``, and is valid until the next part is drawn.
Predict = Callable[[BatchTensor], Iterable[tuple[tuple, np.ndarray]]]


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _write_csv(path: Path, header: str, rows) -> None:
    """One line per row; floats in round-trip precision, anything else as ``str``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _request(dc: DatasetConfig) -> tuple:
    """``(kind, grid, pde, ic, n_steps, seed)``: what :func:`generate_dataset` takes."""
    dc.check_ic()
    pde = GridPde(dx=dc.dx, dt=dc.dt, c=dc.c, nu=dc.nu, alpha=dc.alpha, boundary=dc.boundary)
    return dc.kind, Shape(dc.batch, dc.extents, dc.channels), pde, dc.ic, dc.n_steps, dc.seed


def _generate(dc: DatasetConfig) -> Dataset:
    return generate_dataset(*_request(dc))


def _check_frame_pairs(dc: DatasetConfig) -> None:
    """``eval`` and ``sweep`` score frame pairs, so a dataset they generate needs two frames."""
    if dc.n_steps < 1:
        raise ConfigError(f"dataset.n_steps: evaluation needs at least 1 frame pair, "
                          f"got {dc.n_steps}")


def _split_pairs(n_pairs: int, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Seeded shuffle of frame-pair indices, first part for training."""
    perm = np.random.default_rng(seed).permutation(n_pairs)
    k = int(math.floor(n_pairs * fraction))
    return sorted(int(i) for i in perm[:k]), sorted(int(i) for i in perm[k:])


def _sizing_report(ds: Dataset) -> SizingReport:
    """The window recommendation for ``ds``, probing frame 0 along its first
    spatial axis; frame 0 is read once."""
    frame = ds.frame(0)
    u_max = float(np.max(np.abs(frame))) if ds.kind == "burgers" else None
    probe = frame[(0, slice(None), *(0,) * (ds.grid.ndim - 1), 0)]
    return recommend_window(
        ds.pde, kind=GENERATED[ds.kind].char_length, probe=probe, u_max=u_max
    )


def _resolve_window(cfg: ExperimentConfig, ds: Dataset) -> WindowSpec:
    if isinstance(cfg.window, tuple):
        if len(cfg.window) != ds.grid.ndim:
            raise ConfigError(
                f"window: rank {len(cfg.window)} does not match grid rank {ds.grid.ndim}"
            )
        return WindowSpec(cfg.window)
    if ds.kind not in GENERATED:
        raise ConfigError(f'window: "auto" cannot size a window for dataset kind {ds.kind!r}; '
                          "give explicit window sizes")
    return WindowSpec.cube(_sizing_report(ds).recommended_cells, ds.grid.ndim)


def _build_predictor(kind: str, cfg: ExperimentConfig, ds: Dataset, w: WindowSpec | None,
                     train_pairs: list[int]) -> Predict:
    """Tile-by-tile prediction of a frame by predictor ``kind``; it looks its callee
    up at each call.  The global baseline predicts the whole frame as one tile."""
    fit = dict(ridge_lambda=cfg.predictor.ridge_lambda, sample_budget=cfg.predictor.sample_budget,
               seed=cfg.seed, pair_indices=train_pairs)
    if kind == "identity":
        local = IdentityPredictor(ds.grid.ndim)
    elif kind == "upwind":
        local = UpwindStencil(ds.pde, w)
    elif kind == "diffusion":
        local = DiffusionStencil(ds.pde, w)
    elif not train_pairs:
        raise ConfigError(f"split_fraction: {cfg.split_fraction} of {ds.n_steps} frame pairs "
                          f"leaves no training pair to fit predictor.kind {kind!r}")
    elif kind == "stencil":
        # the fit gathers prod(W) * N_c values per budgeted window, and holds
        # them all when the budget is below prod(W) * N_c
        features = w.cells * ds.grid.channels
        if cfg.predictor.sample_budget * features > MAX_DATASET_VALUES:
            raise ConfigError(f"predictor.sample_budget: {cfg.predictor.sample_budget} samples of "
                              f"{features} values exceed {MAX_DATASET_VALUES} values")
        local = fit_stencil(ds, w, **fit)
    else:
        model = fit_global_linear(ds, **fit)
        return lambda frame: [((), model.predict_frame(frame).data)]
    return lambda frame: _predicted_tiles(frame, w, local)


def _evaluate_pairs(ds: Dataset, pairs: list[int], predict: Predict,
                    timings: dict[str, float]) -> list[tuple[int, MetricsRecord, int]]:
    """``(frame, metrics, zero-truth cells)`` of each pair; adds prediction and
    metric seconds to ``timings``.

    The pairs come from one :meth:`Dataset.pairs` walk, which reads each
    frame of a file once when ``pairs`` is sorted and holds two at a time.
    Each tile is scored against the truth under it as soon as it is
    predicted, so no predicted frame and no frame of differences is held.
    """
    rows = []
    elapsed = scoring = 0.0
    for t, now, truth in ds.pairs(pairs):
        t0 = time.perf_counter()
        sums = MetricSums.of(truth)
        scoring += time.perf_counter() - t0
        for tile, centers in predict(BatchTensor(now)):
            t1 = time.perf_counter()
            sums.add(centers, truth[tile])
            scoring += time.perf_counter() - t1
        t1 = time.perf_counter()
        rows.append((t, sums.record(), sums.excluded))
        scoring += time.perf_counter() - t1
        elapsed += time.perf_counter() - t0
    timings["predict"] = timings.get("predict", 0.0) + (elapsed - scoring)
    timings["metrics"] = timings.get("metrics", 0.0) + scoring
    return rows


def _out_dir(args, default: str) -> Path:
    """Create and return ``--out`` if it was given, else ``default``."""
    out = Path(args.out if args.out is not None else default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _nonempty(text: str) -> str:
    """argparse type of path flags: an empty path is refused before anything runs."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def _distinct(text: str, flag: str, check) -> list:
    """The distinct values of a comma-separated list flag, in order, each
    returned by ``check(value, "flag[i]")``, which raises a ConfigError."""
    values = parse_number_list(text, flag)
    return list(dict.fromkeys(check(v, f"{flag}[{i}]") for i, v in enumerate(values)))


def _check_window_fits(w: WindowSpec, grid: Shape) -> None:
    # prediction zero-extends each tile by the window radius, so any size
    # would run, but a window more than twice the grid extent is almost
    # certainly a config slip
    for wi, n in zip(w.sizes, grid.spatial):
        if wi > 2 * n + 1:
            raise WindowTooLarge(f"window {wi} exceeds twice the grid extent {n}")


# --- commands ---------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _load_effective_config(args)
    kind, g, pde, _, n_steps, seed = request = _request(cfg.dataset)
    out = _out_dir(args, cfg.out_dir)
    path = out / "dataset.ddld"
    # each frame goes to the file as it is stepped; none is kept
    write_generated(path, *request)
    print(f"wrote {path}")
    print(f"kind={kind} batch={g.batch} extents={list(g.spatial)} "
          f"channels={g.channels} frames={n_steps + 1}")
    print(f"dt={pde.dt!r} dx={pde.dx!r} c={pde.c} nu={pde.nu!r} "
          f"alpha={pde.alpha!r} boundary={pde.boundary} seed={seed}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_effective_config(args)
    if not args.data:
        _check_frame_pairs(cfg.dataset)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    ds = read_dataset(args.data) if args.data else _generate(cfg.dataset)
    timings["dataset"] = time.perf_counter() - t0
    if ds.n_steps < 1:
        raise DomainError(f"{args.data}: evaluation needs at least 2 frames, "
                          f"got {ds.n_steps + 1}")

    train_pairs, test_pairs = _split_pairs(ds.n_steps, cfg.split_fraction, cfg.seed)
    w = None
    if cfg.predictor.kind != "global":
        w = _resolve_window(cfg, ds)
        _check_window_fits(w, ds.grid)

    t0 = time.perf_counter()
    predict = _build_predictor(cfg.predictor.kind, cfg, ds, w, train_pairs)
    timings["fit"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    # one sorted walk over both parts reads each frame once
    scored = _evaluate_pairs(ds, sorted(train_pairs + test_pairs), predict, timings)
    timings["evaluate"] = time.perf_counter() - t0
    train = set(train_pairs)
    train_rows = [row for row in scored if row[0] in train]
    test_rows = [row for row in scored if row[0] not in train]

    out = _out_dir(args, cfg.out_dir)
    for name, rows in (("train", train_rows), ("test", test_rows)):
        _write_csv(out / f"metrics_{name}.csv", "frame,rel_l2,paper_l2,r2",
                   [(t, m.rel_l2, m.paper_l2, m.r2) for t, m, _ in rows])
    record = {
        "tool_version": __version__,
        "seed": cfg.seed,
        "config": cfg.snapshot(),
        "window": list(w.sizes) if w is not None else None,
        "train": [{"frame": t, **asdict(m), "excluded": n} for t, m, n in train_rows],
        "test": [{"frame": t, **asdict(m), "excluded": n} for t, m, n in test_rows],
        "timings": timings,
    }
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    mean_rel = statistics.fmean(m.rel_l2 for _, m, _ in test_rows) if test_rows else float("nan")
    mean_r2 = statistics.fmean(m.r2 for _, m, _ in test_rows) if test_rows else float("nan")
    print(f"window={list(w.sizes) if w else None} predictor={cfg.predictor.kind}")
    print(f"test mean rel_l2={_fmt(mean_rel)} mean r2={_fmt(mean_r2)}")
    print(f"wrote {out / 'metrics_train.csv'}, {out / 'metrics_test.csv'}, {out / 'run.json'}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_effective_config(args)
    if cfg.dataset.kind != "advection":
        raise ConfigError(f"dataset.kind: sweep needs advection, got {cfg.dataset.kind!r}")
    _check_frame_pairs(cfg.dataset)
    base = cfg.dataset

    def freq_ic(value, where: str) -> tuple[float, InitialCondition]:
        freq = _number(value, where, positive=True)
        if base.ic.kind == "harmonics":
            ic = InitialCondition("harmonics", bandwidth=freq, base_freq=base.ic.base_freq,
                                  envelope_sigma=base.ic.envelope_sigma)
        else:
            ic = InitialCondition("sine", freq=freq)
        try:
            check_ic(ic)
        except WindecError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        return freq, ic

    windows = _distinct(args.windows, "--windows", window_size)
    # every frequency's initial condition is checked before the first is generated
    freqs = _distinct(args.freqs, "--freqs", freq_ic)
    if len(windows) < 2 or len(freqs) < 2:
        raise ConfigError("sweep needs at least 2 windows and 2 frequencies")

    d = len(base.extents)
    rows = []
    for fi, (freq, ic) in enumerate(freqs):
        # seeds wrap at 2**64, so every dataset.seed the config accepts runs
        ds = _generate(replace(base, ic=ic, seed=(base.seed + 1000 * fi) % (MAX_SEED + 1)))
        train_pairs, test_pairs = _split_pairs(ds.n_steps, cfg.split_fraction, cfg.seed)
        for wcells in windows:
            w = WindowSpec.cube(wcells, d)
            stencil = _build_predictor("stencil", cfg, ds, w, train_pairs)
            test_rows = _evaluate_pairs(ds, test_pairs, stencil, {})
            rows.append((
                wcells, freq,
                statistics.fmean(m.r2 for _, m, _ in test_rows),
                statistics.fmean(m.rel_l2 for _, m, _ in test_rows),
            ))
            print(f"window={wcells} freq={freq}: r2={rows[-1][2]:.6f} "
                  f"rel_l2={rows[-1][3]:.3e}")
    out = _out_dir(args, cfg.out_dir)
    path = out / "sweep.csv"
    _write_csv(path, "window,frequency,r2,rel_l2", rows)
    print(f"wrote {path}")
    return 0


# bench inputs: BENCH_BATCH frames of seeded normals, b_max blocks of W cells
# along the first axis and BENCH_FIXED_BLOCKS along the second, so that block
# movement dominates per-call overhead and cost isolates b_max
BENCH_BATCH = 16
BENCH_FIXED_BLOCKS = 8


def bench_roundtrip(block_counts: list[int], repetitions: int,
                    window: int = 3) -> list[tuple[int, float]]:
    """Median chunk+patch seconds for each largest-block count b_max."""
    rng = np.random.default_rng(0)
    results = []
    for b_max in block_counts:
        blocks = (b_max, BENCH_FIXED_BLOCKS)
        extents = (window * b_max, window * BENCH_FIXED_BLOCKS)
        x = BatchTensor(rng.standard_normal((BENCH_BATCH, *extents, 1)))
        window_patch(chunk_domain(x, blocks), BENCH_BATCH, blocks)  # warmup
        times = []
        for _ in range(repetitions):
            t0 = time.perf_counter()
            chunked = chunk_domain(x, blocks)
            window_patch(chunked, BENCH_BATCH, blocks)
            times.append(time.perf_counter() - t0)
        results.append((b_max, statistics.median(times)))
    return results


def loglog_slope(points: list[tuple[int, float]]) -> float:
    xs = np.log([float(b) for b, _ in points])
    ys = np.log([t for _, t in points])
    return float(np.polyfit(xs, ys, 1)[0])


def cmd_bench(args) -> int:
    blocks = parse_number_list(args.blocks, "--blocks")
    if not all(isinstance(b, int) and b >= 1 for b in blocks):
        raise ConfigError(f"--blocks: expected positive integers, got {args.blocks!r}")
    if len(blocks) < 4:
        raise ConfigError("--blocks: need at least 4 points")
    if blocks != sorted(blocks):
        raise ConfigError("--blocks: list must be sorted ascending")
    if args.reps < 1:
        raise ConfigError("--reps: must be >= 1")
    window = window_size(args.bench_window, "--bench-window")
    # refuse before the first point is timed, as probe refuses its grid
    largest = BENCH_BATCH * window * blocks[-1] * window * BENCH_FIXED_BLOCKS
    if largest > MAX_DATASET_VALUES:
        raise ConfigError(f"--blocks/--bench-window: the input at b_max={blocks[-1]} holds "
                          f"{largest} values, more than {MAX_DATASET_VALUES}")
    results = bench_roundtrip(blocks, args.reps, window=window)
    out = _out_dir(args, "results")
    path = out / "bench.csv"
    _write_csv(path, "b_max,median_seconds,repetitions",
               [(b_max, seconds, args.reps) for b_max, seconds in results])
    slope = loglog_slope(results)
    for b_max, seconds in results:
        print(f"b_max={b_max}: {seconds * 1e3:.3f} ms")
    print(f"log-log slope={slope:.3f}")
    print(f"wrote {path}")
    return 0


def cmd_probe(args) -> int:
    for flag, value in (("--radius", args.radius), ("--layers", args.layers),
                        ("--extent", args.extent)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag}: must be >= 1, got {value}")
    extent = args.extent if args.extent is not None else 2 * args.radius * args.layers + 3
    # refuse before np.zeros tries to allocate it; an extent too small for the
    # footprint is left to receptive_field_probe's runtime error
    if extent ** args.ndim > MAX_DATASET_VALUES:
        raise ConfigError(f"--radius/--layers/--extent: a {args.ndim}-D probe of extent "
                          f"{extent} holds more than {MAX_DATASET_VALUES} values")
    widths = receptive_field_probe(args.radius, args.layers, extent, ndim=args.ndim)
    predicted = 2 * args.radius * args.layers + 1
    ok = all(w == predicted for w in widths)
    print(f"radius={args.radius} layers={args.layers} measured={list(widths)} "
          f"predicted={predicted} {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_sizing(args) -> int:
    cfg = _load_effective_config(args)
    text = _sizing_report(_generate(replace(cfg.dataset, n_steps=0))).as_text()
    out = _out_dir(args, cfg.out_dir)
    sys.stdout.write(text)
    (out / "sizing.txt").write_text(text, encoding="utf-8")
    return 0


# --- argument plumbing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # exact flags only: with abbreviations sweep would read "--window" as "--windows"
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse would exit(2); config errors are exit 1
        raise ConfigError(message)


def _load_effective_config(args) -> ExperimentConfig:
    """Load ``--config`` with the ``--seed``/``--window`` overrides the command declares."""
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "window", None) is not None:
        overrides["window"] = parse_number_list(args.window, "--window")
    return load_config(args.config, overrides)


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=_nonempty, required=True,
                   help="path to a JSON experiment config")
    p.add_argument("--out", type=_nonempty, help="output directory (default: config out_dir)")


def _add_eval(p: argparse.ArgumentParser) -> None:
    _add_config(p)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--window", default=None,
                   help="override window sizes, comma separated (e.g. 5,5)")
    p.add_argument("--data", type=_nonempty, default=None,
                   help="read this .ddld instead of generating")


def _add_sweep(p: argparse.ArgumentParser) -> None:
    _add_config(p)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--windows", required=True, help="comma-separated window cell counts")
    p.add_argument("--freqs", required=True, help="comma-separated frequencies")


def _add_bench(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", type=_nonempty, help="output directory (default: results)")
    p.add_argument("--blocks", default="8,16,32,64,128,256",
                   help="comma-separated b_max values, ascending")
    p.add_argument("--reps", type=int, default=5, help="repetitions per point")
    p.add_argument("--bench-window", type=int, default=3, help="window cells per dim")


def _add_probe(p: argparse.ArgumentParser) -> None:
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--layers", type=int, required=True)
    p.add_argument("--extent", type=int, default=None)
    p.add_argument("--ndim", type=int, default=2, choices=(1, 2, 3))


# name -> (help, flag adder, handler), in the order --help lists them
_COMMANDS = {
    "gen": ("generate a dataset and write it to disk", _add_config, cmd_gen),
    "eval": ("fit/evaluate a predictor on a dataset", _add_eval, cmd_eval),
    "sweep": ("grid of test r2 over window sizes and frequencies", _add_sweep, cmd_sweep),
    "bench": ("time chunk+patch while scaling block count", _add_bench, cmd_bench),
    "probe": ("measure a composed stencil receptive field", _add_probe, cmd_probe),
    "sizing": ("report a recommended window size", _add_config, cmd_sizing),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The root parser with every subcommand, or with only ``command``'s."""
    parser = _Parser(prog="windec",
                     description="Window decomposition pipeline for grid PDE data")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_flags, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_flags(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named command needs only its own parser; --help, no argument and an
    # unknown command get all six, so usage and "invalid choice" list them
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WindecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
