import argparse
import csv
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import windec
from windec import (
    BatchTensor,
    Dataset,
    GridPde,
    InitialCondition,
    Shape,
    read_dataset,
    sin_field,
    write_dataset,
)
from windec import StabilityError, cli, generators
from windec.cli import build_parser, main
from windec.config import DatasetConfig, ExperimentConfig, PredictorConfig, load_config


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = {
        "dataset": {
            "kind": "advection",
            "batch": 2,
            "extents": [24, 24],
            "channels": 1,
            "dx": 1 / 24,
            "dt": 1.0,
            "c": [1 / 24, 0.0],
            "ic": {"kind": "bumps", "n_bumps": 2,
                   "width_fraction_range": [0.04, 0.08], "center_margin": 0.3},
            "n_steps": 6,
            "seed": 3,
        },
        "window": [3, 3],
        "predictor": {"kind": "upwind"},
        "split_fraction": 0.5,
        "seed": 1,
        "out_dir": str(tmp_path / "out"),
    }
    if overrides:
        deep_update(cfg, overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def deep_update(base, overrides):
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            deep_update(base[key], value)
        else:
            base[key] = value


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- gen ---------------------------------------------------------------------


def test_gen_writes_dataset_and_is_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"dataset": {"ic": {"kind": "sine", "freq": 2.0}}})
    assert main(["gen", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "kind=advection" in out and "frames=7" in out
    first = (tmp_path / "out" / "dataset.ddld").read_bytes()

    ds = read_dataset(tmp_path / "out" / "dataset.ddld")
    expected0 = sin_field(2.0, Shape(2, (24, 24), 1), 1 / 24)
    assert ds.frames[0].equals(expected0)

    assert main(["gen", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "dataset.ddld").read_bytes() == first


# one gen case per stepper and boundary: (dataset overrides, the stepper's name
# in windec.generators); frames of 2 x 128^2 values, 256 KiB
GEN_CASES = {
    "advection": ({"extents": [128, 128], "dx": 1 / 128, "c": [1 / 128, 0.0]}, "advect_exact"),
    **{f"heat-{b}": ({"kind": "heat", "extents": [128, 128], "dx": 1 / 128, "dt": 1e-6,
                      "c": None, "alpha": 1.0, "boundary": b}, "heat_step")
       for b in ("periodic", "zero-extension", "insulated")},
    "burgers": ({"kind": "burgers", "batch": 1, "extents": [128, 128], "channels": 2,
                 "dx": 1 / 128, "dt": 1e-3, "c": None, "nu": 1e-3}, "burgers_step"),
}


def gen_config(tmp_path, case, n_steps, name="config.json"):
    return write_config(tmp_path, {"dataset": {**GEN_CASES[case][0], "n_steps": n_steps}},
                        name=name)


def traced_peak(call) -> int:
    call()  # once untraced, so that one-time set-up (imports, caches) is not counted
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("case", GEN_CASES)
def test_gen_holds_two_frames_whatever_the_step_count(tmp_path, case, capsys):
    # gen writes each frame as it is stepped: it holds u^0 or the frame being
    # stepped and the new one, as a one-step dataset does, never the sequence
    frame = 2 * 128 * 128 * 8
    dc = load_config(gen_config(tmp_path, case, 1)).dataset
    one_step = traced_peak(lambda: cli._generate(dc))
    peaks = {}
    for n_steps in (2, 12):
        cfg = gen_config(tmp_path, case, n_steps, name=f"{n_steps}.json")
        peaks[n_steps] = traced_peak(lambda: main(["gen", "--config", str(cfg)]))
    capsys.readouterr()
    assert abs(peaks[12] - peaks[2]) < 0.5 * frame, peaks
    # a third frame of slack above the two frames and the scratch of one step
    assert max(peaks.values()) < one_step + frame, (one_step, peaks)


@pytest.mark.parametrize("case", GEN_CASES)
def test_gen_writes_what_write_dataset_writes(tmp_path, case, capsys):
    cfg = gen_config(tmp_path, case, 5)
    assert main(["gen", "--config", str(cfg)]) == 0
    capsys.readouterr()
    want = tmp_path / "want.ddld"
    write_dataset(want, cli._generate(load_config(cfg).dataset))
    assert (tmp_path / "out" / "dataset.ddld").read_bytes() == want.read_bytes()


@pytest.mark.parametrize("case", GEN_CASES)
def test_gen_stepper_failing_partway_leaves_the_old_file(tmp_path, monkeypatch, case, capsys):
    assert main(["gen", "--config", str(gen_config(tmp_path, case, 2, name="old.json"))]) == 0
    old = (tmp_path / "out" / "dataset.ddld").read_bytes()
    stepper = getattr(generators, GEN_CASES[case][1])
    calls = []

    def failing(*args):
        calls.append(None)
        if len(calls) == 3:
            raise StabilityError("step failed")
        return stepper(*args)

    monkeypatch.setattr(generators, GEN_CASES[case][1], failing)
    assert main(["gen", "--config", str(gen_config(tmp_path, case, 5))]) == 2
    assert "step failed" in capsys.readouterr().err
    assert len(calls) == 3
    assert (tmp_path / "out" / "dataset.ddld").read_bytes() == old
    assert os.listdir(tmp_path / "out") == ["dataset.ddld"]  # no temporary file left


# --- eval --------------------------------------------------------------------


def test_gen_burgers_horizon_frame_count(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dataset": {"kind": "burgers", "extents": [16, 16], "channels": 2,
                    "dx": 1 / 16, "dt": 0.1, "c": None, "nu": 0.01,
                    "n_steps": 100},
    })
    assert main(["gen", "--config", str(cfg)]) == 0
    assert "frames=101" in capsys.readouterr().out


def test_eval_identity_on_static_dataset_r2_one(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"kind": "heat", "alpha": 0.0, "c": None,
                    "boundary": "insulated"},
        "predictor": {"kind": "identity"},
    })
    assert main(["eval", "--config", str(cfg)]) == 0
    for split in ("train", "test"):
        rows = read_csv(tmp_path / "out" / f"metrics_{split}.csv")
        assert rows, split
        assert all(float(r["r2"]) == 1.0 for r in rows)
        assert all(float(r["rel_l2"]) == 0.0 for r in rows)


def test_eval_diffusion_stencil_reproduces_one_heat_substep(tmp_path):
    # alpha dt / dx^2 = 0.2048 <= 1/4 is one explicit sub-step, whose 3x3
    # stencil over a zero-extended tile is the generator's own update
    cfg = write_config(tmp_path, {
        "dataset": {"kind": "heat", "extents": [32, 32], "dx": 1 / 32, "dt": 2e-4,
                    "alpha": 1.0, "c": None, "boundary": "zero-extension"},
        "predictor": {"kind": "diffusion"},
    })
    assert main(["eval", "--config", str(cfg)]) == 0
    for split in ("train", "test"):
        rows = read_csv(tmp_path / "out" / f"metrics_{split}.csv")
        assert rows, split
        assert all(float(r["rel_l2"]) <= 1e-12 for r in rows), rows


def test_eval_upwind_integer_courant_near_exact(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"extents": [128, 128], "dx": 1 / 128, "c": [1 / 128, 1 / 128],
                    "ic": {"width_fraction_range": [0.02, 0.04], "center_margin": 0.4}},
    })
    assert main(["eval", "--config", str(cfg)]) == 0
    rows = read_csv(tmp_path / "out" / "metrics_test.csv")
    assert all(float(r["rel_l2"]) <= 1e-10 for r in rows)


def test_eval_learned_stencil_high_r2_and_run_record(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"extents": [64, 64], "dx": 1 / 64, "c": [1 / 64, 0.0],
                    "n_steps": 8,
                    "ic": {"width_fraction_range": [0.03, 0.06], "center_margin": 0.35}},
        "window": [11, 11],
        "predictor": {"kind": "stencil", "sample_budget": 4096},
    })
    assert main(["eval", "--config", str(cfg)]) == 0
    rows = read_csv(tmp_path / "out" / "metrics_test.csv")
    assert all(float(r["r2"]) >= 0.999 for r in rows)
    record = json.loads((tmp_path / "out" / "run.json").read_text())
    assert record["window"] == [11, 11]
    assert record["seed"] == 1
    timings = record["timings"]
    assert set(timings) == {"dataset", "fit", "evaluate", "predict", "metrics"}
    assert all(v >= 0.0 for v in timings.values())
    # predict and metrics are the parts of evaluate spent in each
    assert timings["predict"] + timings["metrics"] <= timings["evaluate"]
    assert [r["frame"] for r in record["test"]] == [int(r["frame"]) for r in rows]


def test_eval_rerun_reproduces_metrics_bit_exactly(tmp_path):
    cfg = write_config(tmp_path, {"predictor": {"kind": "stencil"}})
    assert main(["eval", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "metrics_test.csv").read_text()
    assert main(["eval", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "metrics_test.csv").read_text() == first


def test_eval_auto_window_and_data_file(tmp_path):
    cfg = write_config(tmp_path, {"window": "auto"})
    assert main(["gen", "--config", str(cfg)]) == 0
    data = tmp_path / "out" / "dataset.ddld"
    assert main(["eval", "--config", str(cfg), "--data", str(data)]) == 0
    record = json.loads((tmp_path / "out" / "run.json").read_text())
    w = record["window"]
    assert len(w) == 2 and all(v >= 3 and v % 2 == 1 for v in w)


@pytest.mark.parametrize("case", ["advection", "burgers"])
def test_auto_window_on_a_file_reads_frame_0_once(tmp_path, monkeypatch, case, capsys):
    # the probe line and, for burgers, the largest speed come from one read
    # of frame 0 into the dataset's buffer
    cfg = gen_config(tmp_path, case, 3)
    assert main(["gen", "--config", str(cfg)]) == 0
    capsys.readouterr()
    ds = read_dataset(tmp_path / "out" / "dataset.ddld")
    reads = []
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv", lambda fd, buffers, offset: reads.append(offset)
                        or preadv(fd, buffers, offset))
    report = cli._sizing_report(ds)
    assert len(reads) == 1
    assert report == cli._sizing_report(cli._generate(load_config(cfg).dataset))


def test_eval_data_peak_does_not_grow_with_the_frame_count(tmp_path):
    # eval --data walks the file two frames at a time: a 12-frame file of
    # one grid takes what a 4-frame file takes, within one frame
    peaks = {}
    for n_steps in (3, 11):
        work = tmp_path / str(n_steps)
        work.mkdir()
        cfg = write_config(work, {
            "dataset": {"extents": [128, 128], "dx": 1 / 128, "c": [1 / 128, 0.0],
                        "n_steps": n_steps},
            "window": [5, 5], "predictor": {"kind": "stencil", "sample_budget": 512}})
        assert main(["gen", "--config", str(cfg)]) == 0
        data = work / "out" / "dataset.ddld"
        # once untraced, so that one-time set-up (imports, caches) is not counted
        assert main(["eval", "--config", str(cfg), "--data", str(data)]) == 0
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert main(["eval", "--config", str(cfg), "--data", str(data)]) == 0
            peaks[n_steps] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    frame = 2 * 128 * 128 * 8
    assert abs(peaks[11] - peaks[3]) < frame, peaks


def test_eval_auto_window_on_external_dataset_is_config_error(tmp_path, capsys):
    # an external dataset carries no physics to size a window from
    frames = [BatchTensor(np.full((1, 16, 16, 1), float(t))) for t in range(3)]
    data = tmp_path / "external.ddld"
    write_dataset(data, Dataset("external", frames, GridPde(dx=1 / 16, dt=1.0), seed=0))
    cfg = write_config(tmp_path, {"window": "auto"})
    assert main(["eval", "--config", str(cfg), "--data", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: window: ") and "explicit window sizes" in err
    assert not (tmp_path / "out").exists()


def test_eval_run_record_counts_zero_truth_cells(tmp_path):
    # paper_l2 skips cells whose truth is exactly 0; run.json says how many
    rng = np.random.default_rng(8)
    frames = [rng.standard_normal((2, 16, 16, 1)) for _ in range(5)]
    for t, f in enumerate(frames):
        f.flat[:3 * t] = 0.0
    data = tmp_path / "external.ddld"
    write_dataset(data, Dataset("external", [BatchTensor(f) for f in frames],
                                GridPde(dx=1 / 16, dt=1.0), seed=0))
    cfg = write_config(tmp_path, {"window": [3, 3], "predictor": {"kind": "identity"}})
    assert main(["eval", "--config", str(cfg), "--data", str(data)]) == 0
    record = json.loads((tmp_path / "out" / "run.json").read_text())
    rows = record["train"] + record["test"]
    assert sorted(r["frame"] for r in rows) == [0, 1, 2, 3]
    assert all(r["excluded"] == 3 * (r["frame"] + 1) for r in rows)
    for part in ("train", "test"):
        header = (tmp_path / "out" / f"metrics_{part}.csv").read_text().splitlines()[0]
        assert header == "frame,rel_l2,paper_l2,r2"


def test_eval_global_baseline_runs(tmp_path):
    cfg = write_config(tmp_path, {"predictor": {"kind": "global", "sample_budget": 64}})
    assert main(["eval", "--config", str(cfg)]) == 0
    record = json.loads((tmp_path / "out" / "run.json").read_text())
    assert record["window"] is None


# --- sweep -------------------------------------------------------------------


def test_sweep_emits_unique_grid(tmp_path):
    cfg = write_config(tmp_path, {
        "dataset": {"extents": [128], "dx": 1 / 16, "c": [1 / 16], "batch": 2,
                    "n_steps": 4,
                    "ic": {"kind": "harmonics", "bandwidth": 1.0,
                           "envelope_sigma": 2.0}},
        "window": "auto",
        "predictor": {"kind": "stencil", "sample_budget": 512},
    })
    assert main(["sweep", "--config", str(cfg),
                 "--windows", "3,5,3", "--freqs", "0.5,1"]) == 0
    rows = read_csv(tmp_path / "out" / "sweep.csv")
    cells = [(r["window"], r["frequency"]) for r in rows]
    assert len(cells) == len(set(cells)) == 4
    assert all(set(r) == {"window", "frequency", "r2", "rel_l2"} for r in rows)


def test_sweep_accepts_ic_without_its_parameter(tmp_path):
    # sweep sets the frequency itself, so the config's sine needs no freq
    cfg = write_config(tmp_path, {
        "dataset": {"extents": [64], "dx": 1 / 16, "c": [1 / 16], "n_steps": 4,
                    "ic": {"kind": "sine"}},
        "predictor": {"kind": "stencil", "sample_budget": 256},
    })
    assert main(["sweep", "--config", str(cfg), "--windows", "3,5", "--freqs", "1,2"]) == 0
    assert len(read_csv(tmp_path / "out" / "sweep.csv")) == 4


def test_sweep_needs_two_by_two(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["sweep", "--config", str(cfg), "--windows", "3", "--freqs", "1,2"]) == 1


@pytest.mark.parametrize("freq", ["0", "-1", "nan", "inf", "1e400",
                                  pytest.param("1" + "0" * 400, id="10**400")])
def test_sweep_refuses_a_frequency_before_generating(tmp_path, capsys, monkeypatch, freq):
    # checked as the config checks ic.freq, before any dataset is generated
    def generate(*args):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(cli, "generate_dataset", generate)
    cfg = write_config(tmp_path)
    argv = ["sweep", "--config", str(cfg), "--windows", "3,5", f"--freqs={freq},1"]
    assert main(argv) == 1
    assert "config error: --freqs[0]: must be " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_checks_every_frequency_before_generating(tmp_path, capsys, monkeypatch):
    # a harmonics bandwidth below base_freq holds no octave: an all-zero field
    def generate(*args):
        raise AssertionError("a dataset was generated")

    monkeypatch.setattr(cli, "generate_dataset", generate)
    cfg = write_config(tmp_path, {
        "dataset": {"extents": [64], "dx": 1 / 16, "c": [1 / 16],
                    "ic": {"kind": "harmonics", "base_freq": 0.5}},
    })
    argv = ["sweep", "--config", str(cfg), "--windows", "3,5", "--freqs", "1,0.1"]
    assert main(argv) == 1
    assert "config error: --freqs[1]: ic.bandwidth: 0.1 " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- bench -------------------------------------------------------------------


def test_bench_writes_csv_and_slope(tmp_path, capsys):
    assert main(["bench", "--blocks", "4,8,16,32", "--reps", "2",
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "log-log slope=" in out
    rows = read_csv(tmp_path / "bench.csv")
    assert [int(r["b_max"]) for r in rows] == [4, 8, 16, 32]
    assert all(float(r["median_seconds"]) > 0 for r in rows)


def test_bench_rejects_bad_blocks(tmp_path, capsys):
    assert main(["bench", "--blocks", "8,4,16,32", "--out", str(tmp_path)]) == 1
    assert main(["bench", "--blocks", "4,8,16", "--out", str(tmp_path)]) == 1
    out = tmp_path / "bench"
    for blocks in ("8.5,16,32,64", "0,1,2,3"):
        assert main(["bench", "--blocks", blocks, "--reps", "1", "--out", str(out)]) == 1
        assert "config error: --blocks" in capsys.readouterr().err
        assert not out.exists()


def test_bench_refuses_an_input_beyond_the_value_cap_before_timing(tmp_path, capsys,
                                                                  monkeypatch):
    calls = []
    chunk = cli.chunk_domain

    def chunk_domain(*args):
        calls.append(args[1])
        return chunk(*args)

    monkeypatch.setattr(cli, "chunk_domain", chunk_domain)
    out = tmp_path / "bench"
    argv = ["bench", "--reps", "1", "--out", str(out), "--blocks"]
    assert main([*argv, "8,16,32,100000000000000000000"]) == 1
    assert "config error: --blocks/--bench-window: " in capsys.readouterr().err
    assert calls == [] and not out.exists()
    # the largest input is batch x W*b_max x W*fixed_blocks values: at the cap it runs
    monkeypatch.setattr(cli, "MAX_DATASET_VALUES",
                        cli.BENCH_BATCH * 3 * 32 * 3 * cli.BENCH_FIXED_BLOCKS)
    assert main([*argv, "4,8,16,33"]) == 1
    assert calls == [] and not out.exists()
    assert main([*argv, "4,8,16,32"]) == 0
    assert calls == [(4, 8), (4, 8), (8, 8), (8, 8), (16, 8), (16, 8), (32, 8), (32, 8)]


def test_bench_times_each_repetition_and_reports_the_median(monkeypatch):
    import windec.cli as cli

    chunk = cli.chunk_domain
    blocks = [1, 2, 3]
    for repetitions in (1, 4, 5):
        # scripted per-repetition seconds, exact in binary so medians compare with ==
        durations = {b: [(7 * b + 3 * j) % 11 / 64 + 1 / 8 for j in range(repetitions)]
                     for b in blocks}
        ticks, events = [], []
        for i, d in enumerate(d for b in blocks for d in durations[b]):
            ticks += [float(i), i + d]
        clock = iter(ticks)

        def perf_counter():
            events.append("tick")
            return next(clock)

        def chunk_domain(*args):
            events.append("chunk")
            return chunk(*args)

        monkeypatch.setattr(cli.time, "perf_counter", perf_counter)
        monkeypatch.setattr(cli, "chunk_domain", chunk_domain)
        got = cli.bench_roundtrip(blocks, repetitions)
        assert got == [(b, statistics.median(durations[b])) for b in blocks]
        # per b_max: one untimed warm-up round trip, then one clocked round trip
        # per repetition
        assert events == (["chunk"] + ["tick", "chunk", "tick"] * repetitions) * len(blocks)


# --- probe -------------------------------------------------------------------


def test_probe_pass_lines(capsys):
    assert main(["probe", "--radius", "1", "--layers", "1"]) == 0
    assert "measured=[3, 3] predicted=3 PASS" in capsys.readouterr().out
    assert main(["probe", "--radius", "1", "--layers", "4"]) == 0
    assert "predicted=9 PASS" in capsys.readouterr().out
    assert main(["probe", "--radius", "2", "--layers", "3"]) == 0
    assert "predicted=13 PASS" in capsys.readouterr().out


def test_probe_domain_too_small_is_runtime_error(capsys):
    assert main(["probe", "--radius", "2", "--layers", "3", "--extent", "5"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["--radius", "0", "--layers", "1"], "--radius"),
    (["--radius", "-2", "--layers", "1"], "--radius"),
    (["--radius", "1", "--layers", "0"], "--layers"),
    (["--radius", "1", "--layers", "1", "--extent", "0"], "--extent"),
    (["--radius", "1", "--layers", "1", "--extent", "-5"], "--extent"),
])
def test_probe_values_below_one_are_config_errors(capsys, argv, flag):
    assert main(["probe", *argv]) == 1
    captured = capsys.readouterr()
    assert f"config error: {flag}: must be >= 1" in captured.err
    assert "PASS" not in captured.out


# each footprint is tens of PiB, so an unchecked np.zeros fails at once
@pytest.mark.parametrize("argv", [
    ["--radius", "1", "--layers", "100000", "--ndim", "3"],
    ["--radius", "1", "--layers", "1", "--extent", "100000000", "--ndim", "2"],
])
def test_probe_oversized_footprint_is_config_error(capsys, argv):
    assert main(["probe", *argv]) == 1
    assert "config error: --radius/--layers/--extent: " in capsys.readouterr().err


# --- sizing ------------------------------------------------------------------


def test_sizing_reports_key_value_block(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["sizing", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("l_c=")
    assert "recommended_cells=" in out
    assert (tmp_path / "out" / "sizing.txt").read_text() == out


@pytest.mark.parametrize("dataset, l_c", [
    ({}, lambda v: v == 1 / 24),  # advection: |c| dt
    ({"kind": "heat", "c": None, "alpha": 0.0016}, lambda v: v == math.sqrt(0.0016)),
    # burgers: the larger of u_max dt and sqrt(nu dt)
    ({"kind": "burgers", "channels": 2, "c": None, "nu": 0.01}, lambda v: v >= 0.1),
])
def test_sizing_uses_each_kinds_characteristic_length(tmp_path, capsys, dataset, l_c):
    assert main(["sizing", "--config", str(write_config(tmp_path, {"dataset": dataset}))]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("l_c=") and l_c(float(first[4:]))


# --- config and exit codes -----------------------------------------------------


def test_config_errors_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err

    unknown = write_config(tmp_path, {"dataset": {"wavelength": 2}}, name="unknown.json")
    assert main(["gen", "--config", str(unknown)]) == 1
    err = capsys.readouterr().err
    assert "dataset" in err and "wavelength" in err

    negative = write_config(tmp_path, {"dataset": {"nu": -1}}, name="negative.json")
    assert main(["gen", "--config", str(negative)]) == 1
    assert "config error: dataset.nu" in capsys.readouterr().err

    # Python's json reads NaN and Infinity; 10**400 is past the float range
    for field, value in (("dx", float("nan")), ("alpha", float("inf")), ("dt", 10**400)):
        path = write_config(tmp_path, {"dataset": {field: value}}, name="nonfinite.json")
        assert main(["gen", "--config", str(path)]) == 1
        assert f"config error: dataset.{field}" in capsys.readouterr().err

    # json.loads refuses integer literals past Python's int-string limit
    text = write_config(tmp_path).read_text()
    assert text.count('"seed": 1,') == 1
    huge = tmp_path / "huge.json"
    huge.write_text(text.replace('"seed": 1,', '"seed": ' + "9" * 5001 + ","))
    assert main(["gen", "--config", str(huge)]) == 1
    assert f"config error: {huge}: " in capsys.readouterr().err

    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert main(["gen", "--config", str(deep)]) == 1
    assert f"config error: {deep}: " in capsys.readouterr().err

    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(text.replace('"bumps"', '"b\u00fcmps"').encode("latin-1"))
    assert main(["gen", "--config", str(latin1)]) == 1
    assert "config error: cannot read config" in capsys.readouterr().err

    assert main(["gen"]) == 1
    assert "required: --config" in capsys.readouterr().err
    assert main(["nonsense"]) == 1


def test_minimal_config_parses_to_dataclass_defaults(tmp_path):
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps({"dataset": {"kind": "advection", "extents": [8], "dx": 0.125,
                                            "dt": 0.1, "c": [0.5]}}))
    cfg = load_config(path)
    assert cfg == ExperimentConfig(DatasetConfig("advection", (8,), 0.125, 0.1, c=(0.5,)))
    # the defaults themselves
    assert (cfg.window, cfg.split_fraction, cfg.seed, cfg.out_dir) == ("auto", 0.5, 0, "results")
    assert cfg.predictor == PredictorConfig("stencil", 1e-8, 4096)
    ds = cfg.dataset
    assert (ds.batch, ds.channels, ds.nu, ds.alpha, ds.boundary, ds.n_steps, ds.seed) == (
        1, 1, 0.0, 0.0, "periodic", 10, 0)
    assert ds.ic == InitialCondition("sine", base_freq=0.5, width_fraction_range=(0.05, 0.15),
                                     center_margin=0.15)


_TOO_MANY_VALUES = ("dataset.batch * dataset.extents * dataset.channels * "
                    "(dataset.n_steps + 1)")


@pytest.mark.parametrize("dataset, field", [
    ({"ic": {"kind": "sine"}}, "dataset.ic.freq"),
    ({"ic": {"kind": "bumps"}}, "dataset.ic.n_bumps"),
    ({"ic": {"kind": "harmonics"}}, "dataset.ic.bandwidth"),
    # no octave of base_freq fits under the bandwidth, so the field is all zeros
    ({"ic": {"kind": "harmonics", "bandwidth": 0.1, "base_freq": 0.5}}, "dataset.ic.bandwidth"),
    ({"kind": "heat", "extents": [24], "c": None, "alpha": 0.1}, "dataset.extents"),
    ({"kind": "heat", "channels": 2, "c": None, "alpha": 0.1}, "dataset.channels"),
    ({"kind": "burgers", "channels": 1, "c": None, "nu": 0.01}, "dataset.channels"),
    ({"kind": "burgers", "extents": [24], "channels": 2, "c": None, "nu": 0.01},
     "dataset.extents"),
    ({"kind": "burgers", "extents": [8, 8, 8], "channels": 2, "c": None, "nu": 0.01},
     "dataset.extents"),
    # 10**19 items overflow the index range; 2e6 steps of 2x24^2 frames (9 KB
    # each) overflow only across frames.  Both fail before anything is allocated.
    ({"batch": 10**19}, _TOO_MANY_VALUES),
    ({"n_steps": 2_000_000}, _TOO_MANY_VALUES),
    # a rank, boundary or initial-condition kind that generators.GENERATED refuses
    ({"extents": [4, 4, 4, 4], "c": [0.1] * 4}, "dataset.extents"),
    ({"boundary": "insulated"}, "dataset.boundary"),
    ({"boundary": "zero-extension"}, "dataset.boundary"),
    ({"kind": "burgers", "channels": 2, "c": None, "nu": 0.01, "boundary": "insulated"},
     "dataset.boundary"),
    ({"kind": "heat", "c": None, "alpha": 0.1, "boundary": "reflecting"}, "dataset.boundary"),
    ({"ic": {"kind": ["sine"], "freq": 1.0}}, "dataset.ic.kind"),
    # advection without transport speeds, in 2-D and on a 1-D sine
    ({"c": None}, "dataset.c"),
    ({"extents": [24], "c": None, "ic": {"kind": "sine", "freq": 1.0}}, "dataset.c"),
])
def test_ungeneratable_dataset_is_config_error(tmp_path, capsys, dataset, field):
    path = write_config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg["dataset"].update(dataset)
    path.write_text(json.dumps(cfg))
    for command in ("gen", "eval", "sizing"):
        assert main([command, "--config", str(path)]) == 1
        assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, field", [
    (["eval", "--seed", "-1"], "seed"),
    (["eval", "--window", "4,4"], "window[0]"),
    (["sweep", "--windows", "3.7,5", "--freqs", "1,2"], "--windows[0]"),
    (["eval", "--window", "5"], "window: rank 1"),
    (["eval", "--window", ""], "--window: empty list"),
])
def test_bad_flag_overrides_are_config_errors(tmp_path, capsys, argv, field):
    cfg = write_config(tmp_path)
    assert main([*argv, "--config", str(cfg)]) == 1
    assert f"config error: {field}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("out_dir", [None, 5, ["out"]])
def test_non_string_out_dir_is_config_error(tmp_path, capsys, monkeypatch, out_dir):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, {"out_dir": out_dir})
    for command in ("gen", "eval", "sizing"):
        assert main([command, "--config", str(cfg)]) == 1
        assert "config error: out_dir: expected a string" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


_CONFIG_COMMANDS = [["gen"], ["eval"], ["sizing"], ["sweep", "--windows", "3,5", "--freqs", "1,2"]]


@pytest.mark.parametrize("argv, out_dir, field", [
    *[([*argv, "--out", ""], "out", "argument --out") for argv in _CONFIG_COMMANDS],
    *[(argv, "", "out_dir") for argv in _CONFIG_COMMANDS],
    (["bench", "--blocks", "4,8,16,32", "--reps", "1", "--out", ""], None, "argument --out"),
])
def test_empty_output_path_is_config_error(tmp_path, capsys, monkeypatch, argv, out_dir, field):
    monkeypatch.chdir(tmp_path)
    if out_dir is not None:
        argv = [*argv, "--config", str(write_config(tmp_path, {"out_dir": out_dir}))]
    assert main(argv) == 1
    assert f"config error: {field}: must not be empty" in capsys.readouterr().err
    # nothing but the config file: no output directory was created
    assert [p.name for p in tmp_path.iterdir()] == ([] if out_dir is None else ["config.json"])


@pytest.mark.parametrize("argv, flag", [
    *[([*argv, "--config", ""], "--config") for argv in _CONFIG_COMMANDS],
    (["eval", "--data", ""], "--data"),
])
def test_empty_input_path_is_config_error(tmp_path, capsys, monkeypatch, argv, flag):
    # an empty --data used to fall through to generating the config's dataset
    monkeypatch.chdir(tmp_path)
    if flag != "--config":
        argv = [*argv, "--config", str(write_config(tmp_path, {"out_dir": "out"}))]
    assert main(argv) == 1
    assert f"config error: argument {flag}: must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("c, dt, dx", [(0.1, 0.1, 0.01), (-0.1, 0.1, 0.01), (-0.1, 0.7, 0.07)])
def test_eval_upwind_courant_a_rounding_step_from_one_runs_at_window_three(tmp_path, c, dt, dx):
    # |c| dt / dx is 1 +- 2.2e-16: a one-cell shift, which a window of 3 holds
    metrics = {}
    for size in (3, 5):
        cfg = write_config(tmp_path, {
            "dataset": {"extents": [100], "dx": dx, "dt": dt, "c": [c],
                        "ic": {"kind": "sine", "freq": 2.0}},
            "window": [size], "out_dir": str(tmp_path / f"w{size}"),
        })
        assert main(["eval", "--config", str(cfg)]) == 0
        metrics[size] = (tmp_path / f"w{size}" / "metrics_test.csv").read_bytes()
    assert metrics[3] == metrics[5]


# a fitted predictor needs at least one training pair: floor(n_pairs * split_fraction)
@pytest.mark.parametrize("argv, kind, n_steps, split", [
    (["eval"], "global", 1, 0.5),
    (["eval"], "stencil", 1, 0.5),
    (["eval"], "stencil", 3, 0.2),
    (["sweep", "--windows", "3,5", "--freqs", "1,2"], "stencil", 3, 0.2),
])
def test_split_without_training_pairs_is_config_error(tmp_path, capsys, argv, kind,
                                                      n_steps, split):
    cfg = write_config(tmp_path, {"dataset": {"n_steps": n_steps},
                                  "predictor": {"kind": kind, "sample_budget": 64},
                                  "split_fraction": split})
    assert main([*argv, "--config", str(cfg)]) == 1
    assert "config error: split_fraction: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["eval"], ["sweep", "--windows", "3,5", "--freqs", "1,2"]])
@pytest.mark.parametrize("budget", [10**12, 10**20])
def test_oversized_sample_budget_is_config_error(tmp_path, capsys, argv, budget):
    cfg = write_config(tmp_path, {"predictor": {"kind": "stencil", "sample_budget": budget}})
    assert main([*argv, "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "config error: predictor.sample_budget: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", ["2", "0"])
def test_bench_rejects_bad_window_before_timing(tmp_path, capsys, size):
    out = tmp_path / "bench"
    assert main(["bench", "--blocks", "4,8,16,32", "--reps", "1",
                 "--bench-window", size, "--out", str(out)]) == 1
    assert "config error: --bench-window" in capsys.readouterr().err
    assert not (out / "bench.csv").exists()


def test_runtime_errors_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dataset": {"c": [1.0, 0.0]},  # courant 24 cells, window radius 1
        "predictor": {"kind": "upwind"},
    })
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_oversized_window_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"window": [51, 51]})  # grid is only 24x24
    assert main(["eval", "--config", str(cfg)]) == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_flag_overrides_win_over_config(tmp_path):
    cfg = write_config(tmp_path, {"predictor": {"kind": "stencil"}})
    assert main(["eval", "--config", str(cfg), "--seed", "9",
                 "--window", "5,5"]) == 0
    record = json.loads((tmp_path / "out" / "run.json").read_text())
    assert record["seed"] == 9
    assert record["window"] == [5, 5]


# --- parser surface --------------------------------------------------------------

_FLAGS = {
    "gen": {"--config", "--out"},
    "sizing": {"--config", "--out"},
    "eval": {"--config", "--out", "--seed", "--window", "--data"},
    "sweep": {"--config", "--out", "--seed", "--windows", "--freqs"},
    "bench": {"--out", "--blocks", "--reps", "--bench-window"},
    "probe": {"--radius", "--layers", "--extent", "--ndim"},
}


@pytest.mark.parametrize("command", [None, *_FLAGS])
def test_each_command_declares_only_the_flags_it_reads(command):
    sub = next(a for a in build_parser(command)._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert declared == (_FLAGS if command is None else {command: _FLAGS[command]})


def test_a_command_builds_only_its_own_parser(tmp_path, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def spy(self, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", spy)
    assert main(["eval", "--config", str(write_config(tmp_path))]) == 0
    assert built == ["windec", "windec eval"]


def test_unknown_command_lists_every_command(capsys):
    assert main(["nope"]) == 1
    err = capsys.readouterr().err
    assert "config error: argument command: invalid choice: 'nope'" in err
    listed = err.split("(choose from", 1)[1]
    assert all(name in listed for name in _FLAGS)


def test_entry_point_help_lists_commands_and_flags():
    env = {**os.environ, "PYTHONPATH": str(Path(windec.__file__).resolve().parents[1])}

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "windec", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    choices = re.search(r"\{([a-z,]+)\}", run("--help")).group(1)
    assert sorted(choices.split(",")) == sorted(_FLAGS)
    eval_help = run("eval", "--help")
    assert all(flag in eval_help for flag in _FLAGS["eval"])


@pytest.mark.parametrize("command, flag, value", [
    ("gen", "--seed", "2"),
    ("gen", "--window", "3,3"),
    ("sizing", "--seed", "2"),
    ("sizing", "--window", "3,3"),
    ("sweep", "--window", "3,3"),
    ("bench", "--config", "CONFIG"),
    ("bench", "--seed", "2"),
    ("bench", "--window", "3"),
    ("probe", "--config", "CONFIG"),
    ("probe", "--seed", "2"),
    ("probe", "--out", "OUT"),
    ("probe", "--window", "3"),
])
def test_undeclared_flag_is_config_error(tmp_path, capsys, command, flag, value):
    cfg, out = str(write_config(tmp_path)), str(tmp_path / "out")
    kept = {
        "gen": ["--config", cfg],
        "sizing": ["--config", cfg],
        "sweep": ["--config", cfg, "--windows", "3,5", "--freqs", "1,2"],
        "bench": ["--out", out, "--blocks", "4,8,16,32", "--reps", "1"],
        "probe": ["--radius", "1", "--layers", "1"],
    }[command]
    value = {"CONFIG": cfg, "OUT": out}.get(value, value)
    assert main([command, *kept, flag, value]) == 1
    assert f"config error: unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_abbreviated_flag_is_config_error(tmp_path, capsys):
    # an abbreviation is not the flag: sweep must not read "--window" as "--windows"
    out = tmp_path / "out"
    assert main(["bench", "--out", str(out), "--blocks", "4,8,16,32", "--rep", "1"]) == 1
    assert "config error: unrecognized arguments: --rep 1" in capsys.readouterr().err
    assert not out.exists()


# each numeric flag, the arguments that keep the rest of its call valid, and
# the flag's value around the bad one ("{}"): a list flag gets it first
_NUMERIC_FLAGS = [
    ("eval", "--seed", "{}", ["--config", "CONFIG"]),
    ("eval", "--window", "{},3", ["--config", "CONFIG"]),
    ("sweep", "--seed", "{}", ["--config", "CONFIG", "--windows", "3,5", "--freqs", "1,2"]),
    ("sweep", "--windows", "{},5", ["--config", "CONFIG", "--freqs", "1,2"]),
    ("sweep", "--freqs", "{},1", ["--config", "CONFIG", "--windows", "3,5"]),
    ("bench", "--blocks", "{},8,16,32", ["--out", "OUT", "--reps", "1"]),
    ("bench", "--reps", "{}", ["--out", "OUT", "--blocks", "4,8,16,32"]),
    ("bench", "--bench-window", "{}", ["--out", "OUT", "--blocks", "4,8,16,32", "--reps", "1"]),
    ("probe", "--radius", "{}", ["--layers", "1"]),
    ("probe", "--layers", "{}", ["--radius", "1"]),
    ("probe", "--extent", "{}", ["--radius", "1", "--layers", "1"]),
    ("probe", "--ndim", "{}", ["--radius", "1", "--layers", "1"]),
]


@pytest.mark.parametrize("command, flag, template, kept", _NUMERIC_FLAGS,
                         ids=[f"{c}{f}" for c, f, _, _ in _NUMERIC_FLAGS])
def test_numeric_flags_refuse_values_that_are_not_finite_or_in_range(tmp_path, capsys, command,
                                                                       flag, template, kept):
    # 0 is a valid seed; every other value here is a config error before anything runs
    names = {"CONFIG": str(write_config(tmp_path)), "OUT": str(tmp_path / "out")}
    kept = [names.get(a, a) for a in kept]
    for value in ("nan", "inf", "1e400", *(("0",) if flag != "--seed" else ())):
        assert main([command, *kept, flag, template.format(value)]) == 1, value
        err = capsys.readouterr().err
        assert re.search(r"^config error: ", err, re.MULTILINE), (value, err)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_the_numeric_flag_table_names_every_numeric_flag():
    numeric = {(c, f) for c, f, _, _ in _NUMERIC_FLAGS}
    for command, flags in _FLAGS.items():
        for flag in flags - {"--config", "--out", "--data"}:
            assert (command, flag) in numeric
