"""The three frozen benchmark workloads, driven through ``windec.cli.main``.

Each workload turns a seed into configs (and, where the workload reads a
dataset, a ``.ddld``) during set-up, runs one pass of CLI calls, parses the
CSVs the pass wrote, and checks them with rules that hold for any seed.
The program only ever sees the generated config files and datasets.

The module imports ``windec`` lazily through :func:`windec_modules`, so the
runner can decide which source tree it comes from before anything loads it.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# field agreement required of the independent eval oracle, as in c04
FIELD_TOL = 1e-12


def windec_modules():
    import windec
    import windec.cli

    return windec, windec.cli


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def _read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _cli(argv: list[str]) -> None:
    # looked up on every call, so the tracer's wrapper is used when installed
    _, cli = windec_modules()
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"windec {argv[0]} exited with code {rc}")


def _split_pairs(n_pairs: int, fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Train/test frame pairs as the CLI documents them: seeded shuffle, floor split."""
    perm = np.random.default_rng(seed).permutation(n_pairs)
    k = int(math.floor(n_pairs * fraction))
    return sorted(int(i) for i in perm[:k]), sorted(int(i) for i in perm[k:])


class Workload:
    """One frozen workload; ``seed`` sets the generated inputs."""

    name = ""
    default_seed = 0
    cells_per_pass = 0

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> None:
        raise NotImplementedError

    def collect(self) -> dict:
        """Parse what the last pass wrote into plain Python values."""
        raise NotImplementedError

    def test_rel_l2(self, out: dict) -> float:
        raise NotImplementedError

    def check(self, out: dict) -> list[str]:
        """Failed output checks of one pass, as messages; empty when all hold."""
        raise NotImplementedError

    def perturb(self, out: dict) -> dict:
        """A copy of ``out`` with one value changed so that a check must fail."""
        raise NotImplementedError


class Sweep1d(Workload):
    """``windec sweep`` on the c08 config: 5 windows x 4 frequencies, 1-D."""

    name = "sweep-1d"
    default_seed = 7
    windows = (3, 5, 17, 33, 61)
    freqs = (0.5, 1.0, 2.0, 4.0)
    points_per_unit = 64
    # batch 4 x 1024 cells x 4 test frames, per (window, frequency) cell
    cells_per_pass = 4 * 1024 * 4 * len(windows) * len(freqs)

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.out = self.work / "sweep"
        self.config = self.work / "sweep.json"
        _write_json(self.config, {
            "dataset": {
                "kind": "advection", "batch": 4, "extents": [1024], "channels": 1,
                "dx": 1 / 64, "dt": 1 / 16, "c": [1.5],
                "ic": {"kind": "harmonics", "bandwidth": 4.0, "base_freq": 0.5,
                       "envelope_sigma": 3.0},
                "n_steps": 8, "seed": self.seed,
            },
            "window": "auto",
            "predictor": {"kind": "stencil", "ridge_lambda": 1e-8, "sample_budget": 4096},
            "split_fraction": 0.5,
            "seed": 0,
            "out_dir": str(self.out),
        })

    def run_pass(self) -> None:
        _cli(["sweep", "--config", str(self.config), "--out", str(self.out),
              "--windows", ",".join(str(w) for w in self.windows),
              "--freqs", ",".join(str(f) for f in self.freqs)])

    def collect(self) -> dict:
        table = {}
        for row in _read_rows(self.out / "sweep.csv"):
            table[(int(row["window"]), float(row["frequency"]))] = (
                float(row["r2"]), float(row["rel_l2"]))
        return {"table": table}

    def test_rel_l2(self, out: dict) -> float:
        return float(np.mean([rel for _, rel in out["table"].values()]))

    def check(self, out: dict) -> list[str]:
        table = out["table"]
        want = {(w, f) for w in self.windows for f in self.freqs}
        if set(table) != want:
            return [f"sweep.csv covers {sorted(table)}, expected {sorted(want)}"]
        r2 = {k: v[0] for k, v in table.items()}
        failures = []
        for f in self.freqs:
            bound = math.ceil((self.points_per_unit + 1) / (2.0 * f))
            for w in self.windows:
                if w >= bound and not r2[(w, f)] >= 0.99:
                    failures.append(f"r2 {r2[(w, f)]:.6f} < 0.99 at window {w}, freq {f}")
        top = max(self.freqs)
        gap = r2[(max(self.windows), top)] - r2[(3, top)]
        if not gap >= 0.05:
            failures.append(f"window {max(self.windows)} leads window 3 by {gap:.4f} < 0.05 "
                            f"at freq {top}")
        if r2[(3, top)] != min(r2[(3, f)] for f in self.freqs):
            failures.append("window 3 does not degrade most at the highest frequency")
        return failures

    def perturb(self, out: dict) -> dict:
        table = dict(out["table"])
        key = (max(self.windows), max(self.freqs))
        table[key] = (0.98, table[key][1])
        return {"table": table}


class Eval2dW17(Workload):
    """``windec eval --data`` on the README config scaled to 4 x 256^2."""

    name = "eval-2d-w17"
    default_seed = 3
    n = 256
    window = (17, 17)
    experiment_seed = 1
    ridge_lambda = 1e-8
    sample_budget = 4096
    # batch 4 x 256^2 cells x 4 frames (2 train + 2 test)
    cells_per_pass = 4 * 256 * 256 * 4

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        self.out = self.work / "eval"
        self.config = self.work / "eval.json"
        self.data = self.work / "dataset.ddld"
        dx = 1 / self.n
        _write_json(self.config, {
            "dataset": {
                "kind": "advection", "batch": 4, "extents": [self.n, self.n],
                "channels": 1, "dx": dx, "dt": 1.0, "c": [dx, 0.0],
                "ic": {"kind": "bumps", "n_bumps": 3},
                "n_steps": 4, "seed": self.seed,
            },
            "window": list(self.window),
            "predictor": {"kind": "stencil", "ridge_lambda": self.ridge_lambda,
                          "sample_budget": self.sample_budget},
            "split_fraction": 0.5,
            "seed": self.experiment_seed,
            "out_dir": str(self.out),
        })
        _cli(["gen", "--config", str(self.config), "--out", str(self.work)])
        self._oracle = None

    def run_pass(self) -> None:
        _cli(["eval", "--config", str(self.config), "--data", str(self.data),
              "--out", str(self.out)])

    def collect(self) -> dict:
        return {part: {int(r["frame"]): (float(r["rel_l2"]), float(r["paper_l2"]),
                                         float(r["r2"]))
                       for r in _read_rows(self.out / f"metrics_{part}.csv")}
                for part in ("train", "test")}

    def test_rel_l2(self, out: dict) -> float:
        return float(np.mean([m[0] for m in out["test"].values()]))

    def oracle(self) -> dict:
        """Per-frame metrics and their tolerances from a direct sliding-window matmul.

        The stencil is fitted again with the eval's own arguments (the fit is
        deterministic), then applied to every cell at once by one zero-padded
        window gather per tile of rows, independent of the offset sweep.
        """
        if self._oracle is None:
            windec, _ = windec_modules()
            ds = windec.read_dataset(self.data)
            train, test = _split_pairs(ds.n_steps, 0.5, self.experiment_seed)
            stencil = windec.fit_stencil(
                ds, windec.WindowSpec(self.window), ridge_lambda=self.ridge_lambda,
                sample_budget=self.sample_budget, seed=self.experiment_seed,
                pair_indices=train)
            self._oracle = {
                part: {t: _metrics_with_tolerance(
                    *_direct_stencil(ds.frames[t].data, stencil.weights, stencil.bias,
                                     self.window),
                    ds.frames[t + 1].data, n_terms=stencil.weights.shape[0] + 1)
                    for t in pairs}
                for part, pairs in (("train", train), ("test", test))}
        return self._oracle

    def check(self, out: dict) -> list[str]:
        failures = []
        for part, want in self.oracle().items():
            got = out[part]
            if set(got) != set(want):
                failures.append(f"metrics_{part}.csv frames {sorted(got)} != {sorted(want)}")
                continue
            for t, (values, tols) in want.items():
                for name, g, v, tol in zip(("rel_l2", "paper_l2", "r2"), got[t], values, tols):
                    if not abs(g - v) <= tol:
                        failures.append(f"{part} frame {t} {name}: csv {g!r} vs oracle {v!r} "
                                        f"(tolerance {tol:.3g})")
        return failures

    def perturb(self, out: dict) -> dict:
        test = dict(out["test"])
        t = min(test)
        rel, paper, r2 = test[t]
        test[t] = (rel * (1 + 1e-6), paper, r2)
        return {"train": out["train"], "test": test}


def _direct_stencil(frame: np.ndarray, weights: np.ndarray, bias: np.ndarray,
                    window: tuple[int, int], rows: int = 16):
    """Apply a learned window stencil to every cell of ``(B, H, W, C)`` directly.

    Features are the zero-padded window around each cell, row-major with
    channels fastest; rows are gathered in tiles to bound memory.  Returns the
    prediction and, per cell, ``sum |w x| + |bias|``, which scales the
    rounding error of any order of summing the same products.
    """
    b, h, w, c = frame.shape
    ry, rx = ((k - 1) // 2 for k in window)
    padded = np.pad(frame, ((0, 0), (ry, ry), (rx, rx), (0, 0)))
    view = np.lib.stride_tricks.sliding_window_view(padded, window, axis=(1, 2))
    out = np.empty_like(frame)
    scale = np.empty_like(frame)
    for bi in range(b):
        for y0 in range(0, h, rows):
            tile = np.moveaxis(view[bi, y0:y0 + rows], 2, -1)  # (rows, W, wy, wx, C)
            feats = tile.reshape(tile.shape[0] * w, -1)
            shape = (tile.shape[0], w, c)
            out[bi, y0:y0 + rows] = (feats @ weights + bias).reshape(shape)
            scale[bi, y0:y0 + rows] = (np.abs(feats) @ np.abs(weights)
                                       + np.abs(bias)).reshape(shape)
    return out, scale


def _metrics_with_tolerance(pred: np.ndarray, scale: np.ndarray, truth: np.ndarray,
                            n_terms: int):
    """(rel_l2, paper_l2, r2) of ``pred``, and how far each may move when the
    prediction is computed in another summation order.

    Two correct evaluations of a cell's ``n_terms``-term sum differ by at most
    2 * gamma_n * scale (the standard forward error bound of a sum), and never
    by more than FIELD_TOL; each metric's tolerance follows from that per-cell
    bound, plus rounding of the metric's own sums.
    """
    p, t = pred.ravel(), truth.ravel()
    eps = np.finfo(np.float64).eps / 2
    gamma = n_terms * eps / (1 - n_terms * eps)
    dp = np.minimum(2 * gamma * scale.ravel(), FIELD_TOL)
    err = p - t
    t_norm = float(np.linalg.norm(t))
    nz = t != 0.0
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    ss_res = float(np.sum(err * err))
    values = (float(np.linalg.norm(err)) / t_norm,
              float(np.sum(np.abs(err[nz]) / np.abs(t[nz]))),
              1.0 - ss_res / ss_tot)
    dp_norm = float(np.linalg.norm(dp))
    rounding = 1e-12
    tols = (dp_norm / t_norm + rounding * values[0],
            float(np.sum(dp[nz] / np.abs(t[nz]))) + rounding * values[1],
            (2.0 * math.sqrt(ss_res) * dp_norm + dp_norm**2) / ss_tot + rounding)
    return values, tols


class LocalVsGlobal2d(Workload):
    """The c09 experiment through the CLI: gen, then a 5x5 stencil and the
    whole-frame baseline, each evaluated by ``eval --data``."""

    name = "local-vs-global-2d"
    default_seed = 9
    # batch 4 x 48^2 cells x 8 frames (4 train + 4 test) x 2 models
    cells_per_pass = 4 * 48 * 48 * 8 * 2

    def setup(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)
        dx = 1 / 48
        base = {
            "dataset": {
                "kind": "advection", "batch": 4, "extents": [48, 48], "channels": 1,
                "dx": dx, "dt": 1.0, "c": [dx, 0.0],
                "ic": {"kind": "bumps", "n_bumps": 3,
                       "width_fraction_range": [0.03, 0.06], "center_margin": 0.3},
                "n_steps": 8, "seed": self.seed,
            },
            "window": [5, 5],
            "split_fraction": 0.5,
            "seed": 9,
        }
        self.configs = {}
        for model, kind in (("local", "stencil"), ("global", "global")):
            path = self.work / f"{model}.json"
            _write_json(path, {**base, "out_dir": str(self.work / model),
                               "predictor": {"kind": kind, "ridge_lambda": 1e-8,
                                             "sample_budget": 2048}})
            self.configs[model] = path
        self.data = self.work / "dataset.ddld"

    def run_pass(self) -> None:
        _cli(["gen", "--config", str(self.configs["local"]), "--out", str(self.work)])
        for model, path in self.configs.items():
            _cli(["eval", "--config", str(path), "--data", str(self.data),
                  "--out", str(self.work / model)])

    def collect(self) -> dict:
        return {model: [float(r["rel_l2"])
                        for r in _read_rows(self.work / model / "metrics_test.csv")]
                for model in self.configs}

    def test_rel_l2(self, out: dict) -> float:
        return float(np.mean(out["local"]))

    def check(self, out: dict) -> list[str]:
        if not out["local"] or len(out["local"]) != len(out["global"]):
            return [f"test frame counts differ: {len(out['local'])} vs {len(out['global'])}"]
        local, glob = float(np.mean(out["local"])), float(np.mean(out["global"]))
        if not local <= 0.5 * glob:
            return [f"local rel_l2 {local:.4g} > 0.5 x global {glob:.4g}"]
        return []

    def perturb(self, out: dict) -> dict:
        return {"local": list(out["global"]), "global": out["global"]}


WORKLOADS = {w.name: w for w in (Sweep1d, Eval2dW17, LocalVsGlobal2d)}
