#!/usr/bin/env python3
"""Local window stencil vs whole-frame linear baseline on transport data.

Both models get the same training sample budget and a 50/50 frame-pair
split.  The window stencil sees only a 5x5 neighborhood per prediction and
recovers the transport rule; the global baseline must fit a whole-frame map
from a handful of frame pairs and generalizes far worse.  Runs ``windec gen``
once, then ``windec eval --data`` for each model, and writes
<out>/local_vs_global.csv from the two test-frame metric files.
"""

import argparse
import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path

from windec.cli import main as windec_main

MODELS = {"local": "stencil", "global": "global"}


def _config(kind: str, budget: int, seed: int, out_dir: Path) -> dict:
    dx = 1 / 48
    return {
        "dataset": {
            "kind": "advection", "batch": 4, "extents": [48, 48], "channels": 1,
            "dx": dx, "dt": 1.0, "c": [dx, 0.0],
            "ic": {"kind": "bumps", "n_bumps": 3,
                   "width_fraction_range": [0.03, 0.06], "center_margin": 0.3},
            "n_steps": 8, "seed": seed,
        },
        "window": [5, 5],
        "predictor": {"kind": kind, "ridge_lambda": 1e-8, "sample_budget": budget},
        "split_fraction": 0.5,
        "seed": seed,
        "out_dir": str(out_dir),
    }


def _test_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run(out_dir: str, budget: int, seed: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        configs = {}
        for model, kind in MODELS.items():
            configs[model] = work / f"{model}.json"
            configs[model].write_text(json.dumps(_config(kind, budget, seed, work / model)),
                                      encoding="utf-8")
        data = work / "dataset.ddld"
        commands = [["gen", "--config", str(configs["local"]), "--out", str(work)]]
        commands += [["eval", "--config", str(path), "--data", str(data)]
                     for path in configs.values()]
        for argv in commands:
            status = windec_main(argv)
            if status:
                return status
        rows = {model: _test_rows(work / model / "metrics_test.csv") for model in MODELS}

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "local_vs_global.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("frame,local_rel_l2,local_r2,global_rel_l2,global_r2\n")
        for local, whole in zip(rows["local"], rows["global"]):
            values = (int(local["frame"]), float(local["rel_l2"]), float(local["r2"]),
                      float(whole["rel_l2"]), float(whole["r2"]))
            fh.write(",".join(format(v, ".12g") for v in values) + "\n")

    mean_local = statistics.fmean(float(r["rel_l2"]) for r in rows["local"])
    mean_global = statistics.fmean(float(r["rel_l2"]) for r in rows["global"])
    print(f"sample budget {budget}, {len(rows['local'])} test pairs")
    print(f"local  stencil: mean test rel_l2 {mean_local:.3e}")
    print(f"global linear : mean test rel_l2 {mean_global:.3e}")
    print(f"ratio local/global: {mean_local / mean_global:.3e}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--budget", type=int, default=2048, help="samples per model")
    parser.add_argument("--seed", type=int, default=9)
    args = parser.parse_args()
    sys.exit(run(args.out, args.budget, args.seed))
