#!/usr/bin/env python3
"""Window-size vs solution-frequency sweep on band-limited transport data.

Learns one linear stencil per (window, frequency) cell on 1D advection data
whose information travels 6 cells per step, and reports test r2 for each
cell.  Windows at or above the bandwidth bound stay accurate; the smallest
windows degrade as the frequency rises.  Writes <out>/sweep.csv.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from windec import GridPde, recommend_window
from windec.cli import main as windec_main

WINDOWS = (3, 5, 17, 33)
FREQS = (0.5, 1.0, 2.0, 4.0)


def run(out_dir: str) -> int:
    pde = GridPde(dx=1 / 64, dt=1 / 16, c=(1.5,))
    recommended = recommend_window(pde, kind="advection").recommended_cells
    windows = sorted({*WINDOWS, recommended})
    print(f"recommended window: {recommended} cells; sweeping {windows}")
    config = {
        "dataset": {
            "kind": "advection",
            "batch": 4,
            "extents": [1024],
            "channels": 1,
            "dx": 1 / 64,
            "dt": 1 / 16,
            "c": [1.5],
            "ic": {"kind": "harmonics", "bandwidth": 4.0, "base_freq": 0.5,
                   "envelope_sigma": 3.0},
            "n_steps": 8,
            "seed": 7,
        },
        "window": "auto",
        "predictor": {"kind": "stencil", "ridge_lambda": 1e-8, "sample_budget": 4096},
        "split_fraction": 0.5,
        "seed": 0,
        "out_dir": out_dir,
    }
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = Path(tmp) / "config.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        return windec_main([
            "sweep", "--config", str(cfg_path),
            "--windows", ",".join(str(w) for w in windows),
            "--freqs", ",".join(str(f) for f in FREQS),
        ])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory")
    args = parser.parse_args()
    sys.exit(run(args.out))
