#!/usr/bin/env python3
"""windec end-to-end benchmark.

Run from the root of a windec source checkout:

    python3 perfbench/run.py --workload sweep-1d --seed 7 --seconds 30 --trace 0

The workload runs through ``windec.cli.main`` in a process of its own,
importing windec from ``./src``; that process is started a few more times
for set-up only, so ``setup_s`` is a median.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics listed
in ``BENCHMARK.json``; with ``--trace 1`` it holds the per-layer metrics,
measured on alternate passes with spans recorded around each layer's calls.
Everything the run writes goes under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
# set-up-only processes started before and after the one that runs the passes;
# spreading them over the run keeps a slow minute from setting setup_s alone
SETUP_ONLY_BEFORE = 2
SETUP_ONLY_AFTER = 2
TIME_LIMIT_S = 170


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _tail(xs: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(xs)
    if n < 20:
        return f"no tail percentile: {n} passes leave fewer than 10 beyond any above the median"
    p = math.floor(100 * (1 - 10 / n))
    q = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
    return f"p{p} {q:.4f} s"


class RunFailed(Exception):
    pass


def _spawn(args, root: Path, out: Path, index: int, deadline: float,
           setup_only: bool) -> dict:
    env = dict(os.environ)
    env.pop("DDELD_THREADS", None)  # the CLI's thread count stays at its default
    env["PYTHONPATH"] = str(root / "src")
    report = out / f"report-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", str(root / "src"), "--work", str(out / "work"),
           "--report", str(report)]
    if setup_only:
        cmd.append("--setup-only")
    log = out / f"worker-{index}.log"
    with open(log, "w", encoding="utf-8") as fh:
        try:
            proc = subprocess.run(
                [*cmd, "--t0-ns", str(time.monotonic_ns())], stdout=fh,
                stderr=subprocess.STDOUT, env=env, cwd=root,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise RunFailed(f"worker {index} timed out; see {log}") from exc
    if proc.returncode != 0 or not report.is_file():
        lines = log.read_text(encoding="utf-8").splitlines()[-20:]
        raise RunFailed(f"worker {index} exited with code {proc.returncode}:\n"
                        + "\n".join(lines))
    return json.loads(report.read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's frozen seed)")
    ap.add_argument("--seconds", type=int, default=10, help="measuring time of the passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd().resolve()
    if not (root / "src" / "windec" / "__init__.py").is_file():
        print(f"no windec source tree under {root / 'src'}; "
              "run from the root of a windec checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    before, after = (0, 0) if args.trace else (SETUP_ONLY_BEFORE, SETUP_ONLY_AFTER)
    try:
        reports = [_spawn(args, root, out, i, deadline, setup_only=i != before)
                   for i in range(before + 1 + after)]
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out / "work", ignore_errors=True)
    rep = reports[before]

    pass_s = statistics.median(rep["pass_seconds"])
    values = {
        "pass_s": pass_s,
        "cells_per_s": rep["cells_per_pass"] / pass_s,
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": rep["peak_rss_mb"],
        "test_rel_l2": rep["test_rel_l2"],
        "failed_frac": rep["failed"] / rep["attempted"],
    }
    if args.trace:
        traced = statistics.median(rep["traced_pass_seconds"])
        values.update(rep["layers"])
        values.update({f"setup.{k}": v for k, v in rep["setup_layers"].items()})
        values.update({
            "trace.untraced_pass_s": pass_s,
            "trace.traced_pass_s": traced,
            "trace.overhead_s": traced - pass_s,
            "trace.passes": len(rep["traced_pass_seconds"]),
        })
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a wrapped function that never ran in a pass has no spans: 0 calls, 0 s
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}

    env = rep["environment"]
    env["git_sha"] = _git_sha(root)
    correct = (rep["failed"] == 0 and rep["self_test_detects_perturbation"]
               and rep["test_rel_l2"] is not None)
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "environment": env,
        "setup_seconds": [r["setup_s"] for r in reports], "report": rep,
        "metrics": metrics,
    }, indent=1), encoding="utf-8")

    xs = rep["pass_seconds"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"pass_s: median {pass_s:.4f} s of {len(xs)} untraced passes "
          f"(min {min(xs):.4f}, max {max(xs):.4f}); {_tail(xs)}")
    print(f"checks: {rep['attempted']} attempted, {rep['failed']} failed; perturbed output "
          f"detected: {rep['self_test_detects_perturbation']}")
    for msg in rep["failures"]:
        print(f"  FAIL {msg}")
    print(f"details: {out / 'result.json'}")
    print(json.dumps({"correct": correct, "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
