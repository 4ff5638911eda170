"""One workload in its own process: set up, run timed passes, check outputs.

Started by ``run.py``, which owns the result; this process writes a JSON
report to ``--report``.  ``--t0-ns`` is the monotonic clock reading taken
just before this process was started, so ``setup_s`` includes interpreter
start-up and every import.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, windec_modules

MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def _environment(src: Path) -> dict:
    import ctypes
    import glob
    import os
    import platform

    import numpy as np

    windec, _ = windec_modules()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "windec": windec.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": None,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "DDELD_THREADS": os.environ.get("DDELD_THREADS"),
    }
    # numpy wheels bundle OpenBLAS under a prefixed symbol; ask it directly
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                env["blas_threads"] = int(fn())
                break
        config = getattr(lib, "scipy_openblas_get_config64_", None)
        if config is not None:
            config.restype = ctypes.c_char_p
            env["blas_runtime_config"] = config().decode()
    return env


def _check(wl, output) -> list[str]:
    """Failed checks of one pass's output; a check that cannot run has failed."""
    try:
        return wl.check(output)
    except Exception:
        return [f"check raised {traceback.format_exc().strip().splitlines()[-1]}"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--src", required=True, help="source tree windec must come from")
    ap.add_argument("--work", required=True, help="working directory for inputs and outputs")
    ap.add_argument("--report", required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    windec, _ = windec_modules()
    src = Path(args.src).resolve()
    if src not in Path(windec.__file__).resolve().parents:
        print(f"windec was imported from {windec.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    wl = WORKLOADS[args.workload](args.seed, Path(args.work))
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install("setup")
        index = tracer.begin("setup")
        wl.setup()
        tracer.end(index)
        tracer.uninstall()
    else:
        wl.setup()
    setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
    report = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.report).write_text(json.dumps(report), encoding="utf-8")
        return 0

    passes = []
    started = time.perf_counter()
    while True:
        n = len(passes)
        traced_n = sum(p["traced"] for p in passes)
        enough = n >= MIN_PASSES and (not tracer or traced_n >= MIN_TRACED_PASSES
                                      and n - traced_n >= MIN_TRACED_PASSES)
        # start no pass that would run past the measuring time, so runs end on time
        typical = statistics.median(p["seconds"] for p in passes) if passes else 0.0
        if enough and time.perf_counter() - started + typical > args.seconds:
            break
        traced = tracer is not None and n % 2 == 1
        error = None
        if traced:
            tracer.install(n)
            index = tracer.begin("pass")
        t = time.perf_counter()
        try:
            wl.run_pass()
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - t
        if traced:
            tracer.end(index)
            tracer.uninstall()
        output = None
        if error is None:
            try:
                output = wl.collect()
            except (OSError, ValueError, KeyError):
                error = traceback.format_exc()
        if error:
            print(error, file=sys.stderr)
        passes.append({"traced": traced, "seconds": seconds, "error": error,
                       "output": output})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # output checks run after the timed passes and after peak memory is read;
    # each pass is two attempts, the pass itself and the check of its output
    failures, failed = [], 0
    for i, p in enumerate(passes):
        if p["error"]:
            failed += 2
            failures.append(f"pass {i} failed: {p['error'].strip().splitlines()[-1]}")
            continue
        msgs = _check(wl, p["output"])
        failed += bool(msgs)
        failures += [f"pass {i}: {msg}" for msg in msgs]
    good = [p["output"] for p in passes if p["output"] is not None]
    self_test = bool(good) and bool(_check(wl, wl.perturb(good[-1])))
    rel = [wl.test_rel_l2(out) for out in good]

    report.update({
        "pass_seconds": [p["seconds"] for p in passes if not p["traced"]],
        "traced_pass_seconds": [p["seconds"] for p in passes if p["traced"]],
        "cells_per_pass": wl.cells_per_pass,
        "peak_rss_mb": peak_rss_mb,
        "test_rel_l2": statistics.median(rel) if rel else None,
        "attempted": 2 * len(passes),
        "failed": failed,
        "failures": failures,
        "self_test_detects_perturbation": self_test,
        "environment": _environment(src),
    })
    if tracer:
        traced_ids = [i for i, p in enumerate(passes) if p["traced"]]
        report["layers"] = tracer.layer_metrics(traced_ids)
        report["setup_layers"] = tracer.layer_metrics(["setup"])
        tracer.write(Path(args.report).with_name("spans.jsonl"))
    Path(args.report).write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
