"""In-memory spans around the calls into each windec layer.

The tracer replaces a function at the name its caller looks it up through
(a module global or a class attribute) with a wrapper that records a span:
name, start, end, parent span and pass id.  Nothing under ``src/`` changes;
``uninstall`` puts every original back.  A name that no longer exists is
skipped, so its metrics read 0 calls instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path


def _out_bytes(result, args) -> int:
    return result.data.nbytes


def _file_bytes(result, args) -> int:
    return Path(args[0]).stat().st_size


# (module, class or None, attribute, span name, quantity)
# A quantity is (metric suffix, function of (result, args)) or None.
SPANNED = [
    ("windec.cli", None, "integrate_predictions", "windowing.integrate_predictions", None),
    ("windec.windowing", None, "expand_domain", "windowing.expand_domain", None),
    ("windec.windowing", None, "pad_zeros", "tensor.pad_zeros", ("bytes_out", _out_bytes)),
    ("windec.windowing", None, "slice_region", "tensor.slice_region",
     ("bytes_out", _out_bytes)),
    ("windec.windowing", None, "chunk_domain", "windowing.chunk_domain",
     ("bytes_out", _out_bytes)),
    ("windec.windowing", None, "window_patch", "windowing.window_patch",
     ("bytes_out", _out_bytes)),
    ("windec.models", "LearnedStencil", "predict_batch", "models.predict_batch",
     ("windows", lambda result, args: args[1].batch)),
    ("windec.models", "GlobalLinearModel", "predict_frame", "models.predict_frame", None),
    ("windec.models", None, "sample_training_pairs", "models.sample_training_pairs",
     ("samples", lambda result, args: result[0].shape[0])),
    ("windec.cli", None, "fit_stencil", "models.fit_stencil", None),
    ("windec.cli", None, "fit_global_linear", "models.fit_global_linear", None),
    ("windec.cli", None, "metrics_record", "models.metrics_record", None),
    ("windec.cli", None, "generate_dataset", "generators.generate_dataset", None),
    ("windec.cli", None, "write_dataset", "generators.write_dataset", ("bytes", _file_bytes)),
    ("windec.cli", None, "read_dataset", "generators.read_dataset", ("bytes", _file_bytes)),
    ("windec.cli", None, "main", "cli", None),
]

# spans whose quantities add up to the bytes the tensor primitives copied
COPYING = ("tensor.slice_region", "windowing.chunk_domain", "windowing.window_patch",
           "tensor.pad_zeros")


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, pass id, (quantity name, value)]
        self.spans: list[list] = []
        self.counts: dict[tuple, int] = defaultdict(int)
        self._stack: list[int] = []
        self._pass = None
        self._saved: list[tuple] = []

    # --- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._pass, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, quantity=None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = quantity
        self._stack.pop()

    def _spanned(self, fn, name, quantity):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            self.end(index, (quantity[0], quantity[1](result, args)) if quantity else None)
            return result
        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[(self._pass, name)] += 1
            return fn(*args, **kwargs)
        return wrapper

    # --- patching ----------------------------------------------------------

    def install(self, pass_id) -> None:
        self._pass = pass_id
        for module, owner, attr, name, quantity in SPANNED:
            self._patch(module, owner, attr, lambda fn: self._spanned(fn, name, quantity))
        # counted, not timed: it runs ~10^5 times per pass
        self._patch("windec.tensor", "BatchTensor", "__post_init__",
                    lambda fn: self._counted(fn, "tensor.batchtensor_built"))

    def _patch(self, module, owner, attr, wrap) -> None:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner, None)
        fn = getattr(target, attr, None)
        if fn is not None:
            self._saved.append((target, attr, fn))
            setattr(target, attr, wrap(fn))

    def uninstall(self) -> None:
        for target, attr, fn in reversed(self._saved):
            setattr(target, attr, fn)
        self._saved.clear()
        self._pass = None

    # --- reporting ---------------------------------------------------------

    def layer_metrics(self, pass_ids) -> dict[str, float]:
        """Per-pass totals of every layer metric, medians over ``pass_ids``."""
        per_pass = {p: defaultdict(float) for p in pass_ids}
        children = defaultdict(list)
        for i, (_, _, _, parent, _, _) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(i)
        for i, (name, start, end, _, pass_id, qty) in enumerate(self.spans):
            if pass_id not in per_pass:
                continue
            row = per_pass[pass_id]
            # one thread: child spans never overlap, so their sum is what they cover
            covered = sum(self.spans[c][2] - self.spans[c][1] for c in children[i])
            row[f"{name}.s"] += end - start
            row[f"{name}.self_s"] += end - start - covered
            row[f"{name}.calls"] += 1
            if qty is not None:
                row[f"{name}.{qty[0]}"] += qty[1]
                if name in COPYING:
                    row["tensor.bytes_copied"] += qty[1]
        for (pass_id, name), n in self.counts.items():
            if pass_id in per_pass:
                per_pass[pass_id][name] += n
        keys = set().union(*(row.keys() for row in per_pass.values()))
        return {k: statistics.median(row.get(k, 0.0) for row in per_pass.values())
                for k in keys}

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, pass_id, qty in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id,
                                     "quantity": dict([qty]) if qty else None}) + "\n")

