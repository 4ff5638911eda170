"""Every ``BENCH_<n>.json`` at the repository root parses and carries the keys
the files share, so that one change's numbers can be read next to another's.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
TOP = {"change", "parent_commit", "previous_bench_file", "method", "outputs", "machine"}
MACHINE = {"nproc", "numpy", "python", "blas"}


def test_bench_files_are_numbered():
    assert BENCH_FILES
    assert all(re.fullmatch(r"BENCH_\d+\.json", p.name) for p in BENCH_FILES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_carries_the_shared_keys(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert TOP <= set(bench)
    assert MACHINE <= set(bench["machine"])
    assert bench["workloads"]
    # every gated workload has paired runs, all correct and none failed
    for name, entries in bench["workloads"].items():
        paired = {k: v for k, v in entries.items() if k.startswith("seed_")}
        assert paired, name
        for key, entry in paired.items():
            assert entry["correct_all"] is True, (name, key)
            assert entry["failed_total"] == {"parent": 0, "change": 0}, (name, key)
