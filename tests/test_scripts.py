import os
import subprocess
import sys
from pathlib import Path

import pytest

import windec

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
# the CSV each script writes under --out, and its header line
WRITES = {
    "run_freq_sweep.py": ("sweep.csv", "window,frequency,r2,rel_l2"),
    "run_local_vs_global.py": (
        "local_vs_global.csv", "frame,local_rel_l2,local_r2,global_rel_l2,global_r2"),
}


def test_every_script_is_checked():
    assert [p.name for p in SCRIPTS] == sorted(WRITES)


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_and_writes_its_csv(tmp_path, script):
    name, header = WRITES[script.name]
    # run against the windec these tests import, not whatever is installed
    env = {**os.environ, "PYTHONPATH": str(Path(windec.__file__).resolve().parents[1])}
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, str(script), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out / name, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == header
