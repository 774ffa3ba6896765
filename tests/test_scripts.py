"""Smoke runs of the scripts under scripts/ with tiny arguments."""

import os
import subprocess
import sys
from pathlib import Path

import multisource

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ENV = dict(os.environ, PYTHONPATH=str(Path(multisource.__file__).parents[1]))


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=ENV, timeout=60)


def test_run_corruption_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    done = _run("run_corruption_sweep.py", "--out", str(out), "--n-grid", "0", "1",
                "--repeats", "1", "--methods", "ours", "median_of_probs",
                "--n-sources", "3", "--samples-per-source", "20", "--reference-size", "20",
                "--test-size", "50", "--lambda-grid", "1.0", "100.0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[0] == f"wrote 4 runs to {out}"
    assert lines[1] == "method,n_corrupted,mean_test_error,stddev_test_error"
    assert [line.split(",")[:2] for line in lines[2:]] == [
        ["median_of_probs", "0"], ["median_of_probs", "1"], ["ours", "0"], ["ours", "1"]]
    assert out.with_suffix(".sidecar.json").exists()


def test_compare_protocol_costs():
    done = _run("compare_protocol_costs.py", "--n-sources", "2", "--samples-per-source", "20",
                "--reference-size", "15", "--n-features", "2", "--rounds", "20")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert lines[0].startswith("centralized d:")
    assert lines[1].startswith("case 1:") and lines[2].startswith("case 2:")
    assert "max |d - centralized| = 0.00e+00" in lines[1]  # case 1 is exact
