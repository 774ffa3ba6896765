"""The benchmark's gated workloads, run for two iterations with every output check.

`bench/workloads.py` is imported read only. A workload whose CLI call fails,
or whose outputs fail a check, fails here before a benchmark run reports it.
"""

import copy
import json
from pathlib import Path
from types import SimpleNamespace

import multisource.cli  # noqa: F401  `run_cli` looks `main` up in sys.modules

ROOT = Path(__file__).resolve().parents[1]


def test_gated_workloads_pass_their_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    clock = SimpleNamespace(scale=lambda: 1.0)  # no calibration: seconds as measured
    failed = []
    for name in (w["name"] for w in benchmark["workloads"]):
        workload = copy.copy(WORKLOADS[name])  # `prepare` sets its state on this copy
        work = tmp_path / name
        work.mkdir()
        workload.prepare(work, 1)
        for k in (0, 1):
            checks = workload.iterate(k, clock).checks
            assert checks, f"{name} iteration {k} made no check"
            failed += [f"{name} iteration {k}: {check}" for check, ok in checks if not ok]
    assert not failed
