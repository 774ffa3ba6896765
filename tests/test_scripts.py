"""Smoke runs of the scripts and configs under scripts/ with tiny arguments."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import multisource
from multisource.cli import main
from multisource.discrepancy import empirical_discrepancy
from multisource.harness import build_pool, config_from_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
ENV = dict(os.environ, PYTHONPATH=str(Path(multisource.__file__).parents[1]))


def _run(script, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                          capture_output=True, text=True, env=ENV, timeout=60)


def test_corruption_sweep_config(tmp_path):
    config = json.loads((SCRIPTS / "corruption_sweep.json").read_text(encoding="utf-8"))
    assert config_from_json(json.dumps(config)).corruption.n_corrupted == (0, 5, 10, 15, 19)
    config["data"]["synthetic"].update(n_sources=3, samples_per_source=20, reference_size=20,
                                       test_size=50)
    config.update(method=["ours", "median_of_probs"], lambda_grid=[1.0, 100.0], repeats=1)
    config["corruption"]["n_corrupted"] = [0, 1]
    small = tmp_path / "small.json"
    small.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "not" / "yet" / "sweep.csv"  # experiment makes the directory
    done = subprocess.run([sys.executable, "-m", "multisource", "experiment", "--config",
                           str(small), "--out", str(out)],
                          capture_output=True, text=True, env=ENV, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"wrote 4 rows to {out}"
    lines = out.with_suffix(".summary.csv").read_text().strip().splitlines()
    assert lines[0] == "method,n_corrupted,mean_test_error,stddev_test_error"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["median_of_probs", "0"], ["median_of_probs", "1"], ["ours", "0"], ["ours", "1"]]
    assert out.with_suffix(".sidecar.json").exists()


def test_protocol_costs_config(capsys):
    path = SCRIPTS / "protocol_costs.json"
    config = config_from_json(path.read_text(encoding="utf-8"))
    pool, _ = build_pool(config, config.seed)
    central = [empirical_discrepancy(source, pool.reference).value for source in pool.sources]
    d = pool.n_features
    printed = []
    for case in ("1", "2"):  # case 2 at its smallest budget, d + 2 rounds
        assert main(["simulate-federated", "--case", case, "--config", str(path),
                     "--rounds", str(d + 2)]) == 0
        printed.append(json.loads(capsys.readouterr().out))
    case1, case2 = printed
    # 5 sources; case 1 broadcasts the 60-row reference, 8 bytes per real
    assert (case1["messages"], case1["total_bytes"], case1["rounds"]) == (10, 12040, 2)
    assert case1["discrepancies"] == central
    assert (case2["messages"], case2["total_bytes"], case2["rounds"]) == (
        5 * (2 * (d + 2) + 2), 5 * (2 * (d + 2) * 8 * (d + 1) + 8 * (d + 2) + 8), d + 3)
    assert max(abs(a - b) for a, b in zip(case2["discrepancies"], central)) <= 1e-12


def test_sweep_digests_repeat(tmp_path):
    config = json.loads((SCRIPTS / "corruption_sweep.json").read_text(encoding="utf-8"))
    config["data"]["synthetic"].update(n_sources=3, samples_per_source=20, reference_size=20,
                                       test_size=50)
    config.update(method=["ours", "all_data"], lambda_grid=[1.0], repeats=1)
    config["corruption"]["n_corrupted"] = [0, 1]
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(config), encoding="utf-8")
    runs = [_run("sweep_digests.py", str(tiny)) for _ in range(2)]
    for done in runs:
        assert done.returncode == 0, done.stderr
    lines = runs[0].stdout.splitlines()
    assert [line.split("  ")[1] for line in lines] == [
        "tiny.csv", "tiny.sidecar.json", "tiny.summary.csv"]
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    assert runs[1].stdout == runs[0].stdout


def test_sweep_digests_of_a_case2_trace(tmp_path):
    config = json.loads((SCRIPTS / "corruption_sweep.json").read_text(encoding="utf-8"))
    config["data"]["synthetic"].update(n_sources=2, samples_per_source=20, reference_size=15,
                                       test_size=10, n_features=2)
    config["corruption"]["n_corrupted"] = [0, 1, 2]  # a level above 2 sources is an error
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps(config), encoding="utf-8")
    done = _run("sweep_digests.py", "--federated", str(tiny))
    assert done.returncode == 0, done.stderr
    trace = tmp_path / "trace.jsonl"
    stdout = subprocess.run([sys.executable, "-m", "multisource", "simulate-federated", "--case",
                             "2", "--config", str(tiny), "--rounds", "1000", "--trace", str(trace)],
                            capture_output=True, env=ENV, timeout=60, check=True).stdout
    assert done.stdout.splitlines() == [
        f"{hashlib.sha256(stdout).hexdigest()}  tiny.case2.stdout",
        f"{hashlib.sha256(trace.read_bytes()).hexdigest()}  tiny.case2.jsonl"]


def test_sweep_digests_of_the_csv_sequence(tmp_path, monkeypatch):
    done = _run("sweep_digests.py", "--csv")
    assert done.returncode == 0, done.stderr
    digests = dict(line.split("  ")[::-1] for line in done.stdout.splitlines())
    names = [*(f"corrupted_{i}.csv" for i in range(4)), "discrepancy.stdout", "weights.stdout",
             "train.stdout"]
    plain = [f"csv-{base}.{name}" for base in (1, 9001) for name in names]
    plus = [f"csv-plus-{base}.{name}" for base in (1, 9001) for name in names]
    assert list(digests) == plain + plus
    assert len({digests[name] for name in plain}) == len(plain)
    # the plus-signed copies are read by the per-cell loop, to the same bytes
    for a, b in zip(plain, plus):
        assert (digests[a] == digests[b]) == a.endswith(".stdout")
    # the first corrupted file, made again by the CLI from the benchmark's inputs at seed 1
    monkeypatch.syspath_prepend(str(SCRIPTS.parent / "bench"))
    from workloads import CsvScore

    workload = CsvScore()
    workload.prepare(tmp_path, 1)
    src, dst = workload.src_paths[0], workload.corrupted[0]
    assert main(["corrupt", "--input", str(src), "--output", str(dst), "--kind",
                 "shuffled_labels", "--proportion", "0.5",
                 "--seed", str(workload.corrupt_seed)]) == 0
    assert hashlib.sha256(dst.read_bytes()).hexdigest() == digests["csv-1.corrupted_0.csv"]
