import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import multisource
from multisource.cli import main
from multisource.data import Dataset, load_csv, save_csv
from multisource.harness import (
    CorruptionSetting,
    ExperimentConfig,
    SyntheticSpec,
    config_to_json,
)


@pytest.fixture()
def small_config(tmp_path):
    cfg = ExperimentConfig(
        data=SyntheticSpec(n_sources=3, samples_per_source=25, reference_size=20,
                           test_size=100, n_features=2, class_separation=2.0),
        method=("all_data", "reference_only"),
        lambda_grid=(1.0,),
        ridge_grid=(1e-2,),
        repeats=2,
        seed=11,
        corruption=CorruptionSetting("shuffled_labels", (0, 1), 1.0),
    )
    path = tmp_path / "config.json"
    path.write_text(config_to_json(cfg))
    return path


def _write_dataset(path, seed, n=20):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    features = rng.standard_normal((n, 2))
    features[:, 0] += labels
    save_csv(Dataset(features, labels), path)


def test_discrepancy_command(tmp_path, capsys):
    src, ref = tmp_path / "src.csv", tmp_path / "ref.csv"
    _write_dataset(src, 1)
    _write_dataset(ref, 2)
    out = tmp_path / "d.json"
    assert main(["discrepancy", str(src), "--reference", str(ref), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report) == 1
    assert 0.0 <= report[0]["discrepancy"] <= 1.0


def test_weights_command(tmp_path):
    inp = tmp_path / "d.json"
    inp.write_text(json.dumps({"discrepancies": [0.1, 0.4], "sample_counts": [100, 100]}))
    out = tmp_path / "alpha.json"
    assert main(["weights", str(inp), "--lambda", "0.0", "--out", str(out)]) == 0
    alpha = json.loads(out.read_text())["alpha"]
    assert alpha == [1.0, 0.0]


def test_weights_command_rejects_infinite_lambda(tmp_path):
    inp = tmp_path / "d.json"
    inp.write_text(json.dumps({"discrepancies": [0.1, 0.4], "sample_counts": [100, 100]}))
    env = dict(os.environ, PYTHONPATH=str(Path(multisource.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "multisource", "weights", str(inp),
                           "--lambda", "inf"], capture_output=True, text=True, env=env)
    assert done.returncode != 0
    assert "lam must be finite" in done.stderr
    assert "alpha" not in done.stdout


def test_weights_command_rejects_fractional_counts(tmp_path):
    inp = tmp_path / "d.json"
    inp.write_text(json.dumps({"discrepancies": [0.1, 0.4], "sample_counts": [2.5, 3.9]}))
    env = dict(os.environ, PYTHONPATH=str(Path(multisource.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "multisource", "weights", str(inp),
                           "--lambda", "1"], capture_output=True, text=True, env=env)
    assert done.returncode != 0
    assert "sample_counts" in done.stderr
    assert "alpha" not in done.stdout


def test_train_command(tmp_path, small_config):
    out = tmp_path / "run.json"
    assert main(["train", "--method", "ours", "--config", str(small_config),
                 "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["method"] == "ours"
    assert 0.0 <= result["test_error"] <= 1.0
    assert len(result["alpha"]) == 4  # 3 sources + appended reference


def test_corrupt_command(tmp_path):
    src = tmp_path / "in.csv"
    _write_dataset(src, 3)
    out = tmp_path / "out.csv"
    assert main(["corrupt", "--input", str(src), "--output", str(out),
                 "--kind", "label_bias", "--proportion", "1.0", "--seed", "4"]) == 0
    corrupted = load_csv(out, "label")
    assert np.all(corrupted.labels == 1.0)


def test_experiment_command_deterministic(tmp_path, small_config):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["experiment", "--config", str(small_config), "--out", str(out_a)]) == 0
    assert main(["experiment", "--config", str(small_config), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.with_suffix(".sidecar.json").exists()
    summary = out_a.with_suffix(".summary.csv").read_text().splitlines()
    assert summary[0] == "method,n_corrupted,mean_test_error,stddev_test_error"
    header = out_a.read_text().splitlines()[0]
    assert header == "method,n_corrupted,repeat,seed,test_error,selected_lambda,selected_ridge"
    assert len(out_a.read_text().splitlines()) == 1 + 2 * 2 * 2


def test_simulate_federated_command(tmp_path, small_config, capsys):
    trace_path = tmp_path / "trace.jsonl"
    assert main(["simulate-federated", "--case", "1", "--config", str(small_config),
                 "--trace", str(trace_path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["case"] == 1
    assert len(printed["discrepancies"]) == 3
    lines = trace_path.read_text().strip().splitlines()
    assert len(lines) == 6  # 2N messages
    assert main(["simulate-federated", "--case", "2", "--config", str(small_config),
                 "--rounds", "50"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["rounds"] == 51


def test_simulate_federated_minibatch_command(small_config, capsys):
    assert main(["simulate-federated", "--case", "2", "--batch-size", "5", "--rounds", "20",
                 "--step-size", "0.01", "--config", str(small_config)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["messages"] == 3 * (2 * 20 + 2)
    assert len(printed["discrepancies"]) == 3
