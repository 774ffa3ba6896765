import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import config_to_json
import multisource
from multisource.cli import main
from multisource.data import Dataset, load_csv, save_csv
from multisource.harness import CorruptionSetting, ExperimentConfig, SyntheticSpec


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
    assert "lam must be finite" in done.stderr and str(inp) not in done.stderr
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
    # a budget far past what could be stored per round is only counted
    assert main(["simulate-federated", "--case", "2", "--config", str(small_config),
                 "--rounds", str(10**12)]) == 0
    huge = json.loads(capsys.readouterr().out)
    assert (huge["rounds"], huge["messages"]) == (10**12 + 1, 3 * (2 * 10**12 + 2))
    assert huge["discrepancies"] == printed["discrepancies"]



def test_invalid_input_prints_one_error_line(tmp_path, small_config, capsys):
    no_method = json.loads(small_config.read_text())
    del no_method["method"]
    bad_config = tmp_path / "no_method.json"
    bad_config.write_text(json.dumps(no_method))
    nested_grid = dict(json.loads(small_config.read_text()), lambda_grid=[[1.0]])
    nested_config = tmp_path / "nested_grid.json"
    nested_config.write_text(json.dumps(nested_grid))
    weights_inputs = {"empty": {}, "list": [1, 2], "no_counts": {"discrepancies": [0.1]},
                      "mapping": {"discrepancies": {"a": 0.1}, "sample_counts": [3]},
                      "out_of_range": {"discrepancies": [2.0], "sample_counts": [3]}}
    for name, obj in weights_inputs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    weights_error = f"multisource weights: error: {tmp_path}{os.sep}"
    config = json.loads(small_config.read_text())
    synthetic = config["data"]["synthetic"]
    csv_data = {"source_paths": ["a.csv"], "reference_path": "r.csv", "test_path": "t.csv"}
    # a JSON value of the wrong type is named where the config is read
    wrong_types = {
        "class_separation": dict(config, data={"synthetic": dict(synthetic,
                                                                 class_separation=[1.0])}),
        "positive_fraction": dict(config, data={"synthetic": dict(synthetic,
                                                                  positive_fraction="x")}),
        "n_features": dict(config, data={"synthetic": dict(synthetic, n_features=True)}),
        "proportion": dict(config, corruption=dict(config["corruption"], proportion=[0.5])),
        "n_corrupted": dict(config, corruption=dict(config["corruption"], n_corrupted=[1, [2]])),
        "config synthetic": dict(config, data={"synthetic": 5}),
        "config corruption": dict(config, corruption=5),
        "unknown method 5": dict(config, method=5),
        "source_paths": dict(config, data={"csv_paths": dict(csv_data, source_paths=5)}),
        "config must be a JSON object": [config],
    }
    for field, obj in wrong_types.items():
        (tmp_path / f"{field}.json").write_text(json.dumps(obj))
    # features so large that their moments overflow
    for name, scale in (("huge_source", 1e200), ("huge_reference", 1e200),
                        ("huge_test", 1e200), ("plain_reference", 1.0)):
        rng = np.random.default_rng(len(name))
        save_csv(Dataset(scale * rng.standard_normal((40, 2)),
                         np.where(rng.random(40) < 0.5, 1.0, -1.0)), tmp_path / f"{name}.csv")
    huge_config, huge_source_config = tmp_path / "huge.json", tmp_path / "huge_source.json"
    huge_reference_config = tmp_path / "huge_reference.json"
    for path, source, reference in ((huge_config, "huge_source", "huge_reference"),
                                    (huge_source_config, "huge_source", "plain_reference"),
                                    (huge_reference_config, "plain_reference", "huge_reference")):
        path.write_text(json.dumps(dict(config, corruption=None, data={"csv_paths": {
            "source_paths": [str(tmp_path / f"{source}.csv")],
            "reference_path": str(tmp_path / f"{reference}.csv"),
            "test_path": str(tmp_path / "huge_test.csv")}})))
    # the pool is built before any fit, and names the source or reference that overflows
    huge_source = (f"{tmp_path / 'huge_source.csv'}: the source's feature moments overflowed; "
                   "rescale the features\n")
    huge_reference = (f"{tmp_path / 'huge_reference.csv'}: the reference's feature moments "
                      "overflowed; rescale the features\n")
    # a feature constant at 1e5 swamps the relaxation's ridge: its system is
    # singular to working precision wherever it is solved
    rng = np.random.default_rng(0)
    for name, n in (("constant_a", 16), ("constant_b", 32), ("constant_reference", 16)):
        save_csv(Dataset(np.full((n, 1), 1e5), np.where(rng.random(n) < 0.5, 1.0, -1.0)),
                 tmp_path / f"{name}.csv")
    constant_config = tmp_path / "constant.json"
    constant_config.write_text(json.dumps(dict(config, corruption=None, data={"csv_paths": {
        "source_paths": [str(tmp_path / "constant_a.csv"), str(tmp_path / "constant_b.csv")],
        "reference_path": str(tmp_path / "constant_reference.csv"),
        "test_path": str(tmp_path / "constant_reference.csv")}})))
    singular = ("the relaxation's system is singular to working precision; center or rescale "
                "the features\n")
    # a header-only file is named by its path, where the pool is built and
    # where the discrepancy command reads it
    save_csv(Dataset(np.empty((0, 2)), np.empty(0)), tmp_path / "reference.csv")
    # a source whose feature count differs from the reference's is named
    for name, d in (("two_features", 2), ("three_features", 3), ("three_reference", 3)):
        rng = np.random.default_rng(d)
        save_csv(Dataset(rng.standard_normal((20, d)), np.where(rng.random(20) < 0.5, 1.0, -1.0)),
                 tmp_path / f"{name}.csv")
    csv_configs = {  # name: (sources, reference, test)
        "empty_reference": (["plain_reference"], "reference", "plain_reference"),
        "empty_source": (["plain_reference", "reference"], "plain_reference", "plain_reference"),
        "mismatch": (["three_features", "two_features"], "three_reference", "three_reference"),
        "empty_test": (["plain_reference"], "plain_reference", "reference"),
        "mismatched_test": (["two_features"], "plain_reference", "three_reference"),
    }
    for name, (sources, reference, test) in csv_configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(config, corruption=None, data={
            "csv_paths": {"source_paths": [str(tmp_path / f"{s}.csv") for s in sources],
                          "reference_path": str(tmp_path / f"{reference}.csv"),
                          "test_path": str(tmp_path / f"{test}.csv")}})))
    empty_reference_config = tmp_path / "empty_reference.json"
    empty_reference = f"{tmp_path / 'reference.csv'}: the reference is empty"
    mismatch = f"{tmp_path / 'two_features.csv'}: feature mismatch: source has 2, reference 3"
    empty_test = f"{tmp_path / 'reference.csv'}: the test set is empty\n"
    mismatched_test = (f"{tmp_path / 'three_reference.csv'}: feature mismatch: test set has 3, "
                       "reference 2\n")
    # a JSON syntax error and an unknown config key are named by the file
    syntax_error = tmp_path / "syntax_error.json"
    syntax_error.write_text('{"lam": }')
    misspelt = tmp_path / "misspelt.json"
    misspelt.write_text(json.dumps(dict(config, lamda_grid=[1.0])))
    cases = [
        (["weights", str(syntax_error), "--lambda", "1"],
         f"multisource weights: error: {syntax_error}: Expecting value: line 1 column 9"),
        (["train", "--method", "ours", "--config", str(syntax_error)],
         f"multisource train: error: {syntax_error}: Expecting value: line 1 column 9"),
        (["experiment", "--config", str(misspelt), "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {misspelt}: unknown ExperimentConfig key(s) in config: "
         "lamda_grid"),
        (["discrepancy", str(tmp_path / "three_features.csv"), str(tmp_path / "two_features.csv"),
          "--reference", str(tmp_path / "three_reference.csv")],
         f"multisource discrepancy: error: {tmp_path / 'two_features.csv'}: feature mismatch"),
        (["weights", str(tmp_path / "empty.json"), "--lambda", "1"],
         weights_error + "empty.json: missing key(s) discrepancies, sample_counts"),
        (["weights", str(tmp_path / "list.json"), "--lambda", "1"],
         weights_error + "list.json: expected a JSON object"),
        (["weights", str(tmp_path / "no_counts.json"), "--lambda", "1"],
         weights_error + "no_counts.json: missing key(s) sample_counts"),
        (["weights", str(tmp_path / "mapping.json"), "--lambda", "1"],
         weights_error + "mapping.json: discrepancies must be a list of numbers"),
        (["weights", str(tmp_path / "out_of_range.json"), "--lambda", "1"],
         weights_error + "out_of_range.json: discrepancies must lie in [0, 1]"),
        (["train", "--method", "ours", "--config", str(nested_config)],
         f"multisource train: error: {nested_config}: lambda_grid must be a nonempty grid"),
        (["train", "--method", "ours", "--config", str(bad_config)],
         f"multisource train: error: {bad_config}: missing ExperimentConfig key(s) in config: "
         "method"),
        (["simulate-federated", "--case", "2", "--config", str(small_config), "--rounds", "0"],
         "multisource simulate-federated: error: rounds must be >= d + 2 = 4\n"),
        (["simulate-federated", "--case", "2", "--config", str(small_config), "--rounds", "3"],
         "multisource simulate-federated: error: rounds must be >= d + 2 = 4\n"),
        (["discrepancy", str(tmp_path / "missing.csv"), "--reference", str(tmp_path / "r.csv")],
         "multisource discrepancy: error: "),
        (["train", "--method", "all_data", "--config", str(huge_config)],
         f"multisource train: error: {huge_source}"),
        (["simulate-federated", "--case", "2", "--config", str(huge_config)],
         f"multisource simulate-federated: error: {huge_source}"),
        (["simulate-federated", "--case", "2", "--config", str(huge_source_config)],
         f"multisource simulate-federated: error: {huge_source}"),
        (["simulate-federated", "--case", "2", "--config", str(huge_reference_config)],
         f"multisource simulate-federated: error: {huge_reference}"),
        (["train", "--method", "all_data", "--config", str(huge_reference_config)],
         f"multisource train: error: {huge_reference}"),
        (["discrepancy", str(tmp_path / "huge_source.csv"),
          "--reference", str(tmp_path / "huge_reference.csv")],
         f"multisource discrepancy: error: {tmp_path / 'huge_source.csv'}: the source's feature "
         "moments overflowed; rescale the features"),
        (["discrepancy", str(tmp_path / "plain_reference.csv"),
          "--reference", str(tmp_path / "huge_reference.csv")],
         f"multisource discrepancy: error: {tmp_path / 'plain_reference.csv'}: the reference's "
         "feature moments overflowed; rescale the features"),
        (["train", "--method", "ours", "--config", str(huge_config)],
         f"multisource train: error: {huge_source}"),
        (["experiment", "--config", str(huge_source_config),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {huge_source}"),
        (["simulate-federated", "--case", "1", "--config", str(huge_config)],
         f"multisource simulate-federated: error: {huge_source}"),
        (["train", "--method", "batch_norm", "--config", str(huge_config)],
         f"multisource train: error: {huge_source}"),
        (["train", "--method", "all_data", "--config", str(tmp_path / "empty_test.json")],
         f"multisource train: error: {empty_test}"),
        (["experiment", "--config", str(tmp_path / "empty_test.json"),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {empty_test}"),
        (["train", "--method", "ours", "--config", str(tmp_path / "mismatched_test.json")],
         f"multisource train: error: {mismatched_test}"),
        (["train", "--method", "reference_only", "--config", str(empty_reference_config)],
         f"multisource train: error: {empty_reference}\n"),
        (["experiment", "--config", str(empty_reference_config),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {empty_reference}\n"),
        (["simulate-federated", "--case", "2", "--config", str(empty_reference_config)],
         f"multisource simulate-federated: error: {empty_reference}\n"),
        (["train", "--method", "ours", "--config", str(tmp_path / "empty_source.json")],
         f"multisource train: error: {tmp_path / 'reference.csv'}: the source is empty\n"),
        (["train", "--method", "all_data", "--config", str(tmp_path / "mismatch.json")],
         f"multisource train: error: {mismatch}\n"),
        (["simulate-federated", "--case", "1", "--config", str(tmp_path / "mismatch.json")],
         f"multisource simulate-federated: error: {mismatch}\n"),
        (["discrepancy", str(tmp_path / "plain_reference.csv"),
          "--reference", str(tmp_path / "reference.csv")],
         f"multisource discrepancy: error: {tmp_path / 'reference.csv'}: the reference is empty"),
        (["discrepancy", str(tmp_path / "reference.csv"),
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {tmp_path / 'reference.csv'}: the source is empty"),
        (["discrepancy", str(tmp_path / "constant_a.csv"),
          "--reference", str(tmp_path / "constant_reference.csv")],
         f"multisource discrepancy: error: {tmp_path / 'constant_a.csv'}: {singular}"),
        (["train", "--method", "ours", "--config", str(constant_config)],
         f"multisource train: error: {singular}"),
        (["simulate-federated", "--case", "1", "--config", str(constant_config)],
         f"multisource simulate-federated: error: {singular}"),
        (["simulate-federated", "--case", "2", "--config", str(constant_config)],
         f"multisource simulate-federated: error: {singular}"),
    ] + [(["train", "--method", "ours", "--config", str(tmp_path / f"{field}.json")],
          f"multisource train: error: {tmp_path / f'{field}.json'}: {field}")
         for field in wrong_types]
    for argv, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning on the way fails the case
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
