import csv
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import config_to_json, write_csv, zero_one_copy
import multisource
from multisource import _fork
from multisource.cli import build_parser, main
from multisource.data import Dataset, load_csv
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
    write_csv(Dataset(features, labels), path)


def test_discrepancy_command(tmp_path, capsys):
    src, ref = tmp_path / "src.csv", tmp_path / "ref.csv"
    _write_dataset(src, 1)
    _write_dataset(ref, 2)
    assert main(["discrepancy", str(src), "--reference", str(ref)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report) == 1
    assert 0.0 <= report[0]["discrepancy"] <= 1.0


def test_weights_command(tmp_path, capsys):
    inp = tmp_path / "d.json"
    inp.write_text(json.dumps({"discrepancies": [0.1, 0.4], "sample_counts": [100, 100]}))
    assert main(["weights", str(inp), "--lambda", "0.0"]) == 0
    alpha = json.loads(capsys.readouterr().out)["alpha"]
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


def test_train_command(small_config, capsys):
    assert main(["train", "--method", "ours", "--config", str(small_config)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["method"] == "ours"
    assert 0.0 <= result["test_error"] <= 1.0
    assert len(result["alpha"]) == 4  # 3 sources + appended reference


def test_train_command_with_a_one_point_grid_needs_no_folds(tmp_path, small_config, capsys):
    config = json.loads(small_config.read_text())
    config["data"]["synthetic"]["reference_size"] = 3  # fewer rows than the 5 folds
    path = tmp_path / "three_rows.json"
    path.write_text(json.dumps(config))
    for method in ("ours", "all_data", "geometric_median"):
        assert main(["train", "--method", method, "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["selected_ridge"] == 1e-2


def test_corrupt_command(tmp_path):
    src = tmp_path / "in.csv"
    _write_dataset(src, 3)
    out = tmp_path / "out.csv"
    assert main(["corrupt", "--input", str(src), "--output", str(out),
                 "--kind", "label_bias", "--proportion", "1.0", "--seed", "4"]) == 0
    corrupted = load_csv(out, "label")
    assert np.all(corrupted.labels == 1.0)


def test_corrupt_command_may_write_over_its_input(tmp_path, capsys):
    src, copy = tmp_path / "in.csv", tmp_path / "copy.csv"
    _write_dataset(src, 5, n=300)
    corrupt = ["--kind", "shuffled_features", "--proportion", "0.5", "--seed", "2"]
    assert _run(["corrupt", "--input", str(src), "--output", str(copy), *corrupt], capsys)[0] == 0
    assert _run(["corrupt", "--input", str(src), "--output", str(src), *corrupt], capsys)[0] == 0
    assert src.read_bytes() == copy.read_bytes()


def test_corrupt_command_forks_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    forks = []
    monkeypatch.setattr(_fork, "_start_child", lambda *args: forks.append(args))
    src = tmp_path / "in.csv"
    _write_dataset(src, 6, n=5000)
    assert _run(["corrupt", "--input", str(src), "--output", str(tmp_path / "out.csv"),
                 "--kind", "shuffled_labels"], capsys)[0] == 0
    assert forks == []


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


def _run(argv, capsys):
    """Exit code and stdout of one in-process CLI call."""
    code = main(argv)
    return code, capsys.readouterr().out


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_shared_parser_keeps_no_value_from_an_earlier_call(tmp_path, capsys):
    src, ref = tmp_path / "src.csv", tmp_path / "ref.csv"
    _write_dataset(src, 1)
    _write_dataset(ref, 2)
    # files whose label column is "y" read only with --label-column y, and
    # the call after that one reads "label" again
    src_y, ref_y = tmp_path / "src_y.csv", tmp_path / "ref_y.csv"
    for path, renamed in ((src, src_y), (ref, ref_y)):
        renamed.write_bytes(path.read_bytes().replace(b"label", b"y", 1))
    argv = ["discrepancy", str(src), "--reference", str(ref)]
    first = _run(argv, capsys)
    renamed = _run(["discrepancy", str(src_y), "--reference", str(ref_y), "--label-column", "y"],
                   capsys)
    assert renamed == (0, first[1].replace(str(src), str(src_y)))
    assert _run(argv, capsys) == first

    # a default after an explicit value is the default a fresh interpreter sees
    data = tmp_path / "in.csv"
    _write_dataset(data, 3)
    seeded, default, fresh = (tmp_path / f"{name}.csv" for name in ("seeded", "default", "fresh"))
    corrupt = ["corrupt", "--input", str(data), "--kind", "shuffled_labels", "--proportion", "0.5"]
    assert _run(corrupt + ["--output", str(seeded), "--seed", "7"], capsys)[0] == 0
    assert _run(corrupt + ["--output", str(default)], capsys)[0] == 0
    env = dict(os.environ, PYTHONPATH=str(Path(multisource.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "multisource", *corrupt, "--output", str(fresh)],
                   check=True, capture_output=True, env=env)
    assert default.read_bytes() == fresh.read_bytes() != seeded.read_bytes()

    # a usage error in between leaves the next call's result unchanged
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"discrepancies": [0.1, 0.4], "sample_counts": [10, 30]}))
    good = ["weights", str(weights), "--lambda", "0.5"]
    before = _run(good, capsys)
    with pytest.raises(SystemExit) as usage:
        main(["weights", str(weights)])
    assert usage.value.code == 2 and "--lambda" in capsys.readouterr().err
    assert _run(good, capsys) == before


def test_zero_one_files_give_the_results_of_their_signed_twins(tmp_path, capsys):
    signed = [tmp_path / f"{name}.csv" for name in ("a", "b", "ref", "test")]
    for seed, path in enumerate(signed):
        _write_dataset(path, seed + 1, n=30)
    zero_one = [zero_one_copy(path, tmp_path / f"{path.stem}_01.csv") for path in signed]

    def scores(a, b, ref):
        code, out = _run(["discrepancy", str(a), str(b), "--reference", str(ref)], capsys)
        assert code == 0
        return [(r["discrepancy"], r["solver_risk"], r["samples"]) for r in json.loads(out)]

    assert scores(*zero_one[:3]) == scores(*signed[:3])

    outputs = []
    for path in (signed[0], zero_one[0]):
        outputs.append(tmp_path / f"corrupted_{path.name}")
        assert _run(["corrupt", "--input", str(path), "--output", str(outputs[-1]), "--kind",
                     "shuffled_labels", "--proportion", "0.5", "--seed", "3"], capsys)[0] == 0
    assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def train(a, b, ref, test):
        config = tmp_path / "csv_config.json"
        config.write_text(json.dumps({
            "data": {"csv_paths": {"source_paths": [str(a), str(b)], "reference_path": str(ref),
                                   "test_path": str(test)}},
            "method": "ours", "lambda_grid": [0.1, 10.0], "ridge_grid": [0.01], "seed": 3}))
        code, out = _run(["train", "--method", "ours", "--config", str(config)], capsys)
        assert code == 0
        return out

    # each file is read on its own: a {0, 1} file may sit beside a {-1, 1} one
    assert train(signed[0], *zero_one[1:]) == train(*signed)


def test_the_encoding_option_is_gone(tmp_path, capsys):
    path = tmp_path / "d.csv"
    _write_dataset(path, 1)
    for argv in (["discrepancy", str(path), "--reference", str(path)],
                 ["corrupt", "--input", str(path), "--output", str(tmp_path / "out.csv"),
                  "--kind", "label_bias"]):
        with pytest.raises(SystemExit) as usage:
            main(argv + ["--encoding", "zero_one"])
        assert usage.value.code == 2 and "--encoding" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["discrepancy", "weights", "train"])
def test_the_json_commands_have_no_out_option(tmp_path, small_config, capsys, command):
    # each prints its JSON result to stdout once; a redirect writes it to a file
    path = tmp_path / "d.csv"
    _write_dataset(path, 1)
    weights = tmp_path / "w.json"
    weights.write_text(json.dumps({"discrepancies": [0.1], "sample_counts": [10]}))
    argv = {"discrepancy": ["discrepancy", str(path), "--reference", str(path)],
            "weights": ["weights", str(weights), "--lambda", "1"],
            "train": ["train", "--method", "ours", "--config", str(small_config)]}[command]
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as usage:
        main(argv + ["--out", str(out)])
    assert usage.value.code == 2 and "--out" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shift", [0, 1])
def test_invalid_input_prints_one_error_line(tmp_path, small_config, capsys, monkeypatch, shift):
    # `shift` good sources are read first, so each bad CSV file other than the
    # discrepancy command's reference (always read first) moves to the other
    # of the two readers
    monkeypatch.setattr(_fork, "usable_cpus", lambda: 2)
    reference_features = {"three_reference": 3, "constant_reference": 1}  # the others have 2
    for d in (1, 2, 3):
        rng = np.random.default_rng(10 + d)
        write_csv(Dataset(rng.standard_normal((20, d)), np.where(rng.random(20) < 0.5, 1.0, -1.0)),
                  tmp_path / f"pad_{d}.csv")

    def pad(reference: str) -> list[str]:
        d = reference_features.get(Path(reference).stem, 2)
        return [str(tmp_path / f"pad_{d}.csv")] * shift

    no_method = json.loads(small_config.read_text())
    del no_method["method"]
    bad_config = tmp_path / "no_method.json"
    bad_config.write_text(json.dumps(no_method))
    nested_grid = dict(json.loads(small_config.read_text()), lambda_grid=[[1.0]])
    nested_config = tmp_path / "nested_grid.json"
    nested_config.write_text(json.dumps(nested_grid))
    weights_inputs = {"empty": {}, "list": [1, 2], "no_counts": {"discrepancies": [0.1]},
                      "mapping": {"discrepancies": {"a": 0.1}, "sample_counts": [3]},
                      "out_of_range": {"discrepancies": [2.0], "sample_counts": [3]},
                      # ints too large for a float, written out in full
                      "huge_count": {"discrepancies": [0.1, 0.2], "sample_counts": [10**400, 5]},
                      "huge_discrepancy": {"discrepancies": [10**400], "sample_counts": [5]}}
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
    # corruption levels the 3-source pool cannot run, and a key that is gone
    no_levels, too_many = tmp_path / "no_levels.json", tmp_path / "too_many.json"
    for path, levels in ((no_levels, []), (too_many, [0, 1, 5])):
        path.write_text(json.dumps(dict(config, corruption=dict(config["corruption"],
                                                                n_corrupted=levels))))
    # a method listed twice would write each of its results rows twice
    twice = tmp_path / "twice.json"
    twice.write_text(json.dumps(dict(config, method=["all_data", "reference_only", "all_data"])))
    # a 3-row reference cannot be cut into the default 5 folds
    three_rows = {"synthetic": dict(synthetic, reference_size=3)}
    few_rows = tmp_path / "few_rows.json"
    few_rows.write_text(json.dumps(dict(config, data=three_rows, ridge_grid=[0.01, 0.1])))
    # a seed outside [0, 2**64) and an empty source list are named where the config is read
    negative_seed, huge_seed = tmp_path / "negative_seed.json", tmp_path / "huge_seed.json"
    for path, seed in ((negative_seed, -5), (huge_seed, 2**64)):
        path.write_text(json.dumps(dict(config, seed=seed)))
    no_sources = tmp_path / "no_sources.json"
    no_sources.write_text(json.dumps(dict(config, corruption=None, data={
        "csv_paths": dict(csv_data, source_paths=[])})))
    encoding_key = tmp_path / "label_encoding.json"
    encoding_key.write_text(json.dumps(dict(config, data={"csv_paths": dict(
        csv_data, label_encoding="zero_one")})))
    # features so large that their moments overflow
    for name, scale in (("huge_source", 1e200), ("huge_reference", 1e200),
                        ("huge_test", 1e200), ("plain_reference", 1.0)):
        rng = np.random.default_rng(len(name))
        write_csv(Dataset(scale * rng.standard_normal((40, 2)),
                          np.where(rng.random(40) < 0.5, 1.0, -1.0)), tmp_path / f"{name}.csv")
    huge_config, huge_source_config = tmp_path / "huge.json", tmp_path / "huge_source.json"
    huge_reference_config = tmp_path / "huge_reference.json"
    for path, source, reference in ((huge_config, "huge_source", "huge_reference"),
                                    (huge_source_config, "huge_source", "plain_reference"),
                                    (huge_reference_config, "plain_reference", "huge_reference")):
        path.write_text(json.dumps(dict(config, corruption=None, data={"csv_paths": {
            "source_paths": pad(reference) + [str(tmp_path / f"{source}.csv")],
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
        write_csv(Dataset(np.full((n, 1), 1e5), np.where(rng.random(n) < 0.5, 1.0, -1.0)),
                  tmp_path / f"{name}.csv")
    constant_config = tmp_path / "constant.json"
    constant_config.write_text(json.dumps(dict(config, corruption=None, data={"csv_paths": {
        "source_paths": pad("constant_reference") + [str(tmp_path / "constant_a.csv"),
                                                     str(tmp_path / "constant_b.csv")],
        "reference_path": str(tmp_path / "constant_reference.csv"),
        "test_path": str(tmp_path / "constant_reference.csv")}})))
    singular = ("the relaxation's system is singular to working precision; center or rescale "
                "the features\n")
    # a header-only file, a field over csv's size limit and text that is not
    # UTF-8 are each named by their path, by every command that reads them
    (tmp_path / "reference.csv").write_bytes(b"f0,f1,label\r\n")
    no_rows = f"{tmp_path / 'reference.csv'}: no data rows\n"
    (tmp_path / "long.csv").write_text(f"f0,f1,label\n1,{'2' * (csv.field_size_limit() + 1)},1\n")
    long_field = f"{tmp_path / 'long.csv'}: line 2: field larger than field limit"
    (tmp_path / "not_utf8.csv").write_bytes(b"f0,f1,label\n" + b"1.5,2,1\n" * 2000 + b"\xff,2,1\n")
    not_utf8 = f"{tmp_path / 'not_utf8.csv'}: not UTF-8 text (invalid start byte)\n"
    # a source whose feature count differs from the reference's is named
    for name, d in (("two_features", 2), ("three_features", 3), ("three_reference", 3)):
        rng = np.random.default_rng(d)
        write_csv(Dataset(rng.standard_normal((20, d)), np.where(rng.random(20) < 0.5, 1.0, -1.0)),
                  tmp_path / f"{name}.csv")
    csv_configs = {  # name: (sources, reference, test)
        "empty_reference": (["plain_reference"], "reference", "plain_reference"),
        "empty_source": (["plain_reference", "reference"], "plain_reference", "plain_reference"),
        "mismatch": (["three_features", "two_features"], "three_reference", "three_reference"),
        "empty_test": (["plain_reference"], "plain_reference", "reference"),
        "long_source": (["plain_reference", "long"], "plain_reference", "plain_reference"),
        "not_utf8_test": (["plain_reference"], "plain_reference", "not_utf8"),
        "mismatched_test": (["two_features"], "plain_reference", "three_reference"),
        "ragged_source": (["plain_reference", "ragged"], "plain_reference", "plain_reference"),
        "missing_test": (["plain_reference"], "plain_reference", "missing"),
    }
    for name, (sources, reference, test) in csv_configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(config, corruption=None, data={
            "csv_paths": {"source_paths": pad(reference) + [str(tmp_path / f"{s}.csv")
                                                            for s in sources],
                          "reference_path": str(tmp_path / f"{reference}.csv"),
                          "test_path": str(tmp_path / f"{test}.csv")}})))
    empty_reference_config = tmp_path / "empty_reference.json"
    mismatch = f"{tmp_path / 'two_features.csv'}: feature mismatch: source has 2, reference 3"
    mismatched_test = (f"{tmp_path / 'three_reference.csv'}: feature mismatch: test set has 3, "
                       "reference 2\n")
    # a file that cannot be parsed, or is missing, is named by its reader's error
    (tmp_path / "ragged.csv").write_text("f0,f1,label\n0.5,1.5,1\n2.5,-1\n")
    ragged = f"{tmp_path / 'ragged.csv'}: row 2 has 2 cells, expected 3\n"
    missing = f"no such file: {tmp_path / 'missing.csv'}\n"
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
        (["weights", str(tmp_path / "huge_count.json"), "--lambda", "1"],
         weights_error + "huge_count.json: sample_counts must be whole numbers below 2**53"),
        (["weights", str(tmp_path / "huge_discrepancy.json"), "--lambda", "1"],
         weights_error + "huge_discrepancy.json: discrepancies must lie in [0, 1]"),
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
        (["discrepancy", str(tmp_path / "plain_reference.csv"), str(tmp_path / "missing.csv"),
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {missing}"),
        (["discrepancy", str(tmp_path / "ragged.csv"), str(tmp_path / "missing.csv"),
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {ragged}"),
        (["train", "--method", "all_data", "--config", str(tmp_path / "ragged_source.json")],
         f"multisource train: error: {ragged}"),
        (["experiment", "--config", str(tmp_path / "missing_test.json"),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {missing}"),
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
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {huge_source}"),
        # the reference is checked before any source is read
        (["discrepancy", str(tmp_path / "huge_source.csv"),
          "--reference", str(tmp_path / "huge_reference.csv")],
         f"multisource discrepancy: error: {huge_reference}"),
        (["discrepancy", str(tmp_path / "plain_reference.csv"),
          "--reference", str(tmp_path / "huge_reference.csv")],
         f"multisource discrepancy: error: {huge_reference}"),
        (["experiment", "--config", str(no_levels), "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {no_levels}: n_corrupted must be a nonempty list"),
        (["experiment", "--config", str(too_many), "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {too_many}: n_corrupted=5 exceeds the pool's 3 "
         "sources\n"),
        (["experiment", "--config", str(negative_seed), "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {negative_seed}: seed must lie in [0, 2**64), "
         "got -5\n"),
        (["train", "--method", "ours", "--config", str(negative_seed)],
         f"multisource train: error: {negative_seed}: seed must lie in [0, 2**64), got -5\n"),
        (["simulate-federated", "--case", "2", "--config", str(negative_seed)],
         f"multisource simulate-federated: error: {negative_seed}: seed must lie in "
         "[0, 2**64), got -5\n"),
        (["train", "--method", "ours", "--config", str(huge_seed)],
         f"multisource train: error: {huge_seed}: seed must lie in [0, 2**64), "
         f"got {2**64}\n"),
        (["corrupt", "--input", str(tmp_path / "plain_reference.csv"), "--output",
          str(tmp_path / "noisy.csv"), "--kind", "label_bias", "--seed", "-1"],
         "multisource corrupt: error: seed must lie in [0, 2**64), got -1\n"),
        (["corrupt", "--input", str(tmp_path / "ragged.csv"), "--output",
          str(tmp_path / "noisy.csv"), "--kind", "label_bias"],
         f"multisource corrupt: error: {ragged}"),
        (["simulate-federated", "--case", "1", "--config", str(no_sources)],
         f"multisource simulate-federated: error: {no_sources}: source_paths must be a path or "
         "a nonempty list of paths, got []\n"),
        (["train", "--method", "ours", "--config", str(encoding_key)],
         f"multisource train: error: {encoding_key}: unknown CsvDataSpec key(s) in config: "
         "label_encoding\n"),
        (["train", "--method", "ours", "--config", str(huge_config)],
         f"multisource train: error: {huge_source}"),
        (["experiment", "--config", str(twice), "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {twice}: method 'all_data' is listed more than once\n"),
        (["train", "--method", "ours", "--config", str(few_rows)],
         "multisource train: error: cv_folds=5 exceeds the reference's 3 rows\n"),
        (["train", "--method", "geometric_median", "--config", str(few_rows)],
         "multisource train: error: cv_folds=5 exceeds the reference's 3 rows\n"),
        (["experiment", "--config", str(huge_source_config),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {huge_source}"),
        (["simulate-federated", "--case", "1", "--config", str(huge_config)],
         f"multisource simulate-federated: error: {huge_source}"),
        (["train", "--method", "batch_norm", "--config", str(huge_config)],
         f"multisource train: error: {huge_source}"),
        (["train", "--method", "all_data", "--config", str(tmp_path / "empty_test.json")],
         f"multisource train: error: {no_rows}"),
        (["experiment", "--config", str(tmp_path / "empty_test.json"),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {no_rows}"),
        (["train", "--method", "ours", "--config", str(tmp_path / "mismatched_test.json")],
         f"multisource train: error: {mismatched_test}"),
        (["train", "--method", "reference_only", "--config", str(empty_reference_config)],
         f"multisource train: error: {no_rows}"),
        (["experiment", "--config", str(empty_reference_config),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {no_rows}"),
        (["simulate-federated", "--case", "2", "--config", str(empty_reference_config)],
         f"multisource simulate-federated: error: {no_rows}"),
        (["train", "--method", "ours", "--config", str(tmp_path / "empty_source.json")],
         f"multisource train: error: {no_rows}"),
        (["corrupt", "--input", str(tmp_path / "reference.csv"), "--output",
          str(tmp_path / "noisy.csv"), "--kind", "label_bias"],
         f"multisource corrupt: error: {no_rows}"),
        (["discrepancy", str(tmp_path / "long.csv"),
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {long_field}"),
        (["corrupt", "--input", str(tmp_path / "long.csv"), "--output",
          str(tmp_path / "noisy.csv"), "--kind", "label_bias"],
         f"multisource corrupt: error: {long_field}"),
        (["simulate-federated", "--case", "1", "--config", str(tmp_path / "long_source.json")],
         f"multisource simulate-federated: error: {long_field}"),
        (["discrepancy", str(tmp_path / "plain_reference.csv"), str(tmp_path / "not_utf8.csv"),
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {not_utf8}"),
        (["corrupt", "--input", str(tmp_path / "not_utf8.csv"), "--output",
          str(tmp_path / "noisy.csv"), "--kind", "label_bias"],
         f"multisource corrupt: error: {not_utf8}"),
        (["experiment", "--config", str(tmp_path / "not_utf8_test.json"),
          "--out", str(tmp_path / "results.csv")],
         f"multisource experiment: error: {not_utf8}"),
        (["train", "--method", "all_data", "--config", str(tmp_path / "mismatch.json")],
         f"multisource train: error: {mismatch}\n"),
        (["simulate-federated", "--case", "1", "--config", str(tmp_path / "mismatch.json")],
         f"multisource simulate-federated: error: {mismatch}\n"),
        (["discrepancy", str(tmp_path / "plain_reference.csv"),
          "--reference", str(tmp_path / "reference.csv")],
         f"multisource discrepancy: error: {no_rows}"),
        (["discrepancy", str(tmp_path / "reference.csv"),
          "--reference", str(tmp_path / "plain_reference.csv")],
         f"multisource discrepancy: error: {no_rows}"),
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
    cases = [([argv[0], *pad(argv[argv.index("--reference") + 1]), *argv[1:]]
              if argv[0] == "discrepancy" else argv, message) for argv, message in cases]
    for argv, message in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning on the way fails the case
            assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message) and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
    assert not (tmp_path / "noisy.csv").exists()  # an invalid input creates no output
