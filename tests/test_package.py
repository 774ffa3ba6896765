import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import config_to_json, write_csv
import multisource
from multisource.data import Dataset
from multisource.harness import CorruptionSetting, ExperimentConfig, SyntheticSpec

PACKAGE = Path(multisource.__file__).parent
SCRIPTS = Path(__file__).parents[1] / "scripts"
MODULES = sorted(m.name for m in pkgutil.iter_modules(multisource.__path__)
                 if m.name != "__main__")


def _reads(trees) -> set[str]:
    """Every name read in `trees`, as a name or as an attribute; neither a
    definition nor an import counts."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"multisource.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def _private_definitions(tree: ast.Module):
    """Top-level private functions, classes and constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_top_level_name_is_used():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = _reads(trees.values())
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert unused == []


def test_every_public_name_is_used_outside_the_tests():
    # a name in a module's __all__ is read by the package or its scripts, or
    # is exported by the package itself; a name only the tests read belongs
    # in the tests
    paths = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    used = _reads(ast.parse(p.read_text(encoding="utf-8")) for p in paths)
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{name}.{public}" for name in MODULES
              for public in getattr(importlib.import_module(f"multisource.{name}"), "__all__", ())
              if public not in used | exported]
    assert unused == []


def test_every_benchmark_fit_span_names_a_live_function():
    # bench/measure.py times these by name; one that no longer resolves
    # would make its ms-per-fit metric read 0 instead of failing
    source = Path(__file__).parents[1] / "bench" / "measure.py"
    [spans] = [ast.literal_eval(node.value) for node in ast.parse(source.read_text()).body
               if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id == "FIT_SPANS" for t in node.targets)]
    assert spans
    for span in spans:
        layer, name = span.split(".")
        assert callable(getattr(importlib.import_module(f"multisource.{layer}"), name, None)), span


def _version(text: str) -> str:
    """`text` less trailing ".0" parts, so that 2.0 and 2.0.0 compare equal."""
    return re.sub(r"(\.0)+$", "", text)


def test_the_lowest_versions_job_installs_every_floor_of_pyproject():
    # read with re: tomllib is missing on Python 3.10, and PyYAML is no test dependency
    root = Path(__file__).parents[1]
    project = (root / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    [dependencies] = re.findall(r"^dependencies = \[(.*?)\]", project, re.MULTILINE | re.DOTALL)
    floors = dict(re.findall(r'"([\w-]+)>=([^"]+)"', dependencies))
    floors["python"] = re.search(r'^requires-python = ">=([^"]+)"', project, re.MULTILINE)[1]
    [job] = re.findall(r"^  lowest-versions:\n(.*?)(?=^  \S|\Z)", workflow,
                       re.MULTILINE | re.DOTALL)
    pins = dict(re.findall(r'"([\w-]+)==([^"]+)"', job))
    pins["python"] = re.search(r'python-version: "([^"]+)"', job)[1]
    assert len(floors) == 3
    assert {k: _version(v) for k, v in floors.items()} == {k: _version(v) for k, v in pins.items()}


def test_every_python_file_parses_as_python_3_10():
    # pyproject.toml allows Python 3.10, so no file may use a newer syntax
    root = Path(__file__).parents[1]
    paths = [path for folder in ("src", "scripts", "tests")
             for path in sorted((root / folder).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_the_cli_loads_no_process_or_signal_module():
    # each would slow every CLI start; `multisource._fork`, which forks the
    # CSV readers of `multisource.data`, uses `os` alone
    heavy = ["signal", "multiprocessing", "concurrent.futures", "subprocess"]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys, multisource.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


_ORJSON_PROBE = """
import contextlib, io, os, sys
from multisource import _fork, cli, data
seen = {"import multisource.cli": "orjson" in sys.modules}
weights, config, csv_path = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["weights", weights, "--lambda", "0.5"]) == 0
    assert cli.main(["simulate-federated", "--case", "1", "--config", config]) == 0
    assert cli.main(["simulate-federated", "--case", "2", "--config", config, "--rounds", "50"]) == 0
seen["weights and simulate-federated"] = "orjson" in sys.modules
forks, fork = [], os.fork

def spy():
    forks.append("orjson" in sys.modules)
    return fork()

os.fork, _fork.usable_cpus = spy, lambda: 2
assert len(list(data.load_csvs([csv_path, csv_path]))) == 2
seen["each fork of load_csvs"] = forks
print(seen)
"""


def test_orjson_is_loaded_only_to_read_csv_files(tmp_path):
    # importing orjson adds about half a megabyte to a process's resident
    # memory; the CSV parse imports it on first use, and load_csvs before
    # its readers fork, so that they inherit it
    weights, config, csv_path = (tmp_path / name for name in ("w.json", "c.json", "d.csv"))
    weights.write_text('{"discrepancies": [0.1, 0.4], "sample_counts": [100, 100]}')
    config.write_text(config_to_json(ExperimentConfig(
        data=SyntheticSpec(n_sources=3, samples_per_source=25, reference_size=20,
                           test_size=100, n_features=2, class_separation=2.0),
        method=("all_data",), lambda_grid=(1.0,), ridge_grid=(1e-2,), repeats=1, seed=11,
        corruption=CorruptionSetting("shuffled_labels", (0,), 1.0))))
    write_csv(Dataset(np.arange(6.0).reshape(3, 2), np.array([1.0, -1.0, 1.0])), csv_path)
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", _ORJSON_PROBE, str(weights), str(config),
                           str(csv_path)], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == str({"import multisource.cli": False,
                                       "weights and simulate-federated": False,
                                       "each fork of load_csvs": [True, True]})
