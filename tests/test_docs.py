"""The README's commands and config example still parse, its library
quickstart runs, and every name its module map gives still exists."""

import functools
import importlib
import re
import shlex
from pathlib import Path

import numpy as np

from helpers import random_dataset
from multisource.cli import build_parser
from multisource.harness import config_from_json

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


def test_readme_commands_and_config_parse():
    commands = [shlex.split(line, comments=True)
                for block in _blocks("bash") for line in block.splitlines()
                if line.startswith("multisource ")]
    assert commands
    for argv in commands:
        build_parser().parse_args(argv[1:])
    [config] = _blocks("json")
    config_from_json(config)


def test_readme_quickstart_runs(capsys):
    [quickstart] = _blocks("python")
    rng = np.random.default_rng(0)
    names = ("src_a", "src_b", "src_c", "ref", "test_set")
    namespace = {name: random_dataset(rng, 40, 2) for name in names}
    exec(quickstart, namespace)
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0


def test_module_map_names_resolve():
    rows = re.findall(r"^\| `(multisource\.\w+)` \| (.*) \|$", README, flags=re.MULTILINE)
    assert len(rows) >= 8
    missing = []
    for module_name, description in rows:
        if module_name == "multisource.cli":  # its `multisource` is the command
            continue
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", description):
            try:
                functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                missing.append(f"{module_name}.{name}")
    assert not missing
