"""The README's commands and config example still parse."""

import re
import shlex
from pathlib import Path

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
