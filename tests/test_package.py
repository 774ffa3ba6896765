import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multisource

MODULES = sorted(m.name for m in pkgutil.iter_modules(multisource.__path__)
                 if m.name != "__main__")


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
             for p in sorted(Path(multisource.__file__).parent.glob("*.py"))}
    # a reference is a read of the name or of an attribute by that name;
    # neither a definition nor an import counts
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    unused = [f"{module}.{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
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
