import importlib
import pkgutil

import pytest

import multisource

MODULES = sorted(m.name for m in pkgutil.iter_modules(multisource.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"multisource.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
