import importlib
import pkgutil

import pytest

import moduli_atlas

MODULES = ["moduli_atlas"] + [
    f"moduli_atlas.{info.name}" for info in pkgutil.iter_modules(moduli_atlas.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(exported) == len(set(exported))
