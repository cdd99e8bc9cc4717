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


PACKAGE_MODULES = [
    importlib.import_module(f"moduli_atlas.{name}")
    for name in ("lattice", "hn", "torsion_free", "brill_noether", "oracle")
]

# the package's exports before it re-exported the module lists
EARLIER_EXPORTS = [
    "__version__", "Surface", "MukaiVector", "mukai_pairing", "euler_characteristic",
    "divisibility", "primitive_part", "ideal_sheaf_vector", "h0_line_bundle", "second_chern",
    "HNType", "ComponentRecord", "SEMISTABLE", "make_hn_type", "enumerate_hn_types",
    "dim_hn_stratum", "dim_hn_closed_form", "hnp_dominates", "DEFAULT_THRESHOLD",
    "mss_nonempty", "dim_mss", "classify_tf_components", "tf_listings", "BNInput", "BNReport",
    "VERDICT_WHOLE", "VERDICT_COMPONENTS", "VERDICT_EMPTY", "bn_mukai_vector", "exceptional",
    "classify_bn", "bn_runs", "GridSpec", "DEFAULT_GRID", "BnSummary", "Discrepancy",
    "oracle_enumerate", "oracle_bn", "bn_component_dimension_identities", "sweep",
]


def test_package_exports_are_the_module_lists():
    expected = ["__version__"] + [name for module in PACKAGE_MODULES for name in module.__all__]
    assert moduli_atlas.__all__ == expected
    assert len(expected) == len(set(expected))


def test_package_names_are_the_module_objects():
    for module in PACKAGE_MODULES:
        for name in module.__all__:
            assert getattr(moduli_atlas, name) is getattr(module, name), name
    assert set(EARLIER_EXPORTS) <= set(moduli_atlas.__all__)
    assert moduli_atlas.__version__ == importlib.import_module("moduli_atlas.version").VERSION


def test_each_public_name_has_one_home():
    # the package re-exports its submodules' lists; among the submodules, a
    # name is published by one module only
    homes: dict[str, str] = {}
    shared = []
    for name in MODULES[1:]:
        for attr in getattr(importlib.import_module(name), "__all__", []):
            if attr in homes:
                shared.append((attr, homes[attr], name))
            homes.setdefault(attr, name)
    assert shared == []
