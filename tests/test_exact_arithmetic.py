"""Every answer is an exact integer: no module of the package can round.

Each module under `src/moduli_atlas/` is parsed, and its syntax tree may
hold no float or complex literal, no true division (`/` or `/=`), no call
to `float`, and no `math` function but `gcd` and `isqrt`.  So an answer
stays exact however large its inputs grow.
"""

import ast
from pathlib import Path

import pytest

import moduli_atlas

PACKAGE = Path(moduli_atlas.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
MATH_ALLOWED = {"gcd", "isqrt"}


def inexact_nodes(tree: ast.AST) -> list[str]:
    """One line per node of `tree` that could bring in a float."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            what = f"literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            what = "float(...)"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in MATH_ALLOWED
        ):
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = sorted({alias.name for alias in node.names} - MATH_ALLOWED)
            if not names:
                continue
            what = f"from math import {', '.join(names)}"
        else:
            continue
        found.append(f"line {node.lineno}: {what}")
    return found


def test_every_module_is_scanned():
    assert {"lattice.py", "hn.py", "torsion_free.py", "brill_noether.py", "oracle.py"} <= {
        path.name for path in MODULES
    }


@pytest.mark.parametrize("path", MODULES, ids=[str(path.relative_to(PACKAGE)) for path in MODULES])
def test_module_has_no_inexact_arithmetic(path):
    assert inexact_nodes(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "source",
    ["x = 0.5", "x = 2j", "x = a / 2", "x /= 2", "x = float(a)", "x = math.sqrt(a)",
     "from math import sqrt"],
)
def test_each_inexact_form_is_caught(source):
    assert len(inexact_nodes(ast.parse(source))) == 1


def test_exact_forms_pass():
    source = "from math import gcd\nx = a // 2; x //= 3; y = math.gcd(a, b) + math.isqrt(c)"
    assert inexact_nodes(ast.parse(source)) == []
