"""No floating point on any computation path: the library source holds no
float literal, no call of the `float` builtin and no float-valued `math`
function or constant.  The check reads the source, so it also covers code
no test happens to run."""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "selinks"

# every name of `math` whose value is a float, or that returns one; the
# integer-valued ones (gcd, lcm, comb, isqrt, floor, ceil, prod, ...) are fine
FLOAT_MATH = frozenset(
    {
        "acos", "acosh", "asin", "asinh", "atan", "atan2", "atanh", "cbrt", "copysign",
        "cos", "cosh", "degrees", "dist", "e", "erf", "erfc", "exp", "exp2", "expm1",
        "fabs", "fmod", "frexp", "fsum", "gamma", "hypot", "inf", "ldexp", "lgamma",
        "log", "log10", "log1p", "log2", "modf", "nan", "nextafter", "pi", "pow",
        "radians", "remainder", "sin", "sinh", "sqrt", "tan", "tanh", "tau", "ulp",
    }
)


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, description) of each floating-point construct in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "the float builtin"))
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr in FLOAT_MATH
        ):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names if a.name in FLOAT_MATH]
    return found


def test_float_math_names_exist():
    assert all(hasattr(math, name) for name in FLOAT_MATH - {"cbrt", "exp2"})


@pytest.mark.parametrize(
    "code",
    ["x = 0.5", "x = float(n)", "x = math.sqrt(n)", "from math import log", "x = 1j", "x = math.pi"],
)
def test_the_check_sees_floats(code):
    assert float_uses(ast.parse(code))


def test_the_check_passes_exact_code():
    assert not float_uses(ast.parse("x = math.gcd(a, b) + math.floor(Fraction(1, 2))"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_source_has_no_floating_point(path):
    uses = float_uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    assert not uses, [f"{path.name}:{line}: {what}" for line, what in uses]
