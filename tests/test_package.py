"""The package's public surface: `selinks.__all__` is the union of its
modules' public names, and the first public name asked for imports them
(PEP 562), so that `import selinks` alone loads no library module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import selinks
from selinks import arith, errors, ke_cert, links, moduli, survey, topology


def test_all_is_the_union_of_the_modules_public_names_in_order():
    assert selinks.__all__ == [
        "__version__",
        *arith.__all__,
        *errors.__all__,
        *links.__all__,
        *topology.__all__,
        *ke_cert.__all__,
        *moduli.__all__,
        *survey.__all__,
    ]
    assert len(set(selinks.__all__)) == len(selinks.__all__)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from selinks import *", namespace)
    assert set(selinks.__all__) <= set(namespace)
    for name in selinks.__all__:
        assert namespace[name] is getattr(selinks, name), name


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'selinks' has no attribute 'no_such_name'"):
        selinks.no_such_name  # noqa: B018
    assert not hasattr(selinks, "no_such_name")


def test_the_library_is_imported_on_first_use():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = (
        "import sys, selinks\n"
        "print(sorted(m for m in sys.modules if m.startswith('selinks.')))\n"
        "print(selinks.arith.__name__, selinks.genus.__module__, hasattr(selinks, 'ScanConfig'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "selinks.arith selinks.topology True"]
