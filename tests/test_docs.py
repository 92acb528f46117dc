"""README's table of removed public names must match the package: every
removed name is gone, and every selinks name it offers instead exists."""

import dataclasses
import importlib
import re
import sys
from pathlib import Path

import selinks

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("arith", "cli", "errors", "ke_cert", "links", "moduli", "survey", "topology")


def _removed_names_table() -> list[tuple[list[str], list[str]]]:
    """(removed, use instead) per row, each a list of the backquoted names
    with any call arguments dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| removed | use instead |") + 2  # past the rule row
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        removed, instead = line.strip("|").split("|")
        rows.append(tuple([name.split("(")[0] for name in re.findall(r"`([^`]+)`", cell)]
                          for cell in (removed, instead)))
    return rows


def _has(owner, name: str) -> bool:
    fields = {f.name for f in dataclasses.fields(owner)} if dataclasses.is_dataclass(owner) else ()
    return hasattr(owner, name) or name in fields


def _resolve(path: str) -> bool:
    """Whether the dotted name exists: in the standard library when its
    root is a standard module, otherwise in selinks."""
    root, *rest = path.split(".")
    if root in sys.stdlib_module_names:
        owner, rest = importlib.import_module(root), rest
    elif _has(selinks, root):
        owner = getattr(selinks, root)
    else:
        return False
    for name in rest:
        if not _has(owner, name):
            return False
        owner = getattr(owner, name, None)
    return True


def test_removed_names_are_gone_from_selinks():
    modules = [selinks] + [importlib.import_module(f"selinks.{name}") for name in MODULES]
    rows = _removed_names_table()
    assert ["BpData", "bp_data"] in [removed for removed, _ in rows]
    for removed, _ in rows:
        for name in removed:
            assert name not in selinks.__all__, name
            if "." in name:
                assert not _resolve(name), name
            else:
                assert not any(hasattr(module, name) for module in modules), name


def test_names_to_use_instead_exist():
    names = [name for _, instead in _removed_names_table() for name in instead]
    assert "bp_sufficient_ke" in names
    for name in names:
        assert _resolve(name), name
