"""README must match the package: in its table of removed public names,
every removed name is gone and every selinks name it offers instead
exists; every `module.name` it quotes elsewhere exists; every resource
limit it quotes is the constant in the code; and every command of its
"Command line" block succeeds."""

import importlib
import re
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import selinks
from selinks.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(selinks.__file__).parent
# every module of the package, so a name in a module added later resolves too
MODULES = tuple(sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("_")))


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


def _resolve(path: str) -> bool:
    """Whether the dotted name exists: in a selinks module when its root
    names one, in the standard library when its root is a standard module,
    otherwise in the selinks package.  A module's file name, `name.py`,
    exists when src/selinks/name.py does."""
    root, *rest = path.split(".")
    if rest == ["py"] and (SRC / path).is_file():
        return True
    if root in MODULES:
        owner = importlib.import_module(f"selinks.{root}")
    elif root in sys.stdlib_module_names:
        owner, rest = importlib.import_module(root), rest
    elif hasattr(selinks, root):
        owner = getattr(selinks, root)
    else:
        return False
    for name in rest:
        if not hasattr(owner, name):
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


def test_module_names_in_readme_exist():
    # the removed-names table names what is gone on purpose
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("| removed | use instead |")
    end = next(i for i in range(start, len(lines)) if not lines[i].startswith("|"))
    text = "\n".join(lines[:start] + lines[end:])
    names = [path for path, root in re.findall(r"`((\w+)\.[\w.]+)`", text) if root in MODULES]
    assert {"writer._FIELDS", "cli.render_euclidean_rows", "writer.py"} <= set(names)
    for name in names:
        assert _resolve(name), name


def _figure(text: str) -> int:
    """The integer README writes as `50,000`, `10^6` or `1.5·10^10`."""
    if "^" in text:
        coefficient, _, power = text.rpartition("10^")
        return int(Fraction(coefficient.rstrip("·") or 1) * 10 ** int(power))
    return int(text.replace(",", ""))


def test_readme_quotes_every_limit_as_it_is_in_the_code():
    text = README.read_text(encoding="utf-8")
    quoted = re.findall(r"`(\w+)\.(\w+_LIMIT)` = ((?:[\d.]+·)?10\^\d+|\d[\d,]*)", text)
    assert ("links", "QUASI_SMOOTH_WALK_CELL_LIMIT", "1.5·10^10") in quoted
    for module, name, figure in quoted:
        assert getattr(importlib.import_module(f"selinks.{module}"), name) == _figure(figure), name
    limits = {
        (module, name)
        for module in MODULES
        for name in re.findall(r"^(\w+_LIMIT) = ", (SRC / f"{module}.py").read_text(), re.M)
    }
    assert ("arith", "COUNT_MONOMIALS_WORK_LIMIT") in limits
    assert limits <= {(module, name) for module, name, _ in quoted}


def _command_line_block() -> list[list[str]]:
    """The argument lists of the `selinks ...` lines in the first code block
    under "## Command line", comments dropped."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("```sh", lines.index("## Command line")) + 1
    end = lines.index("```", start)
    return [shlex.split(line, comments=True)[1:] for line in lines[start:end]
            if line.startswith("selinks ")]


def test_every_command_line_example_exits_0(tmp_path, monkeypatch, capsys):
    # bases.txt and catalog.json, the files the examples name, live in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bases.txt").write_text("# bases\n1,1,1;3\n1,2,3;6\n", encoding="utf-8")
    commands = _command_line_block()
    assert {argv[0] for argv in commands} == {
        "invariants", "cover", "certify", "moduli", "scan", "ingest"
    }
    for argv in commands:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
    assert (tmp_path / "catalog.json").is_file()
