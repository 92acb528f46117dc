"""Random command lines through `cli.main`, in process.

Every command line must end in one of the documented exit codes (0 success,
1 usage, 2 integrity, 3 I/O, 4 resource budget) and never in an exception,
also when stderr cannot be written.
Values are drawn small, malformed, or huge; the huge ones are those a
budget refuses at once, so every run stays short.  The vocabulary drawn
from is checked against the parser, so no flag goes unfuzzed.
"""

import argparse
import math
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selinks import cli
from selinks.cli import main
from test_cli import Unwritable

FAMILIES = ("euclidean", "theorem2", "fermat-cy", "hyperbolic", "mixed-canonical")
SWITCHES = ("--expand-torsion", "--help", "--version")
PREFIXES = {
    1: "usage error: ",
    2: "integrity error: ",
    3: "i/o error: ",
    4: "resource budget error: ",
}


# long lists and numbers of thousands of digits, chosen so that each command
# line they make ends within about 0.4 s: the longest write megabytes (the
# cover of 2,000 ones at k = HUGE), or hold a Betti number past the
# int-to-str limit (2,000 ones at degree 1000000000).  The degrees of
# thousands of digits, and the weights d/p_i of the product d of the first
# 20 primes p_i, are refused by the Milnor-Orlik budget or the bitset budget
ONES = (",".join(["1"] * 1000), ",".join(["1"] * 2000), ",".join(["1"] * 1000 + ["2"] * 500))
HUGE = "9" * 2000
LONG_DEGREES = (str(10**3000 + 1), "9" * 4300)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
PRIMORIAL = math.prod(PRIMES)
PRIMORIAL_WEIGHTS = ",".join(str(PRIMORIAL // p) for p in PRIMES)
LONG_ROWS = (
    ONES[0] + ";3",
    ",".join(["1"] * 20000) + ";3",
    f"{ONES[0]};{LONG_DEGREES[0]}",
    f"{PRIMORIAL_WEIGHTS};{PRIMORIAL}",
    f"2,3,4;{LONG_DEGREES[1]}",
)
EXPONENTS = (",".join(["2"] * 1000), ",".join(str(2 + i % 7) for i in range(1000)))


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "good.txt").write_text("# rows\n1,1,1;3\n1,2,3;6\nfoo\n1,2,2;5\n", encoding="utf-8")
    (root / "bytes.txt").write_bytes(b"\xef\xbb\xbf1,1,1;3\r\n\xff\xfe\n1,1,2;4\r\n")
    (root / "long.txt").write_text("\n".join(["1,2,3;6", *LONG_ROWS]) + "\n", encoding="utf-8")
    return {
        "good": str(root / "good.txt"),
        "bytes": str(root / "bytes.txt"),
        "long": str(root / "long.txt"),
        "absent": str(root / "absent.txt"),
        "directory": str(root),
        "out": str(root / "out.txt"),
        "no-dir": str(root / "no" / "such" / "out.txt"),
    }


@pytest.fixture(scope="module")
def unwritable_runs():
    """The command lines already run with an unwritable stderr."""
    return set()


def flag_values(paths):
    """Per flag: values the parser accepts (small, or huge ones a budget
    refuses), then values it refuses."""
    return {
        "--weights": (["1,1,1", "1,2,3", "1,1,1,1", "1,2,4", "2,2,2", "1,2,2", "1,1,4",
                       "1000000000,1", "1,1,1,1,1,1", *ONES, f"1,2,{HUGE}", PRIMORIAL_WEIGHTS],
                      ["0,1,2", "1", "1,x", "", "1;2"]),
        "--degree": (["1", "3", "4", "5", "6", "12", "1000000000", "100000001", *LONG_DEGREES,
                      str(PRIMORIAL)],
                     ["0", "-3", "x"]),
        "--k": (["2", "5", "7", "1000000000", HUGE], ["0", "1", "-1", "x", ""]),
        "--exponents": (["3,4,4,4", "2,3,3,3", "2,3,7", "2,2", "1000000000,2,2", *EXPONENTS,
                         f"3,4,{HUGE}"], ["1,1", "0,2", "2", "", "x"]),
        "--format": (["table", "json", "csv"], ["xml"]),
        "--out": ([paths["out"], paths["no-dir"], paths["directory"], ""], []),
        "--weight-bound": (["1", "7", "60", "1000000", "1000000000000", HUGE], ["0", "x"]),
        "--k-bound": (["1", "2", "7", "60", "3000000", "1000000000000", HUGE],
                      ["0", "-5", "x"]),
        "--m": (["3..3", "3..5", "3..12", "4..4", "2..4", "3..33", "3..1000000000",
                 "1000000000..1000000000", f"3..{HUGE}"], ["8..3", "3..", "x", "3..x"]),
        "--k-range": (["2..7", "2..60", "5..5", "1..5", "73..79", "2..3000000", f"2..{HUGE}"],
                      ["7..2", "x"]),
    }


# per subcommand: the flags it requires, then the ones it may take
FLAGS = {
    "invariants": (("--weights", "--degree"), ("--format", "--out")),
    "cover": (("--k", "--weights", "--degree"), ("--format", "--out")),
    "certify": (("--exponents",), ("--format", "--out")),
    "moduli": (("--weights", "--degree"), ("--format", "--out")),
    "scan": ((), ("--weight-bound", "--k-bound", "--m", "--expand-torsion", "--format", "--out")),
    "ingest": ((), ("--k-range", "--expand-torsion", "--format", "--out")),
}


@st.composite
def command_lines(draw, paths):
    """A subcommand with its required flags (each left out now and then) and
    some of its optional ones, then a few tokens of any kind."""
    values = flag_values(paths)

    def flag(name):
        if name in SWITCHES:
            return [name]
        good, bad = values[name]
        return [name, draw(st.sampled_from(bad if bad and not draw(st.integers(0, 5)) else good))]

    command = draw(st.sampled_from([*FLAGS, "bogus", None]))
    argv = [] if command is None else [command]
    if command == "scan":
        argv.append(draw(st.sampled_from(FAMILIES)))
    elif command == "ingest":
        argv.append(paths[draw(st.sampled_from(["good", "bytes", "long", "absent", "directory"]))])
    required, optional = FLAGS.get(command, ((), ()))
    for name in required:
        if draw(st.integers(0, 9)):
            argv += flag(name)
    for name in draw(st.lists(st.sampled_from(optional), unique=True)) if optional else ():
        argv += flag(name)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        token = draw(st.sampled_from(sorted(values) + list(SWITCHES)))
        argv += flag(token) if draw(st.booleans()) else [token]
    return argv


@settings(
    derandomize=True,
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_every_command_line_ends_in_a_documented_exit_code(data, paths, unwritable_runs, capsys):
    argv = data.draw(command_lines(paths), label="argv")
    code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3, 4), argv
    lines = captured.err.splitlines()
    if code:
        # ingest's row diagnostics, then one line naming the failure
        assert lines[-1].startswith(PREFIXES[code]), (argv, captured.err)
        lines.pop()
    assert all(line.startswith("ingest: line ") for line in lines), (argv, captured.err)
    # with stderr unwritable the failure keeps its code, unless a row
    # diagnostic had to be written first: that is an i/o error.  Drawn lines
    # repeat, so each distinct line is run this way once
    if tuple(argv) not in unwritable_runs:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sys, "stderr", Unwritable())
            assert main(argv) == (3 if lines else code), argv
        capsys.readouterr()
        unwritable_runs.add(tuple(argv))


def test_the_vocabulary_is_the_parser(paths):
    """FAMILIES, FLAGS, SWITCHES and the flag values name exactly what
    `cli._build_parser` defines: a flag it drops cannot linger here, and a
    flag it adds cannot go unfuzzed."""
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(commands.choices) == set(FLAGS)
    switches, valued = set(), set()
    for action in parser._actions:
        switches.update(s for s in action.option_strings if s.startswith("--"))
    for command, sub in commands.choices.items():
        options = [a for a in sub._actions if a.option_strings and a.dest != "help"]
        required, optional = FLAGS[command]
        assert [a.option_strings for a in options if a.required] == [[f] for f in required]
        assert {a.option_strings[0] for a in options if not a.required} == set(optional)
        for action in options:
            (switches if action.nargs == 0 else valued).update(action.option_strings)
        if command == "scan":
            (family,) = [a for a in sub._actions if a.dest == "family"]
            assert tuple(family.choices) == FAMILIES
    assert switches == set(SWITCHES)
    assert valued == set(flag_values(paths))
