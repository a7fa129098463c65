"""`main` builds its argument parser on the first call and keeps it. A run
must not see the subcommand, options or defaults of an earlier run: each
command below runs right after others that set different ones, and prints
what it prints with a parser of its own."""

import os

import pytest

from setaflp import cli

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
EX2 = os.path.join(DATA, "ex2.lp")
EX3 = os.path.join(DATA, "ex3.lp")
FIG1 = os.path.join(DATA, "fig1.setaf")

# Each command with an option set follows or precedes the same command
# on its defaults; a usage error (exit 2) sits in the middle.
SEQUENCE = [
    ["check", EX2, "--theorems", "inverse"],
    ["check", EX2],
    ["semantics", EX2, "--semantics", "all"],
    ["semantics", EX2],
    ["check", FIG1, "--max-atoms", "3"],
    ["check", FIG1, "--theorems", "bogus"],
    ["check", FIG1],
    ["labellings", FIG1, "--semantics", "grounded"],
    ["labellings", FIG1],
    ["translate", FIG1],
    ["normalize", EX3, "--strategy", "revlex", "--trace"],
    ["normalize", EX3],
    ["gen", "--kind", "setaf", "--seed", "3"],
    ["gen"],
]

# Commands whose output is pinned in tests/golden, as "exit=<code>" then
# stdout: check's --theorems defaults to all.
GOLDEN_RUNS = {
    ("check", EX2): "check-ex2.lp.txt",
    ("check", FIG1): "check-fig1.setaf.txt",
    ("semantics", EX2, "--semantics", "all"): "semantics-ex2.lp.txt",
    ("labellings", FIG1, "--semantics", "all"): "labellings-fig1.setaf.txt",
}


def run(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_prints_what_a_fresh_one_prints(capsys, monkeypatch):
    monkeypatch.setenv("SETAFLP_COLOR", "never")
    reused = [run(capsys, SEQUENCE[0])]
    parser = cli._parser
    reused += [run(capsys, argv) for argv in SEQUENCE[1:]]
    assert parser is not None and cli._parser is parser
    for argv, got in zip(SEQUENCE, reused):
        monkeypatch.setattr(cli, "_parser", None)
        assert run(capsys, argv) == got, argv
    codes = [code for code, _, _ in reused]
    assert codes == [0, 0, 0, 0, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("argv", list(GOLDEN_RUNS), ids=lambda argv: GOLDEN_RUNS[argv])
def test_golden_output_after_other_commands(capsys, monkeypatch, argv):
    monkeypatch.setenv("SETAFLP_COLOR", "never")
    for other in SEQUENCE:
        run(capsys, other)
    code, out, _ = run(capsys, argv)
    with open(os.path.join(GOLDEN, GOLDEN_RUNS[argv]), encoding="utf-8") as handle:
        assert f"exit={code}\n" + out == handle.read()
