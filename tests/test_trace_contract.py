"""What normalization promises to its readers: byte-stable traces from the
command line, and trace digests (with hashlib, which loads OpenSSL) only
where a trace is asked for."""

import os
import subprocess
import sys
import textwrap

import pytest

from setaflp.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
SRC = os.path.join(os.path.dirname(DATA), os.pardir, "src")

# Every step kind: a tautology, unfolds, positive reductions and a
# non-minimal rule.
MIXED = "a :- not b.\na :- not b, not c, d.\nb :- not a.\nd :- e, not f.\ne :- e.\ne :- not a.\n"

# `setaflp normalize --trace` output, steps and digests, as first recorded.
GOLDEN = {
    ("chain.lp", "lex"): (
        "#universe a, b.\n"
        "c.\n"
        "% 1 Unfold b :- a. on a -> be93905f6f81\n"
        "% 2 Unfold c :- a, not c. on a -> 2331de4c3065\n"
        "% 3 Tautology b :- b. -> 72de7cdfe897\n"
        "% 4 Unfold a :- b. on b -> 63736b892d16\n"
        "% 5 Unfold c :- b, not c. on b -> 637cfcc79ad3\n"
    ),
    ("chain.lp", "revlex"): (
        "#universe a, b.\n"
        "c.\n"
        "% 1 Unfold a :- b. on b -> 8586fa6a3330\n"
        "% 2 Tautology a :- a. -> 6cb85d447268\n"
        "% 3 Unfold b :- a. on a -> 7052260354fe\n"
        "% 4 Unfold c :- a, not c. on a -> 637cfcc79ad3\n"
    ),
    ("ex2.lp", "lex"): (
        "a :- not b.\n"
        "b :- not a.\n"
        "c :- not a, not c.\n"
        "c :- not c, not d.\n"
        "d :- not d.\n"
        "e :- not b, not e.\n"
    ),
    ("ex2.lp", "revlex"): (
        "a :- not b.\n"
        "b :- not a.\n"
        "c :- not a, not c.\n"
        "c :- not c, not d.\n"
        "d :- not d.\n"
        "e :- not b, not e.\n"
    ),
    ("ex3.lp", "lex"): (
        "#universe f, g.\n"
        "a.\n"
        "b.\n"
        "c :- not c.\n"
        "d :- not a, not d.\n"
        "d :- not c, not d.\n"
        "e :- not c, not e.\n"
        "% 1 Unfold b :- a. on a -> 1b13d6fb226a\n"
        "% 2 Unfold d :- b, not a, not d. on b -> 1ea8088edafd\n"
        "% 3 Unfold e :- b, c, not e. on b -> 1b5ec6430041\n"
        "% 4 Unfold e :- c, not e. on c -> 59262a10696f\n"
        "% 5 Unfold f :- c, g. on c -> 30dd33e712bd\n"
        "% 6 Tautology f :- f, g, not g. -> 68232b6073b6\n"
        "% 7 Unfold c :- f, not g. on f -> 9e4e512c8b57\n"
        "% 8 Unfold e :- f, not e, not g. on f -> e9a6c8bbf2e4\n"
        "% 9 Unfold c :- g, not c, not g. on g -> a56455db018a\n"
        "% 10 Unfold e :- g, not c, not e, not g. on g -> 43660cdfc487\n"
        "% 11 Unfold f :- g, not c. on g -> 2f768e6820c0\n"
    ),
    ("ex3.lp", "revlex"): (
        "#universe f, g.\n"
        "a.\n"
        "b.\n"
        "c :- not c.\n"
        "d :- not a, not d.\n"
        "d :- not c, not d.\n"
        "e :- not c, not e.\n"
        "% 1 Unfold f :- c, g. on g -> f9e0da4f4ea7\n"
        "% 2 Unfold c :- f, not g. on f -> 019cd72ac421\n"
        "% 3 Unfold e :- b, c, not e. on c -> b1428ea0bb68\n"
        "% 4 Unfold d :- b, not a, not d. on b -> bc094b278030\n"
        "% 5 Unfold e :- b, not c, not e. on b -> 6233b95e3e40\n"
        "% 6 Unfold b :- a. on a -> 9998e1e4cc62\n"
        "% 7 Unfold d :- a, not a, not d. on a -> f5fefcde534d\n"
        "% 8 Unfold e :- a, not c, not e. on a -> 2f768e6820c0\n"
    ),
    ("mixed.lp", "lex"): (
        "#universe c, f.\n"
        "a :- not b.\n"
        "b :- not a.\n"
        "d :- not a.\n"
        "e :- not a.\n"
        "% 1 Tautology e :- e. -> d05d8d203979\n"
        "% 2 Unfold a :- d, not b, not c. on d -> 0a3bd7f30c17\n"
        "% 3 Unfold a :- e, not b, not c, not f. on e -> 0a349fdeb98c\n"
        "% 4 Unfold d :- e, not f. on e -> fc8bde410c56\n"
        "% 5 PositiveReduction a :- not a, not b, not c, not f. on c -> 6903126a7b0e\n"
        "% 6 PositiveReduction a :- not a, not b, not f. on f -> 403149c599f4\n"
        "% 7 PositiveReduction d :- not a, not f. on f -> 3979735d7123\n"
        "% 8 NonMinimal a :- not a, not b. kept a :- not b. -> 4706ea33001d\n"
    ),
    ("mixed.lp", "revlex"): (
        "#universe c, f.\n"
        "a :- not b.\n"
        "b :- not a.\n"
        "d :- not a.\n"
        "e :- not a.\n"
        "% 1 Tautology e :- e. -> d05d8d203979\n"
        "% 2 Unfold d :- e, not f. on e -> b82db7ac3886\n"
        "% 3 Unfold a :- d, not b, not c. on d -> fc8bde410c56\n"
        "% 4 PositiveReduction a :- not a, not b, not c, not f. on c -> 6903126a7b0e\n"
        "% 5 PositiveReduction a :- not a, not b, not f. on f -> 403149c599f4\n"
        "% 6 PositiveReduction d :- not a, not f. on f -> 3979735d7123\n"
        "% 7 NonMinimal a :- not a, not b. kept a :- not b. -> 4706ea33001d\n"
    ),
}


@pytest.mark.parametrize("name, strategy", sorted(GOLDEN))
def test_normalize_trace_is_byte_stable(capsys, tmp_path, name, strategy):
    path = os.path.join(DATA, name)
    if name == "mixed.lp":
        path = tmp_path / name
        path.write_text(MIXED)
    assert main(["normalize", str(path), "--strategy", strategy, "--trace"]) == 0
    assert capsys.readouterr().out == GOLDEN[name, strategy]


def test_only_normalization_loads_hashlib():
    """check never digests a program, so a check of every data file leaves
    hashlib and _hashlib unloaded; one fair_normalize call loads them."""
    script = textwrap.dedent(
        f"""
        import contextlib, io, os, sys
        from setaflp.cli import main
        from setaflp.programs import rule, Program
        from setaflp.transform import fair_normalize
        data = {DATA!r}
        for name in sorted(os.listdir(data)):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["check", os.path.join(data, name), "--theorems", "all"]) == 0, name
        print(sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules))
        fair_normalize(Program([rule("a", pos="b"), rule("b")]))
        print(sorted(m for m in ("hashlib", "_hashlib") if m in sys.modules))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.path.abspath(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    ).stdout
    assert out.splitlines() == ["[]", "['_hashlib', 'hashlib']"]
