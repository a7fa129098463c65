"""End-to-end command-line behaviour, including exit codes."""

import io
import os
import sys

from setaflp import propcheck
from setaflp.cli import main
from setaflp.propcheck import GenConfig, Suite, Verdict, gen_program, gen_setaf
from setaflp.programs import well_founded_model
from setaflp.setafs import grounded
from setaflp.textio import print_interpretation, print_labelling, print_program, print_setaf

DATA = os.path.join(os.path.dirname(__file__), "data")
EX2 = os.path.join(DATA, "ex2.lp")
EX3 = os.path.join(DATA, "ex3.lp")
FIG1 = os.path.join(DATA, "fig1.setaf")
CHAIN = os.path.join(DATA, "chain.lp")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semantics_lstable(capsys):
    code, out, _ = run(capsys, "semantics", EX2, "--semantics", "lstable")
    assert code == 0
    assert out == "T={b} F={a,e} U={c,d}\ncount=1\n"


def test_semantics_stable_empty(capsys):
    code, out, _ = run(capsys, "semantics", EX2, "--semantics", "stable")
    assert code == 0
    assert out == "count=0\n"


def test_semantics_default_is_pstable(capsys):
    code, out, _ = run(capsys, "semantics", EX2)
    assert code == 0
    assert out.splitlines() == [
        "T={} F={} U={a,b,c,d,e}",
        "T={a} F={b} U={c,d,e}",
        "T={b} F={a,e} U={c,d}",
        "count=3",
    ]


def test_semantics_all_blocks(capsys):
    code, out, _ = run(capsys, "semantics", EX2, "--semantics", "all")
    assert code == 0
    lines = out.splitlines()
    for header in ("# pstable", "# wf", "# regular", "# stable", "# lstable"):
        assert header in lines
    assert lines[-1] == "count=1"


def test_semantics_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("#universe a.\n"))
    code, out, _ = run(capsys, "semantics", "-")
    assert code == 0
    assert out == "T={} F={a} U={}\ncount=1\n"


def test_labellings_semistable(capsys):
    code, out, _ = run(capsys, "labellings", FIG1, "--semantics", "semistable")
    assert code == 0
    assert out == "in={b} out={a,e} undec={c,d}\ncount=1\n"


def test_labellings_complete_lists_all_three(capsys):
    code, out, _ = run(capsys, "labellings", FIG1, "--semantics", "complete")
    assert code == 0
    assert out.splitlines() == [
        "in={} out={} undec={a,b,c,d,e}",
        "in={a} out={b} undec={c,d,e}",
        "in={b} out={a,e} undec={c,d}",
        "count=3",
    ]


def test_labellings_grounded_single_arg(capsys, tmp_path):
    f = tmp_path / "one.setaf"
    f.write_text("arg a\n")
    code, out, _ = run(capsys, "labellings", str(f), "--semantics", "grounded")
    assert code == 0
    assert out == "in={a} out={} undec={}\ncount=1\n"


def test_wf_and_grounded_are_not_capped(capsys, tmp_path):
    # The two fixpoints scan nothing, so --max-atoms does not bound them;
    # under --semantics all the scanned pstable block comes first and hits
    # the cap.
    p = gen_program(GenConfig(20, 40, max_body_pos=3, seed=20))
    lp = tmp_path / "twenty.lp"
    lp.write_text(print_program(p))
    code, out, _ = run(capsys, "semantics", str(lp), "--semantics", "wf", "--max-atoms", "4")
    assert code == 0
    assert out == print_interpretation(well_founded_model(p), p.universe) + "\ncount=1\n"
    s = gen_setaf(GenConfig(20, 40, seed=20))
    af = tmp_path / "twenty.setaf"
    af.write_text(print_setaf(s))
    code, out, _ = run(capsys, "labellings", str(af), "--semantics", "grounded", "--max-atoms", "4")
    assert code == 0
    assert out == print_labelling(grounded(s)) + "\ncount=1\n"
    code, out, err = run(capsys, "semantics", str(lp), "--semantics", "all", "--max-atoms", "4")
    assert (code, out) == (3, "# pstable\n")
    assert err == "error: universe has 20 atoms, more than the cap of 4\n"


def test_translate_program_to_setaf(capsys):
    code, out, _ = run(capsys, "translate", EX2)
    assert code == 0
    assert out == (
        "arg a\narg b\narg c\narg d\narg e\n"
        "att b -> a\natt a -> b\natt c -> c\natt a,d -> c\n"
        "att d -> d\natt b -> e\natt e -> e\n"
    )


def test_translate_setaf_to_program(capsys):
    code, out, _ = run(capsys, "translate", FIG1)
    assert code == 0
    assert out == (
        "a :- not b.\nb :- not a.\nc :- not a, not c.\n"
        "c :- not c, not d.\nd :- not d.\ne :- not b, not e.\n"
    )


def test_translate_round_trip_through_files(capsys, tmp_path):
    code, out, _ = run(capsys, "translate", EX2)
    f = tmp_path / "mid.setaf"
    f.write_text(out)
    code, out2, _ = run(capsys, "translate", str(f))
    assert code == 0
    assert out2 == open(EX2).read().replace("% six-rule program with three partial stable models\n", "")


def test_translate_minimize_flag(capsys, tmp_path):
    f = tmp_path / "raw.setaf"
    f.write_text("arg a\narg b\narg c\natt a,b -> c\natt a -> c\n")
    code, _, err = run(capsys, "translate", str(f))
    assert code == 2 and "not minimal" in err
    code, out, _ = run(capsys, "translate", str(f), "--minimize")
    assert code == 0
    assert out == "a.\nb.\nc :- not a.\n"


def test_translate_needs_format_for_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("a.\n"))
    code, _, err = run(capsys, "translate", "-")
    assert code == 2
    assert "--format" in err
    monkeypatch.setattr("sys.stdin", io.StringIO("a.\n"))
    code, out, _ = run(capsys, "translate", "-", "--format", "lp")
    assert code == 0
    assert out == "arg a\n"


def test_normalize_reaches_the_fact(capsys):
    code, out, _ = run(capsys, "normalize", CHAIN)
    assert code == 0
    assert out == "#universe a, b.\nc.\n"


def test_normalize_trace_comments(capsys):
    code, out, _ = run(capsys, "normalize", CHAIN, "--strategy", "revlex", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "#universe a, b."
    assert lines[1] == "c."
    trace_lines = [l for l in lines if l.startswith("% ")]
    assert len(trace_lines) == 4


def test_normalize_step_cap_exit_code(capsys):
    code, _, err = run(capsys, "normalize", CHAIN, "--max-steps", "2")
    assert code == 3
    assert "exceeded 2 steps" in err


def test_check_all_reports_the_table(capsys):
    code, out, _ = run(capsys, "check", EX2, "--theorems", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["program", "setaf", "models", "labellings", "equal"]
    assert "partial-stable  complete     3       3           yes" in out
    assert "equivalence l-stable=semi-stable models=1 labellings=1 equal=yes" in lines
    assert "suite theorem-4.4: pass" in lines
    assert lines[-1].startswith("passed=")
    assert "failed=0" in lines[-1]


def test_check_lemma_1_on_a_program_with_many_statements(capsys, tmp_path):
    # Its statements, which differ by the rules they use, take over 100 000
    # combinations to enumerate; lemma-1 reads only each atom's minimal
    # vulnerability sets and runs in milliseconds.
    f = tmp_path / "tangled.lp"
    f.write_text(print_program(gen_program(GenConfig(3, 12, max_body_pos=3, seed=3012))))
    code, out, _ = run(capsys, "check", str(f), "--theorems", "all")
    assert code == 0
    assert "lemma-1" in out and "failed=0" in out.splitlines()[-1]


def test_check_lemma_1_on_a_program_with_wide_positive_bodies(capsys, tmp_path):
    # With 4-atom positive bodies, every (conclusion, vulnerability set)
    # pair of this program takes over 100 000 candidate sets to form;
    # lemma-1 reads only the minimal sets, which take far fewer.
    f = tmp_path / "wide.lp"
    f.write_text(print_program(gen_program(GenConfig(7, 20, max_body_pos=4, seed=24115))))
    code, out, _ = run(capsys, "check", str(f), "--theorems", "all")
    assert code == 0
    assert "suite lemma-1: pass" in out and "failed=0" in out.splitlines()[-1]


def test_check_single_group(capsys):
    code, out, _ = run(capsys, "check", FIG1, "--theorems", "inverse")
    assert code == 0
    assert "suite theorem-5: pass" in out
    assert "program" not in out.splitlines()[0]  # no table outside equivalence/all


def test_check_failure_dumps_a_replayable_instance(capsys, monkeypatch):
    def always_fails(instance, caps):
        return Verdict("theorem-1", "fail", "", "made-up witness")

    broken = dict(propcheck._SUITES)
    broken["theorem-1"] = Suite("theorem-1", "lp", "stub", always_fails)
    monkeypatch.setattr(propcheck, "_SUITES", broken)
    code, out, _ = run(capsys, "check", EX2, "--theorems", "inverse")
    assert code == 1
    assert "suite theorem-1: fail" in out
    assert "counterexample: made-up witness" in out
    assert "instance for replay:" in out
    assert "a :- not b." in out  # the instance itself is reprinted


def test_check_color_control(capsys, monkeypatch):
    monkeypatch.setenv("SETAFLP_COLOR", "always")
    _, out, _ = run(capsys, "check", EX2, "--theorems", "equivalence")
    assert "\x1b[32m" in out
    monkeypatch.setenv("SETAFLP_COLOR", "never")
    _, out, _ = run(capsys, "check", EX2, "--theorems", "equivalence")
    assert "\x1b[32m" not in out


def test_gen_is_reproducible(capsys):
    _, first, _ = run(capsys, "gen", "--kind", "lp", "--atoms", "5", "--rules", "6", "--seed", "42")
    _, second, _ = run(capsys, "gen", "--kind", "lp", "--atoms", "5", "--rules", "6", "--seed", "42")
    assert first == second
    assert first == "a.\nb.\nb :- a, e, not d, not e.\nc.\ne.\n"


def test_gen_setaf_parses_back(capsys):
    from setaflp.textio import parse_setaf

    _, out, _ = run(capsys, "gen", "--kind", "setaf", "--atoms", "4", "--rules", "5", "--seed", "7")
    parse_setaf(out)


def test_parse_error_exit_code(capsys, tmp_path):
    f = tmp_path / "bad.lp"
    f.write_text("a :- .\n")
    code, _, err = run(capsys, "semantics", str(f))
    assert code == 2
    assert "line 1, column 6" in err


def test_cap_exit_code(capsys, tmp_path):
    f = tmp_path / "big.lp"
    f.write_text("a :- not b.\n")
    code, _, err = run(capsys, "semantics", str(f), "--max-atoms", "1")
    assert code == 3
    assert "cap" in err


def test_translation_cap_exit_code(capsys, tmp_path):
    # b needs all of a1..a12, each with two fronts: 4096 minimal sets for b.
    f = tmp_path / "wide.lp"
    f.write_text(
        "b :- " + ", ".join(f"a{i}" for i in range(1, 13)) + ".\n"
        + "".join(f"a{i} :- not x{i}.\na{i} :- not y{i}.\n" for i in range(1, 13))
    )
    code, _, err = run(capsys, "translate", str(f), "--max-statements", "100")
    assert code == 3
    assert "cap" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "semantics", "/definitely/not/here.lp")
    assert code == 2
    assert "cannot read" in err


def _package_caches():
    """Every module-level lru_cache of the package, each once."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "setaflp" or name.startswith("setaflp."):
            for value in vars(module).values():
                if hasattr(value, "cache_info"):
                    found[id(value)] = value
    return list(found.values())


def test_check_caches_hold_one_instance_with_room_to_spare(capsys, tmp_path):
    """One `check --theorems all` run fills each cache to at most half its
    size, so a second identical run computes nothing again. The seeded
    7-atom programs have the longest normalization traces seen among such
    programs, which set the working set of the rewrite suites."""
    inputs = [os.path.join(DATA, name) for name in sorted(os.listdir(DATA))]
    seeded = [
        ("lp", print_program(gen_program(GenConfig(7, 14, seed=10)))),
        ("lp", print_program(gen_program(GenConfig(7, 14, max_body_pos=3, seed=21)))),
        ("lp", print_program(gen_program(GenConfig(7, 8, seed=3)))),
        ("setaf", print_setaf(gen_setaf(GenConfig(7, 8, seed=0)))),
        ("setaf", print_setaf(gen_setaf(GenConfig(7, 12, seed=1)))),
    ]
    for index, (kind, text) in enumerate(seeded):
        path = tmp_path / f"seeded{index}.{kind}"
        path.write_text(text)
        inputs.append(str(path))
    caches = _package_caches()
    assert len(caches) == 7
    for path in inputs:
        for cache in caches:
            cache.cache_clear()
        assert run(capsys, "check", path, "--theorems", "all")[0] == 0
        for cache in caches:
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize // 2, (path, cache, info)
        misses = [cache.cache_info().misses for cache in caches]
        assert run(capsys, "check", path, "--theorems", "all")[0] == 0
        assert [cache.cache_info().misses for cache in caches] == misses, path
