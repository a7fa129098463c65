"""Parsing, printing, and export formats."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from setaflp.correspond import check_equivalence
from setaflp.errors import DanglingArgument, NonMinimalAttack
from setaflp.programs import Interpretation, Program, partial_stable_models, rule
from setaflp.setafs import Attack, Labelling, validate_setaf
from setaflp.textio import (
    ParseError,
    ReservedAtom,
    export_dot,
    export_json,
    format_trace,
    parse_program,
    parse_setaf,
    print_interpretation,
    print_labelling,
    print_program,
    print_setaf,
    render_report,
    report_lines,
)
from setaflp.transform import LEX, fair_normalize


def test_parse_two_rule_program():
    p = parse_program("a :- not b.\nb :- not a.")
    assert p == Program([rule("a", neg="b"), rule("b", neg="a")])
    assert p.universe == frozenset("ab")


def test_statements_end_at_periods_not_at_line_ends():
    expected = Program([rule("a"), rule("b", pos="a"), rule("c", pos="a", neg="b")])
    assert parse_program("a. b :- a. c :- a, not b.") == expected
    assert parse_program("a\n.\nb :-\n  a.\nc :- a,\n     not b\n.\n") == expected


def test_parse_collapses_duplicates_and_ignores_comments():
    p = parse_program("% header\na :- b, b. % trailing\na :- b.\n")
    assert p.rules == frozenset([rule("a", pos="b")])


def test_parse_universe_directive():
    p = parse_program("#universe a, b.\n#universe c.\na.")
    assert p.universe == frozenset("abc")
    assert p.rules == frozenset([rule("a")])


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_program("a :- .")
    assert err.value.span.line == 1
    assert err.value.span.column == 6
    assert "line 1, column 6" in str(err.value)


def test_parse_error_on_later_line():
    with pytest.raises(ParseError) as err:
        parse_program("a.\nb :- not .\n")
    assert err.value.span.line == 2


def test_parse_rejects_missing_period():
    with pytest.raises(ParseError):
        parse_program("a :- b")


def test_parse_rejects_uppercase_atom():
    with pytest.raises(ParseError):
        parse_program("Big.")


def test_parse_rejects_the_reserved_placeholder():
    with pytest.raises(ReservedAtom):
        parse_program("a :- _u.")


def test_parse_rejects_not_as_an_atom():
    with pytest.raises(ParseError):
        parse_program("not.")


def test_print_program_canonical_form():
    p = Program([rule("b", neg="a"), rule("a", pos="c", neg="b")], universe=frozenset("abcd"))
    assert print_program(p) == "#universe d.\na :- c, not b.\nb :- not a.\n"
    assert print_program(Program([])) == ""


def test_print_then_parse_is_identity():
    p = Program([rule("a", pos="b", neg="c"), rule("b")], universe=frozenset("abcz"))
    assert parse_program(print_program(p)) == p


def test_parse_setaf_and_print_setaf():
    text = "arg a\narg b\narg c\natt a -> b\natt a,c -> c\n"
    s = parse_setaf(text)
    assert s == validate_setaf("abc", [("a", "b"), ("ac", "c")])
    assert print_setaf(s) == "arg a\narg b\narg c\natt a -> b\natt a,c -> c\n"


def test_parse_setaf_errors():
    with pytest.raises(DanglingArgument):
        parse_setaf("att a -> b\n")
    with pytest.raises(NonMinimalAttack):
        parse_setaf("arg a\narg b\narg c\natt a,b -> c\natt a -> c\n")
    with pytest.raises(ParseError):
        parse_setaf("arg a\natt a => a\n")
    with pytest.raises(ParseError):
        parse_setaf("banana a\n")


def test_parse_setaf_minimize_repairs():
    s = parse_setaf("arg a\narg b\narg c\natt a,b -> c\natt a -> c\n", minimize=True)
    assert s.attacks == frozenset([Attack(frozenset("a"), "c")])


def test_print_interpretation_format():
    i = Interpretation(frozenset("b"), frozenset("ae"))
    assert print_interpretation(i, "abcde") == "T={b} F={a,e} U={c,d}"
    empty = Interpretation(frozenset(), frozenset())
    assert print_interpretation(empty, "") == "T={} F={} U={}"


def test_print_labelling_format():
    l = Labelling(frozenset("a"), frozenset("b"), frozenset("cde"))
    assert print_labelling(l) == "in={a} out={b} undec={c,d,e}"


def test_export_dot_single_self_attack():
    s = validate_setaf("a", [("a", "a")])
    dot = export_dot(s)
    assert '"a" -> "a";' in dot
    assert "att0" not in dot


def test_export_dot_uses_a_junction_for_collective_attacks():
    s = validate_setaf("acd", [("c", "c"), ("ac", "d"), ("d", "d")])
    dot = export_dot(s)
    assert dot.count("shape=point") == 1
    assert '"a" -> "att0" [arrowhead=none];' in dot
    assert '"att0" -> "d";' in dot


def test_export_json_program_schema():
    p = Program([rule("a", neg="b")])
    obj = json.loads(export_json(p))
    assert obj == {
        "type": "program",
        "universe": ["a", "b"],
        "rules": [{"head": "a", "body_pos": [], "body_neg": ["b"]}],
    }


def test_export_json_setaf_schema():
    s = validate_setaf("ab", [("a", "b")])
    obj = json.loads(export_json(s))
    assert obj == {
        "type": "setaf",
        "arguments": ["a", "b"],
        "attacks": [{"source": ["a"], "target": "b"}],
    }


def test_export_json_report_schema():
    report = check_equivalence(Program([rule("a")]))
    obj = json.loads(export_json(report))
    assert obj["type"] == "equivalence-report"
    assert obj["ok"] is True
    assert len(obj["rows"]) == 5
    first = obj["rows"][0]
    assert set(first) == {
        "program_semantics",
        "setaf_semantics",
        "models",
        "labellings",
        "equal",
        "counterexample",
    }
    assert first["models"] == [{"true": ["a"], "false": []}]
    assert first["labellings"] == [{"in": ["a"], "out": [], "undec": []}]


def test_export_json_rejects_unknown_objects():
    from setaflp.errors import InputError

    with pytest.raises(InputError):
        export_json(42)


def test_render_report_plain_and_colored():
    report = check_equivalence(Program([rule("a")]))
    plain = render_report(report)
    assert plain.splitlines()[0].split() == ["program", "setaf", "models", "labellings", "equal"]
    assert "\x1b[32m" not in plain
    colored = render_report(report, color=True)
    assert "\x1b[32m" in colored


def test_report_lines_are_greppable():
    report = check_equivalence(Program([rule("a")]))
    lines = report_lines(report)
    assert lines[0] == "equivalence partial-stable=complete models=1 labellings=1 equal=yes"
    assert len(lines) == 5


def test_format_trace_lines():
    p = parse_program("a :- b.\nb :- a.\nc :- a, not c.\nc.\n")
    _, trace = fair_normalize(p, LEX)
    lines = format_trace(trace)
    assert len(lines) == len(trace)
    assert lines[0].startswith("1 Unfold")
    assert all("-> " in line for line in lines)


@st.composite
def programs_st(draw):
    pool = sorted(draw(st.sets(st.sampled_from("abcd"), min_size=1, max_size=4)))
    rules = []
    for _ in range(draw(st.integers(0, 6))):
        head = draw(st.sampled_from(pool))
        pos = draw(st.sets(st.sampled_from(pool), max_size=2))
        neg = draw(st.sets(st.sampled_from(pool), max_size=2))
        rules.append(rule(head, pos, neg))
    return Program(rules, universe=frozenset(pool))


@given(programs_st())
@settings(max_examples=200)
def test_parse_print_round_trip_programs(p):
    assert parse_program(print_program(p)) == p


@given(programs_st())
@settings(max_examples=100)
def test_parse_print_round_trip_setafs(p):
    from setaflp.translate import nlp_to_setaf

    s = nlp_to_setaf(p)
    assert parse_setaf(print_setaf(s)) == s


@given(programs_st())
@settings(max_examples=50)
def test_json_export_is_loadable_and_ordered(p):
    obj = json.loads(export_json(p))
    assert obj["universe"] == sorted(p.universe)
    models = partial_stable_models(p)
    assert len(models) >= 1
