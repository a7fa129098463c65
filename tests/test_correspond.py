"""Mappings between labellings and interpretations, and the equivalence report."""

import pytest
from hypothesis import given, settings, strategies as st

from setaflp.correspond import check_equivalence, i2l_af, i2l_p, l2i_af, l2i_p
from setaflp.errors import DomainMismatch
from setaflp.programs import Interpretation, Program, partial_stable_models, rule
from setaflp.setafs import Labelling, all_labellings, complete_labellings
from setaflp.translate import arguments, nlp_to_setaf

EX2 = Program(
    [
        rule("a", neg="b"),
        rule("b", neg="a"),
        rule("c", neg=["a", "c"]),
        rule("c", neg=["c", "d"]),
        rule("d", neg="d"),
        rule("e", neg=["b", "e"]),
    ]
)
EX3 = Program(
    [
        rule("a"),
        rule("b", pos="a"),
        rule("c", neg="c"),
        rule("d", pos="b", neg=["a", "d"]),
        rule("d", neg=["c", "d"]),
        rule("e", pos=["b", "c"], neg="e"),
        rule("c", pos="f", neg="g"),
        rule("f", pos=["c", "g"]),
    ]
)


def lab(in_="", out="", undec=""):
    return Labelling(frozenset(in_), frozenset(out), frozenset(undec))


def interp(true="", false=""):
    return Interpretation(frozenset(true), frozenset(false))


def test_l2i_p_on_a_known_row():
    l3 = lab("b", "ae", "cd")
    assert l2i_p(EX2, l3) == interp("b", "ae")


def test_l2i_p_forces_lost_atoms_false():
    all_undec = lab(undec="abcde")
    assert l2i_p(EX3, all_undec) == interp("", "fg")


def test_l2i_p_rejects_wrong_domain():
    with pytest.raises(DomainMismatch):
        l2i_p(EX3, lab(undec="abcdefg"))


def test_i2l_p_on_a_known_row():
    assert i2l_p(EX2, interp("a", "b")) == lab("a", "b", "cde")


def test_i2l_p_silently_restricts_to_the_arguments():
    assert i2l_p(EX3, interp("", "f")) == lab(undec="abcde")


def test_i2l_p_rejects_atoms_outside_the_universe():
    # f and g are universe atoms but no arguments: dropped. zz is no atom
    # of EX3 at all: rejected, never silently re-domained.
    assert i2l_p(EX3, interp("a", "fg")) == lab("a", "", "bcde")
    with pytest.raises(DomainMismatch):
        i2l_p(EX3, Interpretation(frozenset(["zz"])))
    with pytest.raises(DomainMismatch):
        i2l_p(EX3, Interpretation(frozenset("a"), frozenset(["f", "zz"])))


def test_af_mappings_and_domain_checks():
    l3 = lab("b", "ae", "cd")
    assert l2i_af(l3) == interp("b", "ae")
    assert i2l_af(interp("b", "ae"), "abcde") == l3
    with pytest.raises(DomainMismatch):
        i2l_af(interp("z", ""), "abcde")


def test_af_round_trip_on_a_known_labelling():
    l2 = lab("a", "b", "cde")
    assert i2l_af(l2i_af(l2), "abcde") == l2


def test_check_equivalence_matches_the_known_table():
    report = check_equivalence(EX2)
    assert report.ok
    by_name = {row.lp_name: row for row in report.rows}
    assert [row.lp_name for row in report.rows] == [
        "partial-stable",
        "well-founded",
        "regular",
        "stable",
        "l-stable",
    ]
    assert len(by_name["partial-stable"].models) == 3
    assert len(by_name["well-founded"].models) == 1
    assert len(by_name["regular"].models) == 2
    assert len(by_name["stable"].models) == 0
    assert len(by_name["l-stable"].models) == 1
    for row in report.rows:
        assert row.equal and row.counterexample is None
    assert report.program == EX2


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
@settings(max_examples=100, deadline=None)
def test_equivalence_report_is_always_ok(p):
    assert check_equivalence(p).ok


@given(programs_st())
@settings(max_examples=100)
def test_mappings_are_inverse_on_all_labellings(p):
    args = arguments(p)
    for l in all_labellings(args):
        assert i2l_p(p, l2i_p(p, l)) == l


@given(programs_st())
@settings(max_examples=100)
def test_complete_labellings_map_onto_partial_stable_models(p):
    s = nlp_to_setaf(p)
    models = set(partial_stable_models(p))
    assert {l2i_p(p, l) for l in complete_labellings(s)} == models
