"""Core program machinery: rules, reducts, fixpoints, model families."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from setaflp import programs
from setaflp.errors import CapExceeded, DomainMismatch, InputError
from setaflp.programs import (
    Interpretation,
    PositiveProgram,
    PositiveRule,
    Program,
    Rule,
    all_interpretations,
    l_stable_models,
    least_model,
    narrow_universe,
    omega,
    partial_stable_models,
    psi_step,
    reduct,
    regular_models,
    rule,
    stable_models,
    well_founded_model,
)
from setaflp.propcheck import GenConfig, gen_program, gen_setaf
from setaflp.translate import setaf_to_nlp

EX2_RULES = (
    rule("a", neg=["b"]),
    rule("b", neg=["a"]),
    rule("c", neg=["a", "c"]),
    rule("c", neg=["c", "d"]),
    rule("d", neg=["d"]),
    rule("e", neg=["b", "e"]),
)
EX2 = Program(EX2_RULES)

M1 = Interpretation(frozenset(), frozenset())
M2 = Interpretation(frozenset("a"), frozenset("b"))
M3 = Interpretation(frozenset("b"), frozenset("ae"))


def interp(true="", false=""):
    return Interpretation(frozenset(true), frozenset(false))


def test_rule_coerces_and_prints():
    r = Rule("c", ["a"], ["b"])
    assert r.body_pos == frozenset("a") and r.body_neg == frozenset("b")
    assert str(r) == "c :- a, not b."
    assert str(rule("c")) == "c."
    assert rule("c").is_fact and rule("c", neg="b").is_atomic
    assert not rule("c", pos="a").is_atomic


def test_equal_rule_bodies_share_one_set():
    a, b = rule("a", pos=["x", "y"], neg="z"), Rule("b", frozenset("yx"), ["z"])
    assert a.body_pos is b.body_pos and a.body_neg is b.body_neg
    assert rule("c").body_pos is rule("d", neg="e").body_pos


def test_shared_body_table_stays_bounded():
    made = [rule("a", pos=[f"p{i}"], neg=[f"n{i}"]) for i in range(3 * programs._BODIES_MAX)]
    assert len(programs._BODIES) <= programs._BODIES_MAX
    assert all(r.body_pos == {f"p{i}"} and r.body_neg == {f"n{i}"} for i, r in enumerate(made))


def test_sorted_rules_is_a_fresh_list():
    p = Program([rule("b"), rule("a", neg="b")])
    p.sorted_rules().clear()
    assert p.sorted_rules() == [rule("a", neg="b"), rule("b")]


def test_rule_rejects_bad_atoms():
    with pytest.raises(InputError):
        rule("Not_an_atom")
    with pytest.raises(InputError):
        rule("a", pos=["not"])
    with pytest.raises(InputError):
        rule("a", neg=["1b"])


def test_program_universe_defaults_to_occurring_atoms():
    p = Program([rule("a", neg="b")])
    assert p.universe == frozenset("ab")


def test_program_universe_may_be_wider_but_not_narrower():
    p = Program([rule("a")], universe=frozenset("ab"))
    assert p.universe == frozenset("ab")
    with pytest.raises(DomainMismatch):
        Program([rule("a", neg="b")], universe=frozenset("a"))


def test_narrow_universe_drops_unmentioned_atoms():
    p = Program([rule("a")], universe=frozenset("abc"))
    assert narrow_universe(p).universe == frozenset("a")


def test_duplicate_rules_collapse():
    p = Program([rule("a", neg="b"), rule("a", neg=["b", "b"])])
    assert len(p.rules) == 1


def test_interpretation_rejects_overlap():
    with pytest.raises(InputError):
        Interpretation(frozenset("a"), frozenset("a"))


def test_interpretation_helpers():
    i = interp("b", "ae")
    assert i.undefined("abcde") == frozenset("cd")
    assert not i.is_total("abcde")
    assert i.is_total("abe")
    assert i.restrict("ab") == interp("b", "a")
    assert str(i) == "<T={b} F={a,e}>"


def test_reduct_drops_blocked_rules_and_erases_false_literals():
    q = reduct(EX2, M3)
    by_head = {}
    for r in q.rules:
        by_head.setdefault(r.head, []).append(r)
    # a :- not b blocked (b true); e :- not b, not e blocked likewise.
    assert "a" not in by_head and "e" not in by_head
    # b :- not a becomes the fact b (a is false).
    assert by_head["b"] == [PositiveRule("b", frozenset(), False)]
    # both c rules keep an undefined guard; so does d :- not d.
    assert all(r.has_undef and not r.body for r in by_head["c"])
    assert by_head["d"][0].has_undef
    assert q.universe == EX2.universe


def test_reduct_erasing_all_false_literals_gives_a_fact():
    p = Program([rule("c", neg="c")])
    q = reduct(p, interp("", "c"))
    assert q.rules == frozenset([PositiveRule("c", frozenset(), False)])


def test_reduct_undefined_literal_becomes_guard():
    p = Program([rule("a", neg="b")])
    q = reduct(p, interp())
    assert q.rules == frozenset([PositiveRule("a", frozenset(), True)])


def test_psi_step_fires_facts_and_falsifies_ruleless_atoms():
    q = PositiveProgram(frozenset([PositiveRule("c", frozenset(), False)]), frozenset("cd"))
    assert psi_step(q, interp("", "cd")) == interp("c", "d")


def test_psi_step_guarded_rule_blocks_both_labels():
    q = PositiveProgram(frozenset([PositiveRule("c", frozenset(), True)]), frozenset("c"))
    assert psi_step(q, interp("", "c")) == interp()


def test_psi_step_propagates_along_positive_bodies():
    q = PositiveProgram(
        frozenset([PositiveRule("b", frozenset(), False), PositiveRule("a", frozenset("b"), False)]),
        frozenset("ab"),
    )
    assert psi_step(q, interp("b", "")) == interp("ab", "")


def test_least_model_of_a_fact():
    q = PositiveProgram(frozenset([PositiveRule("c", frozenset(), False)]), frozenset("c"))
    assert least_model(q) == interp("c", "")


def test_least_model_guard_stays_undefined():
    q = PositiveProgram(frozenset([PositiveRule("c", frozenset(), True)]), frozenset("c"))
    assert least_model(q) == interp()


def test_least_model_positive_loop_is_false():
    q = PositiveProgram(frozenset([PositiveRule("a", frozenset("a"), False)]), frozenset("a"))
    assert least_model(q) == interp("", "a")


def test_least_model_of_m3_reduct_returns_m3():
    assert least_model(reduct(EX2, M3)) == M3


def test_omega_fixpoints_and_non_fixpoints():
    assert omega(EX2, M3) == M3
    assert omega(EX2, M1) == M1
    p = Program([rule("a")])
    assert omega(p, interp("", "a")) == interp("a", "")


def test_omega_rejects_foreign_atoms():
    with pytest.raises(DomainMismatch):
        omega(EX2, Interpretation(frozenset("z"), frozenset()))


def test_partial_stable_models_of_the_six_rule_program():
    assert partial_stable_models(EX2) == [M1, M2, M3]


def test_partial_stable_models_ruleless_atom():
    p = Program([], universe=frozenset("a"))
    assert partial_stable_models(p) == [interp("", "a")]


def test_partial_stable_models_self_blocking_rule():
    p = Program([rule("c", neg="c")])
    assert partial_stable_models(p) == [interp()]


def test_model_family_selections():
    assert well_founded_model(EX2) == M1
    assert regular_models(EX2) == [M2, M3]
    assert stable_models(EX2) == []
    assert l_stable_models(EX2) == [M3]


def test_selections_on_a_single_fact():
    p = Program([rule("a")])
    only = interp("a", "")
    assert well_founded_model(p) == only
    assert regular_models(p) == [only]
    assert stable_models(p) == [only]
    assert l_stable_models(p) == [only]


def test_l_stable_need_not_be_stable():
    p = Program([rule("c", neg="c"), rule("d")])
    assert stable_models(p) == []
    assert l_stable_models(p) == [interp("d", "")]


def test_enumeration_cap():
    p = Program([], universe=frozenset(f"a{i}" for i in range(5)))
    with pytest.raises(CapExceeded):
        partial_stable_models(p, max_atoms=4)
    assert len(partial_stable_models(p, max_atoms=5)) == 1


def test_all_interpretations_count():
    assert sum(1 for _ in all_interpretations("ab")) == 9
    assert list(all_interpretations("")) == [interp()]


def atoms_st(max_size=4):
    return st.sets(st.sampled_from("abcde"), max_size=max_size)


@st.composite
def programs_st(draw):
    pool = sorted(draw(st.sets(st.sampled_from("abcd"), min_size=1, max_size=4)))
    n_rules = draw(st.integers(0, 6))
    rules = []
    for _ in range(n_rules):
        head = draw(st.sampled_from(pool))
        pos = draw(st.sets(st.sampled_from(pool), max_size=2))
        neg = draw(st.sets(st.sampled_from(pool), max_size=2))
        rules.append(rule(head, pos, neg))
    return Program(rules, universe=frozenset(pool))


def reference_omega(p, i):
    """Spelled-out reduct-then-least-model composition, no shortcuts."""
    return least_model(reduct(p, i))


@given(programs_st())
@settings(max_examples=150)
def test_fixpoint_scan_agrees_with_reference_omega(p):
    """The enumerated fixpoints are exactly those of the plain-object operator."""
    expected = sorted(
        (i for i in all_interpretations(p.universe) if reference_omega(p, i) == i),
        key=Interpretation.sort_key,
    )
    assert partial_stable_models(p) == expected


def assert_sweep_matches_omega(p):
    """The bitmask sweep visits the interpretations in all_interpretations
    order and gives omega's image of each one, fixpoint or not."""
    ip = programs._IndexedProgram(p)
    swept = [
        (Interpretation(ip.unmask(t), ip.unmask(f)), Interpretation(ip.unmask(wt), ip.unmask(wf)))
        for t, f, wt, wf in programs._reduct_sweep(ip)
    ]
    assert swept == [(i, reference_omega(p, i)) for i in all_interpretations(p.universe)]


@given(programs_st())
@settings(max_examples=150)
def test_sweep_gives_omega_of_every_interpretation(p):
    assert_sweep_matches_omega(p)


@pytest.mark.parametrize("max_body_pos", [2, 3])
def test_sweep_gives_omega_of_every_interpretation_on_seeded_programs(max_body_pos):
    assert_sweep_matches_omega(Program([]))
    for seed in range(60):
        cfg = GenConfig(1 + seed % 6, 2 + seed % 11, max_body_pos=max_body_pos, seed=seed)
        assert_sweep_matches_omega(gen_program(cfg))


@given(programs_st())
@settings(max_examples=100)
def test_omega_output_is_consistent(p):
    for i in all_interpretations(p.universe):
        w = omega(p, i)
        assert not (w.true & w.false)
        assert w.true | w.false <= p.universe


@given(programs_st())
@settings(max_examples=100)
def test_well_founded_is_the_information_minimum(p):
    wf = well_founded_model(p)
    for m in partial_stable_models(p):
        assert wf.true <= m.true and wf.false <= m.false


# --- the well-founded fixpoint and the filters against their definitions -------


def reference_well_founded(p):
    """The definition over the family: the partial stable model with
    inclusion-least true set, of which there is exactly one."""
    models = partial_stable_models(p)
    least = [m for m in models if not any(o.true < m.true for o in models)]
    assert len(least) == 1, f"{len(least)} true-minimal partial stable models"
    return least[0]


def assert_selections_match_their_definitions(p):
    models = partial_stable_models(p)
    undefined = {m: m.undefined(p.universe) for m in models}
    assert well_founded_model(p) == reference_well_founded(p)
    assert regular_models(p) == [m for m in models if not any(m.true < o.true for o in models)]
    assert l_stable_models(p) == [
        m for m in models if not any(undefined[o] < undefined[m] for o in models)
    ]


@given(programs_st())
@settings(max_examples=150)
def test_selections_match_their_definitions(p):
    assert_selections_match_their_definitions(p)


@pytest.mark.parametrize("max_body_pos", [2, 3])
def test_selections_match_their_definitions_on_seeded_programs(max_body_pos):
    partial_wf = 0
    for seed in range(200):
        cfg = GenConfig(
            1 + seed % 8,
            2 + seed % 15,
            max_body_pos=max_body_pos,
            fact_probability=(0.3, 0.1)[seed % 2],
            seed=seed,
        )
        p = gen_program(cfg)
        assert_selections_match_their_definitions(p)
        partial_wf += not well_founded_model(p).is_total(p.universe)
    # Not vacuous: the fixpoint stops short of a total model on a fair share.
    assert partial_wf >= 25, partial_wf


def test_selections_match_their_definitions_on_programs_of_seeded_setafs():
    # Random programs seldom have two regular models; the programs of
    # random SETAFs often do.
    several_regular = several_l_stable = 0
    for seed in range(200):
        p = setaf_to_nlp(gen_setaf(GenConfig(1 + seed % 8, 1 + seed % 12, seed=seed)))
        assert_selections_match_their_definitions(p)
        several_regular += len(regular_models(p)) > 1
        several_l_stable += len(l_stable_models(p)) > 1
    assert several_regular >= 10 and several_l_stable >= 7, (several_regular, several_l_stable)


def test_well_founded_model_has_no_atom_cap():
    p = gen_program(GenConfig(40, 80, max_body_pos=3, seed=40))
    start = time.perf_counter()
    wf = well_founded_model(p)
    assert time.perf_counter() - start < 1.0
    assert omega(p, wf) == wf
    assert wf.true and wf.false
