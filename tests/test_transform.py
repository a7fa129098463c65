"""Program transformations, traces, and fair normalization."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from setaflp.errors import InputError, StepCapExceeded, StepNotApplicable
from setaflp.programs import Program, partial_stable_models, rule
from setaflp.transform import (
    LEX,
    REVERSE_LEX,
    StepKind,
    TraceEntry,
    TransformStep,
    _steps,
    applicable_steps,
    apply,
    fair_normalize,
    is_irreducible,
    program_digest,
    replay,
)
from setaflp.translate import is_rfalp, nlp_to_setaf, setaf_to_nlp

CHAIN = Program([rule("a", pos="b"), rule("b", pos="a"), rule("c", pos="a", neg="c"), rule("c")])


def unfold(r, atom):
    return TransformStep(StepKind.UNFOLD, r, atom=atom)


def tautology(r):
    return TransformStep(StepKind.TAUTOLOGY, r)


def pos_reduction(r, atom):
    return TransformStep(StepKind.POSITIVE_REDUCTION, r, atom=atom)


def non_minimal(r, keep):
    return TransformStep(StepKind.NON_MINIMAL, r, keep=keep)


def test_step_field_validation():
    r = rule("a", pos="b")
    with pytest.raises(InputError):
        TransformStep(StepKind.UNFOLD, r)  # missing atom
    with pytest.raises(InputError):
        TransformStep(StepKind.TAUTOLOGY, r, atom="b")
    with pytest.raises(InputError):
        TransformStep(StepKind.NON_MINIMAL, r)  # missing keep


def test_applicable_steps_on_an_rfalp_is_empty():
    p = Program([rule("a", neg="b"), rule("b", neg="a")])
    assert applicable_steps(p) == []
    assert is_irreducible(p)


def test_applicable_steps_finds_each_kind():
    p = Program([rule("c", pos="a", neg="c"), rule("a")])
    kinds = {s.kind for s in applicable_steps(p)}
    assert StepKind.UNFOLD in kinds
    # the loop rule is its own definer, so unfolding applies alongside the tautology
    loop = Program([rule("a", pos="a")])
    assert {s.kind for s in applicable_steps(loop)} == {StepKind.UNFOLD, StepKind.TAUTOLOGY}
    dangling = Program([rule("c", neg="b")])
    assert {s.kind for s in applicable_steps(dangling)} == {StepKind.POSITIVE_REDUCTION}
    doubled = Program([rule("c", neg=["a", "b"]), rule("c", neg="a"), rule("a"), rule("b")])
    assert StepKind.NON_MINIMAL in {s.kind for s in applicable_steps(doubled)}


def test_unfold_splices_the_definer_body():
    r = rule("c", pos="a", neg="d")
    definer = rule("a", pos="e", neg="f")
    p = Program([r, definer])
    q = apply(p, unfold(r, "a"))
    assert q.rules == frozenset([rule("c", pos="e", neg=["f", "d"]), definer])
    assert q.universe == p.universe


def test_unfold_on_the_chain_program():
    target = next(r for r in CHAIN.rules if r == rule("a", pos="b"))
    q = apply(CHAIN, unfold(target, "b"))
    assert rule("a", pos="a") in q.rules
    assert rule("b", pos="a") in q.rules


def test_unfold_without_definers_drops_the_rule():
    p = Program([rule("b", pos="a"), rule("c")], universe=frozenset("abc"))
    q = apply(p, unfold(rule("b", pos="a"), "a"))
    assert q.rules == frozenset([rule("c")])
    assert q.universe == frozenset("abc")


def test_tautology_removes_the_rule():
    p = Program([rule("a", pos="a"), rule("b")])
    q = apply(p, tautology(rule("a", pos="a")))
    assert q.rules == frozenset([rule("b")])
    empty = apply(Program([rule("a", pos="a", neg="a")]), tautology(rule("a", pos="a", neg="a")))
    assert empty.rules == frozenset()


def test_positive_reduction_deletes_the_literal():
    p = Program([rule("c", neg="b")])
    q = apply(p, pos_reduction(rule("c", neg="b"), "b"))
    assert q.rules == frozenset([rule("c")])
    p2 = Program([rule("e", neg=["f", "e"])])
    q2 = apply(p2, pos_reduction(rule("e", neg=["f", "e"]), "f"))
    assert q2.rules == frozenset([rule("e", neg="e")])
    assert partial_stable_models(q2) == partial_stable_models(p2)


def test_positive_reduction_refused_when_the_atom_is_defined():
    p = Program([rule("c", neg="b"), rule("b")])
    with pytest.raises(StepNotApplicable):
        apply(p, pos_reduction(rule("c", neg="b"), "b"))


def test_non_minimal_removes_the_subsumed_rule():
    wide = rule("c", neg=["a", "b"])
    narrow = rule("c", neg="a")
    p = Program([wide, narrow], universe=frozenset("abc"))
    q = apply(p, non_minimal(wide, narrow))
    assert q.rules == frozenset([narrow])


def test_non_minimal_against_a_fact():
    guarded = rule("c", pos="a", neg="c")
    p = Program([rule("a", pos="b"), rule("b", pos="a"), guarded, rule("c")])
    q = apply(p, non_minimal(guarded, rule("c")))
    assert q.rules == frozenset([rule("a", pos="b"), rule("b", pos="a"), rule("c")])


def test_apply_rejects_steps_about_foreign_rules():
    p = Program([rule("a")])
    with pytest.raises(StepNotApplicable):
        apply(p, tautology(rule("b", pos="b")))


def test_is_irreducible_examples():
    assert is_irreducible(Program([rule("c")]))
    assert not is_irreducible(Program([rule("a", pos="b")]))


def test_fair_normalize_reaches_the_single_fact():
    for strategy, steps in ((LEX, 5), (REVERSE_LEX, 4)):
        result, trace = fair_normalize(CHAIN, strategy)
        assert result.rules == frozenset([rule("c")])
        assert result.universe == CHAIN.universe
        assert len(trace) == steps
        assert is_irreducible(result)


def test_fair_normalize_is_confluent_here():
    lex_result, _ = fair_normalize(CHAIN, LEX)
    rev_result, _ = fair_normalize(CHAIN, REVERSE_LEX)
    assert lex_result == rev_result


def test_fair_normalize_fixes_rfalps():
    p = Program([rule("a", neg="b"), rule("b", neg="a")])
    result, trace = fair_normalize(p, LEX)
    assert result == p and trace == ()


def test_fair_normalize_step_cap():
    with pytest.raises(StepCapExceeded):
        fair_normalize(CHAIN, LEX, max_steps=2)


def test_trace_digests_replay():
    result, trace = fair_normalize(CHAIN, LEX)
    assert replay(CHAIN, trace) == result
    assert trace[-1].digest == program_digest(result)


def test_replay_rejects_diverging_traces():
    _, trace = fair_normalize(CHAIN, LEX)
    other = Program([rule("a", pos="b"), rule("b", pos="a"), rule("c", pos="a", neg="c")])
    with pytest.raises(InputError):
        replay(other, trace)


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


@given(programs_st(), st.sampled_from([LEX, REVERSE_LEX]))
@settings(max_examples=150)
def test_every_single_step_preserves_partial_stable_models(p, strategy):
    base = partial_stable_models(p)
    q = p
    _, trace = fair_normalize(p, strategy)
    for entry in trace:
        q = apply(q, entry.step)
        assert partial_stable_models(q) == base


@given(programs_st())
@settings(max_examples=100)
def test_both_strategies_agree_and_match_the_round_trip(p):
    lex_result, _ = fair_normalize(p, LEX)
    rev_result, _ = fair_normalize(p, REVERSE_LEX)
    assert lex_result == rev_result
    assert is_rfalp(setaf_to_nlp(nlp_to_setaf(p)))
    assert {r for r in lex_result.rules} == set(setaf_to_nlp(nlp_to_setaf(p)).rules)


@given(programs_st(), st.sampled_from([LEX, REVERSE_LEX]))
@settings(max_examples=100)
def test_every_step_leaves_the_setaf_alone(p, strategy):
    target = nlp_to_setaf(p)
    q = p
    _, trace = fair_normalize(p, strategy)
    for entry in trace:
        q = apply(q, entry.step)
        assert nlp_to_setaf(q) == target


def reference_steps(p):
    """Every applicable step straight from the step definitions, in the
    documented order: kind, then rule, then atom or surviving rule."""
    rules = sorted(p.rules, key=lambda r: r.sort_key())
    heads = {r.head for r in rules}
    out = [unfold(r, a) for r in rules for a in sorted(r.body_pos)]
    out += [tautology(r) for r in rules if r.head in r.body_pos]
    out += [pos_reduction(r, b) for r in rules for b in sorted(r.body_neg) if b not in heads]
    for r in rules:
        for keep in rules:
            subsumes = keep.body_pos <= r.body_pos and keep.body_neg <= r.body_neg
            if keep.head == r.head and keep != r and subsumes:
                out.append(non_minimal(r, keep))
    return out


KIND_SUBSETS = [kinds for n in range(len(StepKind) + 1) for kinds in combinations(StepKind, n)]


@given(programs_st())
@settings(max_examples=150)
def test_lazy_steps_match_the_step_definitions(p):
    reference = reference_steps(p)
    assert applicable_steps(p) == reference
    assert is_irreducible(p) == (not reference)
    for kinds in KIND_SUBSETS:
        assert list(_steps(p, kinds)) == [s for s in reference if s.kind in kinds]


@given(programs_st(), st.sampled_from([LEX, REVERSE_LEX]))
@settings(max_examples=100)
def test_reduction_phase_takes_the_first_applicable_step(p, strategy):
    q = p
    _, trace = fair_normalize(p, strategy)
    reducing = (StepKind.POSITIVE_REDUCTION, StepKind.NON_MINIMAL)
    for entry in trace:
        if entry.step.kind in reducing:
            assert entry.step == next(s for s in reference_steps(q) if s.kind in reducing)
        q = apply(q, entry.step)


def test_trace_values_keep_no_instance_dict():
    # A trace holds one entry, step and rule per step; slots keep each small.
    _, trace = fair_normalize(CHAIN, LEX)
    entry = trace[0]
    assert isinstance(entry, TraceEntry)
    for value in (entry, entry.step, entry.step.rule):
        assert not hasattr(value, "__dict__")
