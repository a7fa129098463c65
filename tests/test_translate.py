"""Statements, vulnerability families, attacks, and both translation directions."""

import time
from itertools import chain, combinations

import pytest
from hypothesis import given, settings, strategies as st

from setaflp.cli import main
from setaflp.errors import BlowupCap
from setaflp.programs import Program, rule
from setaflp.propcheck import PASS, Caps, GenConfig, _norm, gen_program, gen_setaf, run_suite
from setaflp.setafs import Attack, Setaf, minimize_attacks, validate_setaf
from setaflp.textio import parse_program
from setaflp.translate import (
    arguments,
    is_rfalp,
    minimal_transversals,
    minimal_vulnerabilities,
    nlp_to_setaf,
    rfalp_violations,
    setaf_to_nlp,
    statements,
    vul_family,
)

R1 = rule("a")
R2 = rule("b", pos="a")
R3 = rule("c", neg="c")
R4 = rule("d", pos="b", neg=["a", "d"])
R5 = rule("d", neg=["c", "d"])
R6 = rule("e", pos=["b", "c"], neg="e")
R7 = rule("c", pos="f", neg="g")
R8 = rule("f", pos=["c", "g"])
EX3 = Program([R1, R2, R3, R4, R5, R6, R7, R8])

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


def fs(*items):
    return frozenset(frozenset(i) for i in items)


def test_statements_of_the_eight_rule_program():
    got = {(s.conc, s.rules, s.vul) for s in statements(EX3)}
    assert got == {
        ("a", frozenset([R1]), frozenset()),
        ("b", frozenset([R1, R2]), frozenset()),
        ("c", frozenset([R3]), frozenset("c")),
        ("d", frozenset([R1, R2, R4]), frozenset("ad")),
        ("d", frozenset([R5]), frozenset("cd")),
        ("e", frozenset([R1, R2, R3, R6]), frozenset("ce")),
    }


def test_statement_subderivations_are_recorded():
    by = {(s.conc, s.vul): s for s in statements(EX3)}
    s2 = by[("b", frozenset())]
    assert [sub.conc for sub in s2.subs] == ["a"]


def test_statements_of_an_atomic_program_are_its_rules():
    got = {(s.conc, s.rules, s.vul) for s in statements(EX2)}
    assert got == {(r.head, frozenset([r]), r.body_neg) for r in EX2.rules}


def test_arguments_drop_underivable_atoms():
    assert arguments(EX3) == frozenset("abcde")
    assert EX3.universe == frozenset("abcdefg")


def test_vul_family_of_the_eight_rule_program():
    assert vul_family(EX3) == {
        "a": fs(""),
        "b": fs(""),
        "c": fs("c"),
        "d": fs("ad", "cd"),
        "e": fs("ce"),
    }


def test_vul_family_with_a_compound_derivation():
    assert vul_family(EX2)["c"] == fs("ac", "cd")


def test_statement_blowup_cap():
    rules = [rule("u0")]
    for i in range(12):
        rules.append(rule(f"u{i + 1}", pos=[f"u{i}"]))
        rules.append(rule(f"u{i + 1}", pos=[f"u{i}"], neg="z"))
    doubling = Program(rules)
    with pytest.raises(BlowupCap):
        statements(doubling, max_statements=100)


# b :- a1, ..., a12 with two one-atom fronts per ai: 4096 minimal sets for b.
WIDE_JOIN = Program(
    [rule("b", pos=[f"a{i}" for i in range(1, 13)])]
    + [rule(f"a{i}", neg=[f"{x}{i}"]) for i in range(1, 13) for x in "xy"]
)


def test_minimal_vulnerability_fixpoint_blowup_cap():
    assert len(minimal_vulnerabilities(WIDE_JOIN)["b"]) == 4096
    with pytest.raises(BlowupCap):
        nlp_to_setaf(WIDE_JOIN, max_statements=100)


def test_minimal_vulnerabilities_are_read_only():
    with pytest.raises(TypeError):
        minimal_vulnerabilities(EX3)["a"] = frozenset()


def test_minimal_transversals_frozen_cases():
    assert minimal_transversals([frozenset("ad"), frozenset("cd")]) == fs("d", "ac")
    assert minimal_transversals([frozenset()]) == frozenset()
    assert minimal_transversals([]) == frozenset([frozenset()])
    assert minimal_transversals([frozenset("a"), frozenset("b")]) == fs("ab")
    assert minimal_transversals([frozenset("ab")]) == fs("a", "b")


def brute_transversals(family, alphabet):
    """Oracle: scan every subset of the alphabet for minimal hitting sets."""
    hitting = [
        frozenset(c)
        for n in range(len(alphabet) + 1)
        for c in combinations(sorted(alphabet), n)
        if all(frozenset(c) & member for member in family)
    ]
    return frozenset(h for h in hitting if not any(o < h for o in hitting))


@given(
    st.lists(
        st.sets(st.sampled_from("abcde"), max_size=5).map(frozenset), max_size=5
    )
)
@settings(max_examples=200)
def test_minimal_transversals_agree_with_brute_force(family):
    alphabet = set(chain.from_iterable(family))
    assert minimal_transversals(family) == brute_transversals(family, alphabet)


def test_transversal_outputs_form_an_antichain():
    got = minimal_transversals([frozenset("abc"), frozenset("cd"), frozenset("ab")])
    for x in got:
        for y in got:
            assert x == y or not x < y


def test_nlp_to_setaf_on_the_eight_rule_program():
    s = nlp_to_setaf(EX3)
    assert s.arguments == frozenset("abcde")
    assert set(s.sorted_attacks()) == {
        Attack(frozenset("c"), "c"),
        Attack(frozenset("c"), "e"),
        Attack(frozenset("e"), "e"),
        Attack(frozenset("d"), "d"),
        Attack(frozenset("ac"), "d"),
    }


def test_nlp_to_setaf_on_the_six_rule_program():
    s = nlp_to_setaf(EX2)
    assert s == validate_setaf(
        "abcde",
        [("a", "b"), ("b", "a"), ("b", "e"), ("c", "c"), ("d", "d"), ("e", "e"), ("ad", "c")],
    )


def test_vulnerabilities_outside_the_arguments_do_not_attack():
    # the only statement for a is vulnerable to b alone, and b never derives.
    p = Program([rule("a", neg="b")])
    s = nlp_to_setaf(p)
    assert s.arguments == frozenset("a")
    assert s.attacks == frozenset()


def test_setaf_to_nlp_reverses_fig1():
    fig1 = validate_setaf(
        "abcde",
        [("a", "b"), ("b", "a"), ("b", "e"), ("c", "c"), ("d", "d"), ("e", "e"), ("ad", "c")],
    )
    p = setaf_to_nlp(fig1)
    assert p == EX2
    assert is_rfalp(p)


def test_setaf_to_nlp_unattacked_argument_becomes_a_fact():
    s = validate_setaf("ab", [("a", "b")])
    assert setaf_to_nlp(s) == Program([rule("a"), rule("b", neg="a")])


def test_rfalp_violations_reports_each_clause():
    non_atomic = Program([rule("a", pos="b"), rule("b")])
    assert any("positive body" in v for v in rfalp_violations(non_atomic))
    headless = Program([rule("a")], universe=frozenset("ab"))
    assert any("no rule" in v for v in rfalp_violations(headless))
    subsumed = Program([rule("a", neg=["b", "c"]), rule("a", neg="b"), rule("b"), rule("c")])
    assert any("subsume" in v for v in rfalp_violations(subsumed))
    assert rfalp_violations(EX2) == []
    assert not is_rfalp(non_atomic)


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
@settings(max_examples=150)
def test_translation_always_yields_a_valid_setaf(p):
    s = nlp_to_setaf(p)
    assert s.arguments == arguments(p)
    for atk in s.attacks:
        assert atk.source <= s.arguments and atk.target in s.arguments
    # constructing through the validator again must not complain
    assert validate_setaf(s.arguments, [(a.source, a.target) for a in s.attacks]) == s


@given(programs_st())
@settings(max_examples=150)
def test_derived_program_is_always_rfalp(p):
    assert rfalp_violations(setaf_to_nlp(nlp_to_setaf(p))) == []


@given(programs_st())
@settings(max_examples=100)
def test_setaf_round_trip_is_identity(p):
    s = nlp_to_setaf(p)
    assert nlp_to_setaf(setaf_to_nlp(s)) == s


def minimal_members(sets):
    return frozenset(v for v in sets if not any(u < v for u in sets))


def assert_matches_statement_path(p):
    """The fixpoint against the full statement enumeration: the same minimal
    vulnerability sets, and the same SETAF as transversals of every
    statement's vulnerabilities."""
    fam = vul_family(p)
    assert minimal_vulnerabilities(p) == {a: minimal_members(vs) for a, vs in fam.items()}
    args = frozenset(fam)
    reference = Setaf(
        args,
        frozenset(
            Attack(source, a)
            for a, vuls in fam.items()
            for source in minimal_transversals(v & args for v in vuls)
        ),
    )
    assert nlp_to_setaf(p) == reference


@pytest.mark.parametrize("max_body_pos", [2, 3])
def test_fixpoint_matches_statements_on_seeded_programs(max_body_pos):
    for seed in range(100):
        for atoms, rules in ((4, 6), (5, 9), (6, 11)):
            cfg = GenConfig(atoms, rules, max_body_pos=max_body_pos, seed=seed)
            assert_matches_statement_path(gen_program(cfg))


@given(programs_st())
@settings(max_examples=150)
def test_fixpoint_matches_statements(p):
    assert_matches_statement_path(p)


def test_minimal_vulnerabilities_where_statements_blow_up():
    # Ten rules over three atoms: statements() tries more than 100 000
    # combinations of sub-statements, the fixpoint forms few sets.
    p = gen_program(GenConfig(3, 12, max_body_pos=3, seed=3012))
    with pytest.raises(BlowupCap):
        statements(p)
    assert minimal_vulnerabilities(p, max_statements=1000)["a"] == {frozenset()}


def test_wide_program_translates_fast():
    # Statement enumeration on this program runs for over a minute.
    p = gen_program(GenConfig(atom_count=8, rule_count=22, max_body_pos=3, seed=8))
    nlp_to_setaf.cache_clear()
    start = time.perf_counter()
    nlp_to_setaf(p)
    assert time.perf_counter() - start < 1.0


# t :- not ai_0, not ai_1, not ai_2 for i < 9, and ai_j :- not t: t has 3^9
# minimal attacking sets, one atom from each of its nine rules.
WIDE_GADGET = "".join(
    f"t :- not a{i}_0, not a{i}_1, not a{i}_2.\n" for i in range(9)
) + "".join(f"a{i}_{j} :- not t.\n" for i in range(9) for j in range(3))


def test_wide_gadget_antichains_cost_their_output(tmp_path, capsys):
    p = parse_program(WIDE_GADGET)
    start = time.perf_counter()
    s = nlp_to_setaf.__wrapped__(p)
    assert time.perf_counter() - start < 3.0
    assert len(s.attacks) == 19_710
    start = time.perf_counter()
    Setaf(s.arguments, s.attacks)
    assert time.perf_counter() - start < 3.0
    start = time.perf_counter()
    assert minimize_attacks(s.attacks, s.arguments) == s
    assert time.perf_counter() - start < 3.0

    path = tmp_path / "wide.lp"
    path.write_text(WIDE_GADGET, encoding="utf-8")
    start = time.perf_counter()
    assert main(["check", str(path)]) == 3
    assert time.perf_counter() - start < 5.0
    assert "universe has 28 atoms, more than the cap of 16" in capsys.readouterr().err


TRANSLATE_CACHES = (nlp_to_setaf, setaf_to_nlp, arguments, statements)


def test_cached_translations_equal_fresh_ones():
    """A cache hit, asked with an equal but distinct structure, gives the
    value a translation without the cache computes."""
    for k in range(200):
        n = 1 + k % 7
        p = gen_program(GenConfig(n, 2 * n, max_body_pos=1 + k % 3, seed=16000 + k))
        twin = Program(p.rules, p.universe)
        first = nlp_to_setaf(p)
        assert nlp_to_setaf(twin) is first
        assert first == nlp_to_setaf.__wrapped__(p)
        assert arguments(twin) == arguments.__wrapped__(p) == first.arguments

        s = gen_setaf(GenConfig(n, 2 * n, seed=16500 + k))
        twin = Setaf(s.arguments, s.attacks)
        first = setaf_to_nlp(s)
        assert setaf_to_nlp(twin) is first
        assert first == setaf_to_nlp.__wrapped__(s)


def test_theorem_21_adds_no_cache_entry():
    """theorem-21 translates each program of a normalization trace once, so
    it translates them without the cache; only the instance's own SETAF
    is looked up there."""
    stepped = 0
    for k in range(200):
        n = 2 + k % 6
        p = gen_program(GenConfig(n, 2 * n, max_body_pos=2, seed=16000 + k))
        for cache in TRANSLATE_CACHES:
            cache.cache_clear()
        nlp_to_setaf(p, Caps().max_statements)
        before = [cache.cache_info() for cache in TRANSLATE_CACHES]
        assert run_suite("theorem-21", p).status == PASS
        after = [cache.cache_info() for cache in TRANSLATE_CACHES]
        assert [(i.currsize, i.misses) for i in after] == [(i.currsize, i.misses) for i in before]
        stepped += any(_norm(p, strategy, Caps().max_steps)[1] for strategy in ("lex", "revlex"))
    assert stepped >= 100
