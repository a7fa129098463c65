"""SETAF construction, labellings, and the complete-labelling family."""

import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from setaflp.errors import (
    CapExceeded,
    DanglingArgument,
    DomainMismatch,
    EmptyAttackSource,
    InputError,
    NonMinimalAttack,
)
from setaflp.propcheck import GenConfig, gen_setaf
from setaflp.setafs import (
    Attack,
    Labelling,
    Setaf,
    _inclusion_minimal,
    all_labellings,
    complete_labellings,
    grounded,
    is_admissible,
    is_complete,
    minimize_attacks,
    preferred,
    semi_stable,
    stable,
    validate_setaf,
)

FIG1 = validate_setaf(
    "abcde",
    [("a", "b"), ("b", "a"), ("b", "e"), ("c", "c"), ("d", "d"), ("e", "e"), ("ad", "c")],
)


def lab(in_="", out="", undec=""):
    return Labelling(frozenset(in_), frozenset(out), frozenset(undec))


L1 = lab(undec="abcde")
L2 = lab("a", "b", "cde")
L3 = lab("b", "ae", "cd")


def test_attack_basics():
    atk = Attack(frozenset("ad"), "c")
    assert str(atk) == "a,d -> c"
    with pytest.raises(EmptyAttackSource):
        Attack(frozenset(), "c")


def test_setaf_rejects_dangling_arguments():
    with pytest.raises(DanglingArgument):
        validate_setaf("a", [("ab", "a")])
    with pytest.raises(DanglingArgument):
        validate_setaf("a", [("a", "b")])


def test_setaf_rejects_non_minimal_attacks():
    with pytest.raises(NonMinimalAttack) as err:
        validate_setaf("abc", [("ab", "c"), ("a", "c")])
    assert "not minimal" in str(err.value)


def test_minimize_attacks_keeps_only_minimal_sources():
    s = minimize_attacks([("ab", "c"), ("c", "c"), ("a", "c")], "abc")
    assert s.sorted_attacks() == [Attack(frozenset("a"), "c"), Attack(frozenset("c"), "c")]


def test_minimize_attacks_leaves_minimal_input_alone():
    s = minimize_attacks(
        [("a", "b"), ("b", "a"), ("b", "e"), ("c", "c"), ("d", "d"), ("e", "e"), ("ad", "c")],
        "abcde",
    )
    assert s == FIG1


def test_attackers_of():
    assert FIG1.attackers_of("c") == (frozenset("c"), frozenset("ad"))
    assert FIG1.attackers_of("a") == (frozenset("b"),)


def test_labelling_validation_and_helpers():
    with pytest.raises(InputError):
        Labelling(frozenset("a"), frozenset("a"), frozenset())
    l = L3
    assert l.arguments == frozenset("abcde")
    assert l.label_of("b") == "in" and l.label_of("c") == "undec"
    assert Labelling.from_map({"a": "in", "b": "out"}) == lab("a", "b")
    assert str(L2) == "(in={a} out={b} undec={c,d,e})"


def test_labellings_must_cover_the_arguments():
    with pytest.raises(DomainMismatch):
        is_complete(FIG1, lab("a", "b", "cd"))


def test_is_admissible_and_is_complete_on_known_labellings():
    for l in (L1, L2, L3):
        assert is_admissible(FIG1, l)
        assert is_complete(FIG1, l)
    # all-in is not admissible: b is in but its attacker set {a} has no out.
    assert not is_admissible(FIG1, lab("abcde"))
    assert not is_admissible(FIG1, lab("ab", "", "cde"))
    # admissible but not complete: e is left undec although b attacks it and is in.
    adm_only = lab("b", "a", "cde")
    assert is_admissible(FIG1, adm_only)
    assert not is_complete(FIG1, adm_only)


def test_complete_labellings_of_fig1():
    assert complete_labellings(FIG1) == [L1, L2, L3]


def test_grounded_preferred_stable_semistable_of_fig1():
    assert grounded(FIG1) == L1
    assert preferred(FIG1) == [L2, L3]
    assert stable(FIG1) == []
    assert semi_stable(FIG1) == [L3]


def test_unattacked_argument_is_grounded_in():
    s = validate_setaf("a", [])
    assert grounded(s) == lab("a")
    assert complete_labellings(s) == [lab("a")]


def test_stable_exists_without_odd_loops():
    s = validate_setaf("ab", [("a", "b")])
    assert stable(s) == [lab("a", "b")]
    assert semi_stable(s) == [lab("a", "b")]


def test_complete_enumeration_cap():
    s = validate_setaf([f"a{i}" for i in range(5)], [])
    with pytest.raises(CapExceeded):
        complete_labellings(s, max_atoms=4)
    assert len(complete_labellings(s, max_atoms=5)) == 1


def test_all_labellings_count():
    assert sum(1 for _ in all_labellings("ab")) == 9


@st.composite
def setafs_st(draw):
    args = sorted(draw(st.sets(st.sampled_from("abcd"), min_size=1, max_size=4)))
    n = draw(st.integers(0, 6))
    raw = []
    for _ in range(n):
        source = draw(st.sets(st.sampled_from(args), min_size=1, max_size=2))
        target = draw(st.sampled_from(args))
        raw.append((source, target))
    return minimize_attacks(raw, args)


@given(setafs_st())
@settings(max_examples=100)
def test_minimize_is_idempotent(s):
    again = minimize_attacks([(a.source, a.target) for a in s.attacks], s.arguments)
    assert again == s


# --- the one inclusion-minimality routine against its definition ----------------


def strictly_minimal(family):
    """The definition: the members with no other member strictly inside."""
    return [v for v in family if not any(u < v for u in family)]


@given(st.lists(st.sets(st.sampled_from("abcd"), max_size=4).map(frozenset), max_size=12))
@settings(max_examples=300)
def test_inclusion_minimal_matches_its_definition(family):
    # Duplicates and the empty set are drawn often from a four-letter alphabet.
    kept, dropped = _inclusion_minimal(family)
    assert Counter(kept) == Counter(strictly_minimal(family))
    assert Counter(kept) + Counter(s for s, _ in dropped) == Counter(family)
    for s, inside in dropped:
        assert inside == next(k for k in kept if k < s)


@given(
    st.lists(
        st.tuples(st.sets(st.sampled_from("abcd"), min_size=1, max_size=3), st.sampled_from("abcd")),
        max_size=10,
    )
)
@settings(max_examples=200)
def test_minimize_attacks_matches_the_definition_per_target(raw):
    by_target = {}
    for source, target in raw:
        by_target.setdefault(target, set()).add(frozenset(source))
    expected = {
        Attack(source, target)
        for target, sources in by_target.items()
        for source in strictly_minimal(list(sources))
    }
    assert minimize_attacks(raw, "abcd").attacks == expected


def pairwise_witness(attacks):
    """The guard as a pairwise scan: in Attack.sort_key order, the first
    attack whose source strictly contains an earlier source on its target,
    with the first such earlier source."""
    by_target = {}
    for atk in sorted(attacks, key=Attack.sort_key):
        for earlier in by_target.get(atk.target, []):
            if earlier < atk.source:
                return atk.target, atk.source, earlier
        by_target.setdefault(atk.target, []).append(atk.source)
    return None


def test_non_minimal_attack_names_the_pair_the_pairwise_scan_names():
    checked = several_inside = 0
    for seed in range(2000):
        rng = random.Random(seed)
        args = "abcdef"[: rng.randint(2, 6)]
        attacks = frozenset(
            Attack(frozenset(rng.sample(args, rng.randint(1, min(3, len(args))))), rng.choice(args))
            for _ in range(rng.randint(2, 12))
        )
        reference = pairwise_witness(attacks)
        if reference is None:
            Setaf(frozenset(args), attacks)
            continue
        with pytest.raises(NonMinimalAttack) as err:
            Setaf(frozenset(args), attacks)
        assert (err.value.target, err.value.source, err.value.smaller) == reference
        assert str(err.value) == str(NonMinimalAttack(*reference))
        checked += 1
        target, source, _ = reference
        several_inside += sum(a.target == target and a.source < source for a in attacks) > 1
    # Not vacuous: often more than one source lies inside the reported one.
    assert checked >= 500 and several_inside >= 100, (checked, several_inside)


@given(setafs_st())
@settings(max_examples=100)
def test_grounded_is_the_information_least_complete_labelling(s):
    g = grounded(s)
    for l in complete_labellings(s):
        assert g.in_ <= l.in_ and g.out <= l.out


@given(setafs_st())
@settings(max_examples=100)
def test_stable_labellings_are_the_undec_free_complete_ones(s):
    assert stable(s) == [l for l in complete_labellings(s) if not l.undec]


# --- the grounded fixpoint and the filters against their definitions ------------


def reference_grounded(s):
    """The definition over the family: the complete labelling with
    inclusion-least in set, of which there is exactly one."""
    labs = complete_labellings(s)
    least = [l for l in labs if not any(o.in_ < l.in_ for o in labs)]
    assert len(least) == 1, f"{len(least)} in-minimal complete labellings"
    return least[0]


def assert_selections_match_their_definitions(s):
    labs = complete_labellings(s)
    assert grounded(s) == reference_grounded(s)
    assert preferred(s) == [l for l in labs if not any(l.in_ < o.in_ for o in labs)]
    assert semi_stable(s) == [l for l in labs if not any(o.undec < l.undec for o in labs)]


@given(setafs_st())
@settings(max_examples=150)
def test_selections_match_their_definitions(s):
    assert_selections_match_their_definitions(s)


def test_selections_match_their_definitions_on_seeded_setafs():
    undec_grounded = several_preferred = several_semi_stable = 0
    for seed in range(400):
        s = gen_setaf(GenConfig(1 + seed % 8, 1 + seed % 12, seed=seed))
        assert_selections_match_their_definitions(s)
        undec_grounded += bool(grounded(s).undec)
        several_preferred += len(preferred(s)) > 1
        several_semi_stable += len(semi_stable(s)) > 1
    # Not vacuous: the fixpoint often stops short, and the filters often
    # keep more than one labelling.
    assert undec_grounded >= 150 and several_preferred >= 20 and several_semi_stable >= 15, (
        undec_grounded,
        several_preferred,
        several_semi_stable,
    )


def test_grounded_has_no_argument_cap():
    s = gen_setaf(GenConfig(40, 80, max_body_pos=3, seed=40))
    start = time.perf_counter()
    g = grounded(s)
    assert time.perf_counter() - start < 1.0
    assert is_complete(s, g)
    assert g.in_ and g.out and g.undec
