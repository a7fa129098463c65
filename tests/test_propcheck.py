"""Generators, suite catalogue, and the suite runner."""

import sys

import pytest

from setaflp import correspond, programs, propcheck
from setaflp.errors import BlowupCap, InputError
from setaflp.programs import Interpretation, Program, all_interpretations
from setaflp.setafs import Labelling, all_labellings
from setaflp.propcheck import (
    CHECK_GROUPS,
    Caps,
    GenConfig,
    Verdict,
    catalogue,
    check_group,
    gen_program,
    gen_setaf,
    run_suite,
    suite_names,
)
from setaflp.setafs import validate_setaf
from setaflp.textio import (
    parse_program,
    print_interpretation,
    print_labelling,
    print_program,
    print_setaf,
)

EX2 = parse_program(
    "a :- not b.\nb :- not a.\nc :- not a, not c.\n"
    "c :- not c, not d.\nd :- not d.\ne :- not b, not e.\n"
)
CHAIN = parse_program("a :- b.\nb :- a.\nc :- a, not c.\nc.\n")


def test_genconfig_validation():
    with pytest.raises(InputError):
        GenConfig(atom_count=-1, rule_count=0)
    with pytest.raises(InputError):
        GenConfig(atom_count=1, rule_count=1, fact_probability=1.5)


def test_gen_program_empty_and_deterministic():
    assert gen_program(GenConfig(atom_count=0, rule_count=0)) == Program([])
    cfg = GenConfig(atom_count=5, rule_count=6, seed=9)
    assert gen_program(cfg) == gen_program(cfg)
    assert gen_program(cfg) != gen_program(GenConfig(atom_count=5, rule_count=6, seed=10))


def test_gen_program_golden_seed_42():
    """Frozen first-run output; a change here means generation drifted."""
    p = gen_program(GenConfig(atom_count=5, rule_count=6, seed=42))
    assert print_program(p) == "a.\nb.\nb :- a, e, not d, not e.\nc.\ne.\n"


def test_gen_program_universe_is_the_whole_pool():
    p = gen_program(GenConfig(atom_count=6, rule_count=1, seed=3))
    assert len(p.universe) == 6


def test_gen_setaf_empty_deterministic_golden():
    assert gen_setaf(GenConfig(atom_count=0, rule_count=0)) == validate_setaf([], [])
    cfg = GenConfig(atom_count=4, rule_count=5, seed=7)
    assert gen_setaf(cfg) == gen_setaf(cfg)
    assert print_setaf(gen_setaf(cfg)) == (
        "arg a\narg b\narg c\narg d\natt b -> a\natt a -> c\natt d -> d\n"
    )


def test_suite_catalogue_is_total_over_the_numbered_results():
    names = suite_names()
    for n in range(1, 24):
        assert f"theorem-{n}" in names
    for n in range(1, 6):
        assert f"corollary-{n}" in names
    assert "prop-1" in names
    assert "lemma-1" in names
    entries = catalogue()
    assert [s.name for s in entries] == names
    assert all(s.summary for s in entries)


def test_check_groups_reference_registered_suites():
    all_names = set(suite_names())
    for group, members in CHECK_GROUPS.items():
        assert set(members) <= all_names, group
    assert check_group("all") == suite_names()
    assert check_group("inverse") == list(CHECK_GROUPS["inverse"])
    with pytest.raises(InputError):
        check_group("bogus")


def test_run_suite_passes_on_the_known_program():
    assert run_suite("theorem-4.4", EX2).status == "pass"
    assert run_suite("theorem-3", EX2).status == "pass"
    assert run_suite("theorem-23", CHAIN).status == "pass"


def test_run_suite_not_applicable_paths():
    non_rfalp = parse_program("a :- b.\nb.\n")
    v = run_suite("theorem-10", non_rfalp)
    assert v.status == "not-applicable"
    assert run_suite("theorem-8", EX2).status == "not-applicable"
    assert run_suite("theorem-20", EX2).status == "not-applicable"
    assert run_suite("theorem-22", EX2).status == "not-applicable"
    negated = parse_program("a :- not b.\n")
    assert run_suite("lemma-least-model", negated).status == "not-applicable"
    positive = parse_program("a :- b.\nb.\n")
    assert run_suite("lemma-least-model", positive).status == "pass"


def test_run_suite_bridges_instance_kinds():
    s = validate_setaf("ab", [("a", "b")])
    v = run_suite("theorem-2", s)  # a program-side suite on a SETAF
    assert v.status == "pass"
    assert "setaf_to_nlp" in v.detail
    w = run_suite("theorem-9", EX2)  # a SETAF-side suite on a program
    assert w.status == "pass"
    assert "nlp_to_setaf" in w.detail


def test_run_suite_rejects_unknown_names_and_instances():
    with pytest.raises(InputError):
        run_suite("theorem-99", EX2)
    with pytest.raises(InputError):
        run_suite("theorem-1", "not an instance")


def test_verdict_ok_property():
    v = run_suite("theorem-1", EX2)
    assert v.ok and v.counterexample is None


def test_all_suites_pass_on_small_seeded_instances():
    caps = Caps()
    for seed in range(10):
        p = gen_program(GenConfig(atom_count=1 + seed % 4, rule_count=seed % 6, seed=seed))
        s = gen_setaf(GenConfig(atom_count=1 + seed % 3, rule_count=seed % 5, seed=seed))
        for name in suite_names():
            for instance in (p, s):
                v = run_suite(name, instance, caps)
                assert v.status != "fail", (name, seed, v.counterexample)


# --- the definition-level sweeps, kept as oracles -----------------------------
# corollary-1 and lemma-1 sweep omega's images on bitmasks, and theorem-1
# and theorem-5 sweep correspond's own _l2i and _i2l on bitmasks. These are
# the sweeps they replaced, over all_interpretations or all_labellings and the
# object-level omega and conversions. They read the translation, omega and
# the conversions through the propcheck module, so a test that patches one
# there patches both sides alike. The object-level conversions compute
# through _l2i and _i2l too, so a test that perturbs one of those, on sets
# and masks alike, perturbs both sides of theorem-1 and theorem-5.


def reference_theorem_1(p, caps=Caps()):
    args = propcheck.arguments(p, caps.max_statements)
    for l in all_labellings(args):
        i = propcheck.l2i_p(p, l, caps.max_statements)
        back = propcheck.i2l_p(p, i, caps.max_statements)
        if back != l:
            return Verdict(
                "theorem-1", "fail", "", f"{print_labelling(l)} came back as {print_labelling(back)}"
            )
    return Verdict("theorem-1", "pass")


def reference_theorem_5(s, caps=Caps()):
    for l in all_labellings(s.arguments):
        back = propcheck.i2l_af(propcheck.l2i_af(l), s.arguments)
        if back != l:
            return Verdict(
                "theorem-5", "fail", "", f"{print_labelling(l)} came back as {print_labelling(back)}"
            )
    for i in all_interpretations(s.arguments):
        back_i = propcheck.l2i_af(propcheck.i2l_af(i, s.arguments))
        if back_i != i:
            return Verdict(
                "theorem-5",
                "fail",
                "",
                f"{print_interpretation(i, s.arguments)} came back as "
                f"{print_interpretation(back_i, s.arguments)}",
            )
    return Verdict("theorem-5", "pass")


def reference_corollary_1(p, caps=Caps()):
    args = propcheck.arguments(p, caps.max_statements)
    everything_false = Interpretation(frozenset(), p.universe)
    derived = propcheck.omega(p, everything_false)
    if derived.true != args:
        return Verdict(
            "corollary-1",
            "fail",
            "",
            f"arguments {sorted(args)} vs derivable atoms {sorted(derived.true)}",
        )
    lost = p.universe - args
    for i in all_interpretations(p.universe):
        w = propcheck.omega(p, i)
        if not lost <= w.false:
            return Verdict(
                "corollary-1",
                "fail",
                "",
                f"lost atoms {sorted(lost - w.false)} not false under "
                f"{print_interpretation(i, p.universe)}",
            )
    return Verdict("corollary-1", "pass")


def reference_lemma_1(p, caps=Caps()):
    by_conc = propcheck.minimal_vulnerabilities(p, caps.max_statements)
    for i in all_interpretations(p.universe):
        w = propcheck.omega(p, i)
        expect_true = {c for c, vuls in by_conc.items() if any(v <= i.false for v in vuls)}
        expect_false = {c for c in p.universe if all(v & i.true for v in by_conc.get(c, []))}
        if w.true != expect_true or w.false != expect_false:
            return Verdict(
                "lemma-1",
                "fail",
                "",
                f"under {print_interpretation(i, p.universe)} expected "
                f"T={sorted(expect_true)} F={sorted(expect_false)}, got "
                f"{print_interpretation(w, p.universe)}",
            )
    return Verdict("lemma-1", "pass")


def _oracle_programs():
    """300 seeded programs of 1-7 atoms (one in fifteen of 6 or 7, as the
    reference sweeps take half a second per 7-atom program), a third with
    3-atom positive bodies, then criterion 8's 100 lemma-1 programs."""
    for seed in range(300):
        atoms = 6 + seed // 15 % 2 if seed % 15 == 0 else 1 + seed % 5
        yield gen_program(
            GenConfig(atoms, seed % 13, max_body_pos=2 + (seed % 3 == 0), seed=seed + 3000)
        )
    for i in range(100):
        yield gen_program(GenConfig(atom_count=(i % 5) + 1, rule_count=(i * 3) % 9, seed=i + 500))


def _small_programs():
    for seed in range(120):
        yield gen_program(
            GenConfig(1 + seed % 5, 1 + seed % 9, max_body_pos=2 + seed % 2, seed=seed + 4000)
        )


def _outcome(check, p):
    """The verdict, or the cap that stopped the check."""
    try:
        return check(p)
    except BlowupCap as exc:
        return str(exc)


def test_bitmask_suites_match_the_reference_sweeps():
    capped = 0
    for p in _oracle_programs():
        for name, reference in (("corollary-1", reference_corollary_1), ("lemma-1", reference_lemma_1)):
            got = _outcome(lambda q: run_suite(name, q), p)
            assert got == _outcome(reference, p), name
            capped += isinstance(got, str)
    assert capped < 10


def test_lemma_1_counterexamples_match_the_reference_sweep(monkeypatch):
    """With one minimal vulnerability set per program withheld, both sweeps
    stop at the same first interpretation and print the same
    counterexample."""
    real = propcheck.minimal_vulnerabilities

    def one_withheld(p, max_statements):
        family = real(p, max_statements)
        pairs = [(c, v) for c, vs in family.items() for v in vs]
        if not pairs:
            return family
        conc, vul = min(pairs, key=lambda cv: (cv[0], sorted(cv[1])))
        return {**family, conc: family[conc] - {vul}}

    monkeypatch.setattr(propcheck, "minimal_vulnerabilities", one_withheld)
    failed = 0
    for p in _small_programs():
        verdict = run_suite("lemma-1", p)
        assert verdict == reference_lemma_1(p)
        failed += verdict.status == "fail"
    assert failed >= 30


def test_corollary_1_counterexamples_match_the_reference_sweep(monkeypatch):
    """With omega made to leave undefined every atom that the interpretation
    leaves undefined, both sweeps stop at the same first interpretation and
    print the same counterexample."""
    real_bits = programs._IndexedProgram.omega_bits
    real_omega = propcheck.omega

    def bits(self, t, f):
        wt, wf = real_bits(self, t, f)
        return wt, wf & (t | f)

    def omega(p, i):
        w = real_omega(p, i)
        return Interpretation(w.true, w.false & (i.true | i.false))

    monkeypatch.setattr(programs._IndexedProgram, "omega_bits", bits)
    monkeypatch.setattr(propcheck, "omega", omega)
    failed = 0
    for p in _small_programs():
        verdict = run_suite("corollary-1", p)
        assert verdict == reference_corollary_1(p)
        failed += verdict.status == "fail"
    assert failed >= 30


def _oracle_setafs():
    """300 seeded SETAFs of 1-7 arguments, then criterion 6's 200."""
    for seed in range(300):
        yield gen_setaf(GenConfig(1 + seed % 7, seed % 12, max_body_neg=1 + seed % 3, seed=seed + 6000))
    for i in range(200):
        yield gen_setaf(GenConfig(atom_count=(i % 7) + 1, rule_count=(i * 5) % 11, seed=i))


def test_bitmask_conversion_sweeps_match_the_reference_sweeps():
    for p in _oracle_programs():
        assert _outcome(lambda q: run_suite("theorem-1", q), p) == _outcome(reference_theorem_1, p)
    for s in _oracle_setafs():
        assert run_suite("theorem-5", s) == reference_theorem_5(s)


def _leave_smallest_false_undec(monkeypatch):
    """Perturb correspond's interpretation -> labelling map, in every module
    that holds it, on frozensets and bitmasks alike: when at least two atoms
    are false, the smallest of them is labelled undec instead of out. The
    universe's lost atoms count towards the two, and the smallest may be
    one of them."""
    real = correspond._i2l

    def i2l(t, f, args):
        in_, out = real(t, f, args)
        if isinstance(f, int):
            if f.bit_count() >= 2:
                out &= ~(f & -f)
        elif len(f) >= 2:
            out -= {min(f)}
        return in_, out

    for name, module in list(sys.modules.items()):
        if name.startswith("setaflp") and vars(module).get("_i2l") is real:
            monkeypatch.setattr(module, "_i2l", i2l)


def test_theorem_1_counterexamples_match_the_reference_sweep(monkeypatch):
    _leave_smallest_false_undec(monkeypatch)
    failed = 0
    for p in _small_programs():
        verdict = run_suite("theorem-1", p)
        assert verdict == reference_theorem_1(p)
        failed += verdict.status == "fail"
    assert failed >= 30


def test_theorem_5_counterexamples_match_the_reference_sweep(monkeypatch):
    _leave_smallest_false_undec(monkeypatch)
    failed = 0
    for seed in range(120):
        s = gen_setaf(GenConfig(1 + seed % 5, seed % 7, seed=seed + 6500))
        verdict = run_suite("theorem-5", s)
        assert verdict == reference_theorem_5(s)
        failed += verdict.status == "fail"
    assert failed >= 30
