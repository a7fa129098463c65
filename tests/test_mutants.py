"""A standing gallery of mutants. Each one replaces a single engine,
conversion or sweep helper with a plausible wrong version, runs every
suite on a small fixed corpus (the data files plus a few seeded programs
and SETAFs), and asserts exactly which suites fail. A mutant that no suite
catches is listed with an empty set: the suites have a blind spot there,
and the unit tests named beside it are what catch it today."""

import itertools
import os
import sys

import pytest

from setaflp import correspond, programs, setafs, translate
from setaflp.programs import Interpretation, Program
from setaflp.propcheck import FAIL, GenConfig, gen_program, gen_setaf, run_suite, suite_names
from setaflp.setafs import Labelling
from setaflp.textio import parse_program, parse_setaf
from setaflp.translate import DEFAULT_STATEMENT_CAP

DATA = os.path.join(os.path.dirname(__file__), "data")


def corpus():
    out = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as handle:
            text = handle.read()
        out.append(parse_program(text) if name.endswith(".lp") else parse_setaf(text))
    for n in (4, 5, 6):
        out.append(gen_program(GenConfig(n, 2 * n, seed=n)))
        out.append(gen_setaf(GenConfig(n, 2 * n, seed=n)))
    return out


CORPUS = corpus()


def clear_package_caches():
    """Empty every module-level lru_cache of the package, so a sweep under
    a mutant computes everything afresh instead of reading results cached
    by earlier tests."""
    for name, module in list(sys.modules.items()):
        if name == "setaflp" or name.startswith("setaflp."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def failing_suites() -> set[str]:
    """The suites that fail on the corpus. The caches are emptied after the
    sweep too, so that values computed under a mutant (a wrong SETAF from
    a wrong antichain routine, say) do not reach later tests."""
    clear_package_caches()
    try:
        return {
            name
            for instance in CORPUS
            for name in suite_names()
            if run_suite(name, instance).status == FAIL
        }
    finally:
        clear_package_caches()


def replace_everywhere(monkeypatch, real, fake):
    """Put *fake* in place of *real* in every setaflp module that holds it."""
    for name, holder in list(sys.modules.items()):
        if name == "setaflp" or name.startswith("setaflp."):
            for attr, value in list(vars(holder).items()):
                if value is real:
                    monkeypatch.setattr(holder, attr, fake)


# --- the mutants -------------------------------------------------------------------


def well_founded_after_one_step(p):
    ip = programs._IndexedProgram(p)
    t, f = ip.omega_bits(0, 0)
    return Interpretation(ip.unmask(t), ip.unmask(f))


def grounded_after_one_step(s):
    in_ = frozenset(a for a in s.arguments if not s.attackers_of(a))
    return Labelling(in_, frozenset(), s.arguments - in_)


def grounded_without_out_rule(s):
    in_ = out = frozenset()
    while True:
        step = frozenset(a for a in s.arguments if all(b & out for b in s.attackers_of(a)))
        if step == in_:
            return Labelling(in_, out, s.arguments - in_)
        in_ = step


def maximal_with_le(family, key):
    keys = [key(m) for m in family]
    return [m for m, k in zip(family, keys) if not any(k <= o for o in keys)]


def three_valued_reversed(bits):
    # Each atom goes neither, false, then true: the same pairs, reversed.
    shift = sum(bits).bit_length()
    low = (1 << shift) - 1
    for both in map(sum, itertools.product(*[(0, b << shift, b) for b in bits])):
        yield both & low, both >> shift


def l2i_without_lost(in_, out, lost):
    return in_, out


def l2i_swapped(in_, out, lost):
    return out | lost, in_


def i2l_swapped(t, f, args):
    return f & args, t & args


L2I_P = correspond.l2i_p


def l2i_p_without_lost(p, l, max_statements=DEFAULT_STATEMENT_CAP):
    # Universe atoms that are no arguments stay undefined instead of false.
    real = L2I_P(p, l, max_statements)
    return Interpretation(real.true, real.false & l.arguments)


SETAF_TO_NLP = translate.setaf_to_nlp


def setaf_to_nlp_without_last_rule(s):
    rules = SETAF_TO_NLP(s).sorted_rules()
    return Program(frozenset(rules[:-1]), s.arguments)


def keep_every_set(family):
    return list(family), []


# (holder, engine, mutant) -> the suites that fail on the corpus.
MUTANTS = {
    (programs, "well_founded_model", well_founded_after_one_step): {
        "corollary-2", "corollary-3", "theorem-4", "theorem-4.1", "theorem-7", "theorem-7.1",
    },
    (setafs, "grounded", grounded_after_one_step): {
        "corollary-2", "corollary-3", "theorem-4", "theorem-4.1", "theorem-7", "theorem-7.1",
    },
    (setafs, "grounded", grounded_without_out_rule): {
        "corollary-2", "corollary-3", "theorem-4", "theorem-4.1", "theorem-7", "theorem-7.1",
    },
    # Both sides of every filtered pair come out empty alike, so the pairs
    # still correspond; the check of each selection against its definition
    # is what fails.
    (programs, "_maximal", maximal_with_le): {
        "theorem-4", "theorem-4.2", "theorem-4.4", "theorem-7", "theorem-7.2", "theorem-7.4",
    },
    (setafs, "semi_stable", setafs.preferred): {
        "corollary-2", "corollary-3", "theorem-4", "theorem-4.4", "theorem-7", "theorem-7.4",
    },
    # Blind spot: a verdict does not depend on the sweep order, only its
    # first counterexample does. The four *_counterexamples_match_the_
    # reference_sweep tests of test_propcheck.py catch it.
    (programs, "_three_valued", three_valued_reversed): set(),
    # theorem-1 maps a labelling to an interpretation and back, and the way
    # back restricts to the arguments: by its statement it cannot see lost
    # atoms. The suites that compare l2i_p's models with the program's fail,
    # whether the lost term goes from the one definition or from l2i_p.
    (correspond, "_l2i", l2i_without_lost): {
        "corollary-2", "theorem-2", "theorem-3", "theorem-4",
        "theorem-4.1", "theorem-4.2", "theorem-4.3", "theorem-4.4",
    },
    (correspond, "l2i_p", l2i_p_without_lost): {
        "corollary-2", "theorem-2", "theorem-3", "theorem-4",
        "theorem-4.1", "theorem-4.2", "theorem-4.3", "theorem-4.4",
    },
    # One definition serves the library and the theorem-1/theorem-5 sweeps,
    # so a swap of in and out fails the sweeps with every correspondence.
    (correspond, "_l2i", l2i_swapped): {
        "corollary-2", "corollary-3", "theorem-1", "theorem-2", "theorem-3",
        "theorem-4", "theorem-4.1", "theorem-4.2", "theorem-4.3", "theorem-4.4",
        "theorem-5", "theorem-6",
        "theorem-7", "theorem-7.1", "theorem-7.2", "theorem-7.3", "theorem-7.4",
    },
    (correspond, "_i2l", i2l_swapped): {
        "corollary-2", "corollary-3", "theorem-1", "theorem-2", "theorem-3",
        "theorem-4", "theorem-4.1", "theorem-4.2", "theorem-4.3", "theorem-4.4",
        "theorem-5", "theorem-6",
        "theorem-7", "theorem-7.1", "theorem-7.2", "theorem-7.3", "theorem-7.4",
    },
    (translate, "setaf_to_nlp", setaf_to_nlp_without_last_rule): {
        "composite-normal-form", "corollary-3", "prop-1", "theorem-6", "theorem-7",
        "theorem-7.1", "theorem-7.2", "theorem-7.3", "theorem-7.4", "theorem-9", "theorem-10",
    },
    # The Setaf antichain guard shares this routine with minimize_attacks,
    # the minimal transversals and the minimal vulnerability sets, so a wrong
    # routine disarms the guard too: the suites, and the definition tests of
    # test_setafs.py, are what catch it.
    (setafs, "_inclusion_minimal", keep_every_set): {"theorem-9"},
}


def test_the_corpus_passes_every_suite():
    assert failing_suites() == set()


@pytest.mark.parametrize("case", MUTANTS, ids=lambda case: f"{case[1]}-{case[2].__name__}")
def test_mutant_is_caught_by_the_named_suites(monkeypatch, case):
    holder, engine, mutant = case
    replace_everywhere(monkeypatch, getattr(holder, engine), mutant)
    assert failing_suites() == MUTANTS[case]
