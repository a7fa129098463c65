"""Atom names are checked once, where they enter: the parsers and the
Rule, Program, PositiveProgram, Attack and Setaf constructors. Values built
from those (interpretations, labellings, reduct rules) are not checked on
construction; every operation that reads one together with a program or a
framework rejects names outside its universe."""

import pytest

from setaflp.correspond import i2l_af, i2l_p, l2i_p
from setaflp.errors import DomainMismatch, InputError
from setaflp.programs import (
    Interpretation,
    PositiveProgram,
    PositiveRule,
    Program,
    Rule,
    omega,
    psi_step,
    reduct,
)
from setaflp.setafs import Attack, Labelling, Setaf, is_admissible, is_complete
from setaflp.textio import parse_program, parse_setaf
from setaflp.translate import arguments, nlp_to_setaf

BAD_NAMES = ["Bad", "not", "1b", "_u", "", 1]

CONSTRUCTORS = {
    "rule-head": lambda bad: Rule(bad),
    "rule-body-pos": lambda bad: Rule("a", frozenset([bad])),
    "rule-body-neg": lambda bad: Rule("a", frozenset(), frozenset([bad])),
    "program-universe": lambda bad: Program([], frozenset(["a", bad])),
    "positive-program-universe": lambda bad: PositiveProgram(frozenset(), frozenset([bad])),
    "positive-program-rule": lambda bad: PositiveProgram(
        frozenset([PositiveRule(bad)]), frozenset("a")
    ),
    "attack-source": lambda bad: Attack(frozenset(["a", bad]), "a"),
    "attack-target": lambda bad: Attack(frozenset("a"), bad),
    "setaf-arguments": lambda bad: Setaf(frozenset(["a", bad]), frozenset()),
    "parse-program": lambda bad: parse_program(f"a :- not {bad}."),
    "parse-setaf": lambda bad: parse_setaf(f"arg {bad}\n"),
}


@pytest.mark.parametrize("bad", BAD_NAMES, ids=repr)
@pytest.mark.parametrize("where", CONSTRUCTORS)
def test_names_are_checked_where_they_enter(where, bad):
    with pytest.raises(InputError):
        CONSTRUCTORS[where](bad)


P = parse_program("a :- not b.\nb :- not a.\nc :- a, not c.\n#universe z.")
S = nlp_to_setaf(P)
ARGS = arguments(P)

USES = {
    "reduct": lambda i, l: reduct(P, i),
    "psi_step": lambda i, l: psi_step(reduct(P, Interpretation()), i),
    "omega": lambda i, l: omega(P, i),
    "is_admissible": lambda i, l: is_admissible(S, l),
    "is_complete": lambda i, l: is_complete(S, l),
    "l2i_p": lambda i, l: l2i_p(P, l),
    "i2l_p": lambda i, l: i2l_p(P, i),
    "i2l_af": lambda i, l: i2l_af(i, S.arguments),
}


@pytest.mark.parametrize("bad", ["Bad", "zz", 1], ids=repr)
@pytest.mark.parametrize("use", USES)
def test_derived_values_are_checked_where_they_meet_a_universe(use, bad):
    # Building them is allowed; using them with P or S is not.
    i = Interpretation(frozenset(["a", bad]), frozenset("b"))
    l = Labelling(frozenset([bad]), frozenset(), ARGS)
    with pytest.raises(DomainMismatch):
        USES[use](i, l)
