"""Conversions between labellings and interpretations, the table of the five
program/SETAF semantics pairs, and the equivalence report built on them.
The command line and the correspondence suites read the same table.

On the program side, in/out/undec verdicts correspond to true/false/undefined
restricted to the arguments; atoms with no statements are false in every
partial stable model, so the program-side conversion pins them to false. On
the SETAF side the correspondence is the evident triple identification.
_l2i and _i2l define the two maps once, with | and & alone, so they work on
frozensets here and on the bitmasks of the theorem-1 and theorem-5 sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import DomainMismatch
from .programs import (
    DEFAULT_ATOM_CAP,
    Interpretation,
    Program,
    _check_domain,
    l_stable_models,
    partial_stable_models,
    regular_models,
    stable_models,
    well_founded_model,
)
from .setafs import (
    Labelling,
    Setaf,
    complete_labellings,
    grounded,
    preferred,
    semi_stable,
    stable,
)
from .translate import DEFAULT_STATEMENT_CAP, arguments, nlp_to_setaf


def _l2i(in_, out, lost):
    """Labelling (in, out) -> interpretation (true, false): in becomes true;
    out becomes false, and so does every lost atom (a universe atom that is
    no argument). With lost empty it is the SETAF-side map."""
    return in_, out | lost


def _i2l(t, f, args):
    """Interpretation (true, false) -> labelling (in, out): the restriction
    to the arguments; undec is the rest of them."""
    return t & args, f & args


def l2i_p(p: Program, l: Labelling, max_statements: int = DEFAULT_STATEMENT_CAP) -> Interpretation:
    """Labelling over arguments(p) -> interpretation over p.universe.

    in becomes true; out becomes false; so does every universe atom that is
    not an argument at all (nothing can ever conclude it). undec stays
    undefined. The labelling domain must be exactly arguments(p).
    """
    args = arguments(p, max_statements)
    if l.arguments != args:
        raise DomainMismatch(
            "labelling domain is not the argument set; got {"
            + ",".join(sorted(map(str, l.arguments)))
            + "} expected {"
            + ",".join(sorted(args))
            + "}"
        )
    return Interpretation(*_l2i(l.in_, l.out, p.universe - args))


def i2l_p(p: Program, i: Interpretation, max_statements: int = DEFAULT_STATEMENT_CAP) -> Labelling:
    """Interpretation over p.universe -> labelling over arguments(p).

    Restriction: universe atoms outside the argument set drop out of the
    labelling domain silently (there is nothing sensible to label them).
    Atoms outside the universe raise DomainMismatch, as in reduct.
    """
    _check_domain(i, p.universe)
    args = arguments(p, max_statements)
    in_, out = _i2l(i.true, i.false, args)
    return Labelling(in_, out, args - in_ - out)


def l2i_af(l: Labelling) -> Interpretation:
    """Labelling -> interpretation over the same argument set: <in, out>."""
    return Interpretation(*_l2i(l.in_, l.out, frozenset()))


def i2l_af(i: Interpretation, args: Iterable[str]) -> Labelling:
    """Interpretation over exactly *args* -> labelling: in=true, out=false,
    undec=the rest."""
    domain = frozenset(args)
    stray = (i.true | i.false) - domain
    if stray:
        raise DomainMismatch(
            "interpretation mentions non-arguments: " + ", ".join(sorted(map(str, stray)))
        )
    in_, out = _i2l(i.true, i.false, domain)
    return Labelling(in_, out, domain - in_ - out)


# --- the five semantics pairs ------------------------------------------------


@dataclass(frozen=True)
class SemanticsPair:
    """A program semantics and the labelling semantics it corresponds to.

    lp_name/af_name name the pair in the equivalence report and in suite
    texts, lp_cli/af_cli on the command line. models(p, max_atoms) and
    labellings(s, max_atoms) list the results of each side; each computes
    its own side, never through a translation of the other.
    """

    lp_name: str
    af_name: str
    lp_cli: str
    af_cli: str
    models: Callable[[Program, int], list[Interpretation]]
    labellings: Callable[[Setaf, int], list[Labelling]]

    @property
    def title(self) -> str:
        return f"{self.lp_name} vs {self.af_name}"


# The engines are looked up when a row is used, not when the table is
# built, so a replaced module attribute (a test double, a tracing wrapper)
# is what runs. The first row is the base pair; the other four are the
# selected semantics of theorems 4 and 7.
PAIRS = (
    SemanticsPair("partial-stable", "complete", "pstable", "complete",
                  lambda p, n: partial_stable_models(p, n),
                  lambda s, n: complete_labellings(s, n)),
    SemanticsPair("well-founded", "grounded", "wf", "grounded",
                  lambda p, n: [well_founded_model(p)],
                  lambda s, n: [grounded(s)]),
    SemanticsPair("regular", "preferred", "regular", "preferred",
                  lambda p, n: regular_models(p, n),
                  lambda s, n: preferred(s, n)),
    SemanticsPair("stable", "stable", "stable", "stable",
                  lambda p, n: stable_models(p, n),
                  lambda s, n: stable(s, n)),
    SemanticsPair("l-stable", "semi-stable", "lstable", "semistable",
                  lambda p, n: l_stable_models(p, n),
                  lambda s, n: semi_stable(s, n)),
)


# --- the five-row equivalence report -----------------------------------------


@dataclass(frozen=True)
class EquivalenceRow:
    lp_name: str
    af_name: str
    models: tuple[Interpretation, ...]
    labellings: tuple[Labelling, ...]
    equal: bool
    counterexample: str | None = None


@dataclass(frozen=True)
class EquivalenceReport:
    program: Program
    setaf: Setaf
    rows: tuple[EquivalenceRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.equal for row in self.rows)


def check_equivalence(
    p: Program,
    max_atoms: int = DEFAULT_ATOM_CAP,
    max_statements: int = DEFAULT_STATEMENT_CAP,
) -> EquivalenceReport:
    """Compute the five program semantics of p and the five labelling
    semantics of its SETAF, map each side across, and report set equality
    per semantics pair."""
    s = nlp_to_setaf(p, max_statements)
    rows = []
    for pair in PAIRS:
        models = pair.models(p, max_atoms)
        labellings = pair.labellings(s, max_atoms)
        model_set = set(models)
        mapped_labs = {l2i_p(p, l, max_statements) for l in labellings}
        lab_set = set(labellings)
        mapped_models = {i2l_p(p, m, max_statements) for m in models}
        counterexample = None
        if mapped_labs != model_set:
            witness = min(mapped_labs ^ model_set, key=Interpretation.sort_key)
            side = "labelling side" if witness in mapped_labs else "program side"
            counterexample = f"{witness} only on the {side} ({pair.lp_name})"
        elif mapped_models != lab_set:
            witness = min(mapped_models ^ lab_set, key=Labelling.sort_key)
            side = "program side" if witness in mapped_models else "labelling side"
            counterexample = f"{witness} only on the {side} ({pair.af_name})"
        rows.append(
            EquivalenceRow(
                pair.lp_name,
                pair.af_name,
                tuple(models),
                tuple(labellings),
                counterexample is None,
                counterexample,
            )
        )
    return EquivalenceReport(p, s, tuple(rows))
