"""Seeded instance generators and the theorem-oracle suites.

Each suite evaluates one numbered claim on one instance and returns a
verdict: pass, fail (with the first counterexample found), or
not-applicable when the claim's precondition excludes the instance. Suite
names ("theorem-9", "corollary-3", "theorem-4.4", ...) are a public
contract: the check command and the acceptance tests drive everything
through run_suite. Two numbered slots (8 and 22) have no standalone
statement to execute; they are registered as explicit not-applicable
entries so the catalogue stays total and nobody wonders where they went.

Generators are plain seeded random.Random sampling: same config, same
instance, byte for byte. No shrinking; failing instances are small enough
to eyeball.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .correspond import PAIRS, SemanticsPair, check_equivalence, i2l_af, i2l_p, l2i_af, l2i_p
from .correspond import _i2l, _l2i  # the same maps, swept on bitmasks by theorem-1 and theorem-5
from .errors import CapExceeded, InputError, StepCapExceeded
from .programs import (
    DEFAULT_ATOM_CAP,
    Interpretation,
    PositiveProgram,
    PositiveRule,
    Program,
    Rule,
    _AtomIndex,
    _IndexedProgram,
    _reduct_sweep,
    _three_valued,
    least_model,
    narrow_universe,
    omega,
    partial_stable_models,
)
from .setafs import Labelling, Setaf, complete_labellings, minimize_attacks
from .textio import print_interpretation, print_labelling
from .transform import (
    DEFAULT_STEP_CAP,
    LEX,
    REVERSE_LEX,
    StepKind,
    TransformStep,
    _fair_steps,
    applicable_steps,
    apply,
    is_irreducible,
)
from .translate import (
    DEFAULT_STATEMENT_CAP,
    arguments,
    is_rfalp,
    minimal_vulnerabilities,
    nlp_to_setaf,
    rfalp_violations,
    setaf_to_nlp,
)

# --- generators ---------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the random generators. The seed fully determines output."""

    atom_count: int
    rule_count: int
    max_body_pos: int = 2
    max_body_neg: int = 2
    fact_probability: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for name in ("atom_count", "rule_count", "max_body_pos", "max_body_neg"):
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be >= 0")
        if not 0.0 <= self.fact_probability <= 1.0:
            raise InputError("fact_probability must be within [0, 1]")


def _atom_pool(count: int) -> list[str]:
    letters = string.ascii_lowercase
    return [letters[i] if i < len(letters) else f"a{i}" for i in range(count)]


def gen_program(cfg: GenConfig) -> Program:
    """Random program over a pool of atom_count atoms. The whole pool is the
    universe even when some atoms end up unused. fact_probability biases
    toward facts so total (stable) models show up now and then."""
    rng = random.Random(cfg.seed)
    pool = _atom_pool(cfg.atom_count)
    rules = set()
    if pool:
        for _ in range(cfg.rule_count):
            head = rng.choice(pool)
            if rng.random() < cfg.fact_probability:
                rules.add(Rule(head))
                continue
            n_pos = rng.randint(0, min(cfg.max_body_pos, len(pool)))
            n_neg = rng.randint(0, min(cfg.max_body_neg, len(pool)))
            rules.add(
                Rule(
                    head,
                    frozenset(rng.sample(pool, n_pos)),
                    frozenset(rng.sample(pool, n_neg)),
                )
            )
    return Program(frozenset(rules), frozenset(pool))


def gen_setaf(cfg: GenConfig) -> Setaf:
    """Random SETAF over atom_count arguments: rule_count raw attacks with
    source sizes up to max_body_neg (attack sources play the role negative
    bodies play on the program side), then minimized so the antichain
    invariant holds by construction."""
    rng = random.Random(cfg.seed)
    pool = _atom_pool(cfg.atom_count)
    attacks = []
    if pool:
        top = max(1, min(cfg.max_body_neg, len(pool)))
        for _ in range(cfg.rule_count):
            size = rng.randint(1, top)
            attacks.append((frozenset(rng.sample(pool, size)), rng.choice(pool)))
    return minimize_attacks(attacks, pool)


# --- verdicts and the registry -------------------------------------------------

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class Verdict:
    suite: str
    status: str
    detail: str = ""
    counterexample: str | None = None

    @property
    def ok(self) -> bool:
        return self.status != FAIL


@dataclass(frozen=True)
class Caps:
    max_atoms: int = DEFAULT_ATOM_CAP
    max_statements: int = DEFAULT_STATEMENT_CAP
    max_steps: int = DEFAULT_STEP_CAP


@dataclass(frozen=True)
class Suite:
    name: str
    kind: str  # "lp", "setaf", or "any"
    summary: str
    run: Callable


_SUITES: dict[str, Suite] = {}


def _suite(name: str, kind: str, summary: str):
    def register(fn):
        _SUITES[name] = Suite(name, kind, summary, fn)
        return fn

    return register


def _pass(name: str, detail: str = "") -> Verdict:
    return Verdict(name, PASS, detail)


def _fail(name: str, counterexample: str, detail: str = "") -> Verdict:
    return Verdict(name, FAIL, detail, counterexample)


def _na(name: str, detail: str) -> Verdict:
    return Verdict(name, NOT_APPLICABLE, detail)


def _guard_enum(count: int, caps: Caps):
    if count > caps.max_atoms:
        raise CapExceeded(f"enumeration over {count} atoms exceeds the cap of {caps.max_atoms}")


# The normal form and the steps that reach it, per strategy: theorem-21
# replays the steps, and no suite reads the trace digests, so none are
# computed (hashing would also load OpenSSL into every check). A check run
# asks for two programs at most.
@lru_cache(maxsize=8)
def _norm(p: Program, strategy: str, max_steps: int) -> tuple[Program, tuple[TransformStep, ...]]:
    steps = []
    for step, p in _fair_steps(p, strategy, max_steps):
        steps.append(step)
    return p, tuple(steps)


# --- program-side suites --------------------------------------------------------


def _labellings_round_trip(name: str, ix: _AtomIndex, a: int) -> Verdict | None:
    """Every labelling of the arguments *a*, in all_labellings order, goes
    through correspond's conversions, on bitmasks, to an interpretation over
    the atoms of *ix* and back. The failure at the first one that does not
    come back, or None; objects and text are built for that one alone."""
    lost = ix.full & ~a

    def labelling(in_: int, out: int) -> Labelling:
        return Labelling(ix.unmask(in_), ix.unmask(out), ix.unmask(a & ~in_ & ~out))

    for in_, out in _three_valued([1 << i for i in range(ix.n) if a >> i & 1]):
        back = _i2l(*_l2i(in_, out, lost), a)
        if back != (in_, out):
            return _fail(
                name,
                f"{print_labelling(labelling(in_, out))} came back as "
                f"{print_labelling(labelling(*back))}",
            )
    return None


@_suite("theorem-1", "lp", "labelling -> interpretation -> labelling is the identity")
def _t1(p: Program, caps: Caps) -> Verdict:
    """Every labelling of the arguments goes to an interpretation over the
    universe and back."""
    args = arguments(p, caps.max_statements)
    _guard_enum(len(args), caps)
    ix = _AtomIndex(p.universe)
    return _labellings_round_trip("theorem-1", ix, ix.mask(args)) or _pass("theorem-1")


@_suite("theorem-2", "lp", "interpretation -> labelling -> interpretation fixes partial stable models")
def _t2(p: Program, caps: Caps) -> Verdict:
    for m in partial_stable_models(p, caps.max_atoms):
        back = l2i_p(p, i2l_p(p, m, caps.max_statements), caps.max_statements)
        if back != m:
            return _fail(
                "theorem-2",
                f"{print_interpretation(m, p.universe)} came back as "
                f"{print_interpretation(back, p.universe)}",
            )
    return _pass("theorem-2")


@_suite("theorem-3", "lp", "complete labellings correspond to partial stable models")
def _t3(p: Program, caps: Caps) -> Verdict:
    s = nlp_to_setaf(p, caps.max_statements)
    models = partial_stable_models(p, caps.max_atoms)
    labs = complete_labellings(s, caps.max_atoms)
    model_set, lab_set = set(models), set(labs)
    for l in labs:
        if l2i_p(p, l, caps.max_statements) not in model_set:
            return _fail(
                "theorem-3", f"complete {print_labelling(l)} maps outside the partial stable models"
            )
    for m in models:
        if i2l_p(p, m, caps.max_statements) not in lab_set:
            return _fail(
                "theorem-3",
                f"partial stable {print_interpretation(m, p.universe)} maps to a non-complete labelling",
            )
    if len(models) != len(labs):
        return _fail("theorem-3", f"{len(models)} models vs {len(labs)} labellings")
    return _pass("theorem-3")


# The four selected semantics pairs of theorems 4 and 7 (and corollaries 3-5).
_SELECTED = PAIRS[1:]

# Regular models are the partial stable models whose true set no other one
# strictly contains, l-stable models those whose true | false set none does;
# preferred and semi-stable labellings are the complete labellings alike by
# in and in | out. Keyed by pair, program side first.
_MAXIMIZED = {
    "regular": (lambda m: m.true, lambda l: l.in_),
    "l-stable": (lambda m: m.true | m.false, lambda l: l.in_ | l.out),
}


def _selection_ce(pair: SemanticsPair, p: Program, s: Setaf, models, labs, caps: Caps) -> str | None:
    """Both sides of a maximizing pair against their definitions, by a
    dominance test apart from programs._maximal."""
    if pair.lp_name not in _MAXIMIZED:
        return None
    sides = (
        (pair.lp_name, models, partial_stable_models(p, caps.max_atoms), "partial stable models"),
        (pair.af_name, labs, complete_labellings(s, caps.max_atoms), "complete labellings"),
    )
    for (name, got, base, what), key in zip(sides, _MAXIMIZED[pair.lp_name]):
        if set(got) != {x for x in base if not any(key(x) < key(y) for y in base)}:
            return f"{name}: the selection differs from its definition over the {what}"
    return None


def _theorem4_item(p: Program, caps: Caps, pair: SemanticsPair) -> str | None:
    s = nlp_to_setaf(p, caps.max_statements)
    models = pair.models(p, caps.max_atoms)
    labs = pair.labellings(s, caps.max_atoms)
    mapped = {i2l_p(p, m, caps.max_statements) for m in models}
    if mapped != set(labs):
        return f"{pair.title}: models map to {sorted(map(print_labelling, mapped))}, labellings are {sorted(map(print_labelling, labs))}"
    back = {l2i_p(p, l, caps.max_statements) for l in labs}
    if back != set(models):
        return f"{pair.title}: labellings map back to a different model set"
    return _selection_ce(pair, p, s, models, labs, caps)


@_suite("corollary-2", "lp", "the five-row equivalence report holds in both directions")
def _c2(p: Program, caps: Caps) -> Verdict:
    report = check_equivalence(p, caps.max_atoms, caps.max_statements)
    for row in report.rows:
        if not row.equal:
            return _fail("corollary-2", row.counterexample or f"{row.lp_name} row differs")
    return _pass("corollary-2")


# --- SETAF-side suites -----------------------------------------------------------


@_suite("theorem-5", "setaf", "labelling/interpretation conversions are mutual inverses")
def _t5(s: Setaf, caps: Caps) -> Verdict:
    """Every labelling, then every interpretation (all_interpretations
    order) over the arguments goes across and back, on bitmasks."""
    _guard_enum(len(s.arguments), caps)
    ix = _AtomIndex(s.arguments)
    failed = _labellings_round_trip("theorem-5", ix, ix.full)
    if failed:
        return failed

    def interpretation(t: int, f: int) -> str:
        return print_interpretation(Interpretation(ix.unmask(t), ix.unmask(f)), s.arguments)

    for t, f in _three_valued([1 << i for i in range(ix.n)]):
        back = _l2i(*_i2l(t, f, ix.full), 0)
        if back != (t, f):
            return _fail("theorem-5", f"{interpretation(t, f)} came back as {interpretation(*back)}")
    return _pass("theorem-5")


@_suite("theorem-6", "setaf", "complete labellings match partial stable models of the derived program")
def _t6(s: Setaf, caps: Caps) -> Verdict:
    p2 = setaf_to_nlp(s)
    labs = complete_labellings(s, caps.max_atoms)
    models = partial_stable_models(p2, caps.max_atoms)
    model_set, lab_set = set(models), set(labs)
    for l in labs:
        if l2i_af(l) not in model_set:
            return _fail("theorem-6", f"complete {print_labelling(l)} is not a partial stable model")
    for m in models:
        if i2l_af(m, s.arguments) not in lab_set:
            return _fail(
                "theorem-6",
                f"partial stable {print_interpretation(m, s.arguments)} is not complete",
            )
    if len(models) != len(labs):
        return _fail("theorem-6", f"{len(models)} models vs {len(labs)} labellings")
    return _pass("theorem-6")


def _theorem7_item(s: Setaf, caps: Caps, pair: SemanticsPair) -> str | None:
    p2 = setaf_to_nlp(s)
    labs = pair.labellings(s, caps.max_atoms)
    models = pair.models(p2, caps.max_atoms)
    mapped = {l2i_af(l) for l in labs}
    if mapped != set(models):
        return f"{pair.title}: labellings map to a different model set"
    back = {i2l_af(m, s.arguments) for m in models}
    if back != set(labs):
        return f"{pair.title}: models map back to a different labelling set"
    return _selection_ce(pair, p2, s, models, labs, caps)


def _register_items(theorem: str, kind: str, item: Callable, side: str):
    """theorem-N.1 .. theorem-N.4, one per selected pair, and theorem-N,
    which fails with the first failing pair."""
    for number, pair in enumerate(_SELECTED, 1):
        name = f"{theorem}.{number}"

        def run(instance, caps: Caps, _pair=pair, _name=name) -> Verdict:
            ce = item(instance, caps, _pair)
            return _fail(_name, ce) if ce else _pass(_name)

        _suite(name, kind, f"{pair.title} correspondence{side}")(run)

    def run_all(instance, caps: Caps) -> Verdict:
        for pair in _SELECTED:
            ce = item(instance, caps, pair)
            if ce:
                return _fail(theorem, ce)
        return _pass(theorem)

    _suite(theorem, kind, f"the four selected semantics correspond pairwise{side}")(run_all)


_register_items("theorem-4", "lp", _theorem4_item, "")
_register_items("theorem-7", "setaf", _theorem7_item, ", SETAF side")


@_suite("corollary-3", "setaf", "SETAF-side correspondences hold in the reverse direction too")
def _c3(s: Setaf, caps: Caps) -> Verdict:
    p2 = setaf_to_nlp(s)
    for pair in PAIRS:
        label = pair.af_name if pair is PAIRS[0] else pair.title
        labs = pair.labellings(s, caps.max_atoms)
        models = pair.models(p2, caps.max_atoms)
        if {i2l_af(m, s.arguments) for m in models} != set(labs):
            return _fail("corollary-3", f"{label}: model class maps to a different labelling class")
        if {l2i_af(l) for l in labs} != set(models):
            return _fail("corollary-3", f"{label}: labelling class maps to a different model class")
    return _pass("corollary-3")


@_suite("theorem-8", "any", "numbered slot with no standalone executable statement")
def _t8(instance, caps: Caps) -> Verdict:
    return _na(
        "theorem-8",
        "nothing to execute on this slot; the surrounding correspondence content "
        "is covered by theorem-6, theorem-7 and corollary-3",
    )


@_suite("theorem-9", "setaf", "SETAF -> program -> SETAF is the identity")
def _t9(s: Setaf, caps: Caps) -> Verdict:
    back = nlp_to_setaf(setaf_to_nlp(s), caps.max_statements)
    if back != s:
        return _fail("theorem-9", "round trip produced a different SETAF")
    return _pass("theorem-9")


@_suite("theorem-10", "lp", "program -> SETAF -> program is the identity on RFALPs")
def _t10(p: Program, caps: Caps) -> Verdict:
    if not is_rfalp(p):
        return _na("theorem-10", "stated for redundancy-free atomic programs only")
    back = setaf_to_nlp(nlp_to_setaf(p, caps.max_statements))
    if back != p:
        return _fail("theorem-10", "round trip produced a different program")
    return _pass("theorem-10")


# --- normalization suites ---------------------------------------------------------


@_suite("theorem-11", "lp", "fair normalization terminates under both strategies")
def _t11(p: Program, caps: Caps) -> Verdict:
    for strategy in (LEX, REVERSE_LEX):
        try:
            _norm(p, strategy, caps.max_steps)
        except StepCapExceeded as exc:
            return _fail("theorem-11", f"{strategy}: {exc}")
    return _pass("theorem-11")


@_suite("theorem-12", "lp", "fair normalization reaches an irreducible program")
def _t12(p: Program, caps: Caps) -> Verdict:
    for strategy in (LEX, REVERSE_LEX):
        result, _ = _norm(p, strategy, caps.max_steps)
        if not is_irreducible(result):
            step = applicable_steps(result)[0]
            return _fail("theorem-12", f"{strategy}: result still admits {step}")
    return _pass("theorem-12")


@_suite("theorem-13", "lp", "the normal form is a redundancy-free atomic program")
def _t13(p: Program, caps: Caps) -> Verdict:
    # The carried universe may keep atoms whose rules all vanished, so
    # RFALP-ness is judged over the atoms the result still mentions.
    for strategy in (LEX, REVERSE_LEX):
        result, _ = _norm(p, strategy, caps.max_steps)
        problems = rfalp_violations(narrow_universe(result))
        if problems:
            return _fail("theorem-13", f"{strategy}: " + "; ".join(problems))
    return _pass("theorem-13")


@_suite("theorem-14", "lp", "redundancy-free atomic programs are irreducible")
def _t14(p: Program, caps: Caps) -> Verdict:
    witnesses = [setaf_to_nlp(nlp_to_setaf(p, caps.max_statements))]
    for strategy in (LEX, REVERSE_LEX):
        witnesses.append(narrow_universe(_norm(p, strategy, caps.max_steps)[0]))
    if is_rfalp(p):
        witnesses.append(p)
    checked = 0
    for w in witnesses:
        if not is_rfalp(w):
            continue  # not this suite's business; theorem-13/prop-1 cover it
        checked += 1
        if not is_irreducible(w):
            return _fail("theorem-14", f"RFALP still admits {applicable_steps(w)[0]}")
    return _pass("theorem-14", detail=f"{checked} witnesses checked")


def _per_step_psms(p: Program, caps: Caps, kind: StepKind, name: str) -> Verdict:
    base = partial_stable_models(p, caps.max_atoms)
    checked = 0
    for step in applicable_steps(p):
        if step.kind is not kind:
            continue
        after = apply(p, step)
        if partial_stable_models(after, caps.max_atoms) != base:
            return _fail(name, f"{step} changed the partial stable models")
        checked += 1
    detail = f"{checked} steps checked" if checked else "no applicable steps"
    return _pass(name, detail=detail)


@_suite("theorem-15", "lp", "unfolding preserves partial stable models")
def _t15(p: Program, caps: Caps) -> Verdict:
    return _per_step_psms(p, caps, StepKind.UNFOLD, "theorem-15")


@_suite("theorem-16", "lp", "tautology elimination preserves partial stable models")
def _t16(p: Program, caps: Caps) -> Verdict:
    return _per_step_psms(p, caps, StepKind.TAUTOLOGY, "theorem-16")


@_suite("theorem-17", "lp", "positive reduction preserves partial stable models")
def _t17(p: Program, caps: Caps) -> Verdict:
    return _per_step_psms(p, caps, StepKind.POSITIVE_REDUCTION, "theorem-17")


@_suite("theorem-18", "lp", "non-minimal rule elimination preserves partial stable models")
def _t18(p: Program, caps: Caps) -> Verdict:
    return _per_step_psms(p, caps, StepKind.NON_MINIMAL, "theorem-18")


@_suite("theorem-19", "lp", "normalization preserves partial stable models end to end")
def _t19(p: Program, caps: Caps) -> Verdict:
    base = partial_stable_models(p, caps.max_atoms)
    for strategy in (LEX, REVERSE_LEX):
        result, _ = _norm(p, strategy, caps.max_steps)
        if partial_stable_models(result, caps.max_atoms) != base:
            return _fail("theorem-19", f"{strategy}: normal form has different partial stable models")
    return _pass("theorem-19")


@_suite("theorem-20", "any", "expressiveness meta-statement")
def _t20(instance, caps: Caps) -> Verdict:
    return _na(
        "theorem-20",
        "class-level expressiveness claim with no per-instance check; "
        "its constructive content is exercised by corollary-5",
    )


@_suite("theorem-21", "lp", "every transformation step leaves the associated SETAF unchanged")
def _t21(p: Program, caps: Caps) -> Verdict:
    target = nlp_to_setaf(p, caps.max_statements)
    for strategy in (LEX, REVERSE_LEX):
        q = p
        _, steps = _norm(p, strategy, caps.max_steps)
        for idx, step in enumerate(steps, 1):
            q = apply(q, step)
            # Each step's program is translated once: keep it out of the cache.
            if nlp_to_setaf.__wrapped__(q, caps.max_statements) != target:
                return _fail("theorem-21", f"{strategy} step {idx} ({step}) changed the SETAF")
    return _pass("theorem-21")


@_suite("theorem-22", "any", "numbered slot with no standalone executable statement")
def _t22(instance, caps: Caps) -> Verdict:
    return _na(
        "theorem-22",
        "nothing to execute on this slot; normal-form content is covered by "
        "theorem-23 and composite-normal-form",
    )


@_suite("theorem-23", "lp", "both fair strategies reach the same normal form")
def _t23(p: Program, caps: Caps) -> Verdict:
    lex_result, _ = _norm(p, LEX, caps.max_steps)
    rev_result, _ = _norm(p, REVERSE_LEX, caps.max_steps)
    if lex_result != rev_result:
        return _fail("theorem-23", "lex and revlex normal forms differ")
    return _pass("theorem-23")


# --- cross-module correspondence suites --------------------------------------------


@_suite("corollary-1", "lp", "arguments are the positively derivable atoms; lost atoms are always false")
def _c1(p: Program, caps: Caps) -> Verdict:
    """The arguments are the atoms true in omega of the all-false
    interpretation (one reference omega call), and the other atoms are
    false in omega of every interpretation. The sweep reads omega's images
    on bitmasks; the arguments come from the translation."""
    args = arguments(p, caps.max_statements)
    everything_false = Interpretation(frozenset(), p.universe)
    derived = omega(p, everything_false)
    if derived.true != args:
        return _fail(
            "corollary-1",
            f"arguments {sorted(args)} vs derivable atoms {sorted(derived.true)}",
        )
    _guard_enum(len(p.universe), caps)
    ip = _IndexedProgram(p)
    lost = ip.full & ~ip.mask(args)
    for t, f, _, wf in _reduct_sweep(ip):
        if lost & ~wf:
            i = Interpretation(ip.unmask(t), ip.unmask(f))
            return _fail(
                "corollary-1",
                f"lost atoms {sorted(ip.unmask(lost & ~wf))} not false under "
                f"{print_interpretation(i, p.universe)}",
            )
    return _pass("corollary-1")


@_suite("lemma-1", "lp", "statement vulnerabilities predict the least model of every reduct")
def _l1(p: Program, caps: Caps) -> Verdict:
    """Under every interpretation I, omega(p, I) makes an atom true exactly
    when some statement for it has every vulnerability false in I, and false
    exactly when every statement for it has a vulnerability true in I. Both
    conditions are monotone in the vulnerability sets, so they read each
    atom's minimal vulnerability sets instead of the statements, which
    differ by the rules they use and can be far more. omega's images come
    from the bitmask sweep; the first interpretation that disagrees is the
    counterexample."""
    family = minimal_vulnerabilities(p, caps.max_statements)
    _guard_enum(len(p.universe), caps)
    ip = _IndexedProgram(p)
    fronts = [
        (1 << ip.index[conc], ip.mask(vul)) for conc, vuls in family.items() for vul in vuls
    ]
    for t, f, wt, wf in _reduct_sweep(ip):
        expect_true = unrefuted = 0
        for conc, vul in fronts:
            if not vul & ~f:
                expect_true |= conc
            if not vul & t:
                unrefuted |= conc
        expect_false = ip.full & ~unrefuted
        if wt != expect_true or wf != expect_false:
            i = Interpretation(ip.unmask(t), ip.unmask(f))
            w = Interpretation(ip.unmask(wt), ip.unmask(wf))
            return _fail(
                "lemma-1",
                f"under {print_interpretation(i, p.universe)} expected "
                f"T={sorted(ip.unmask(expect_true))} F={sorted(ip.unmask(expect_false))}, got "
                f"{print_interpretation(w, p.universe)}",
            )
    return _pass("lemma-1")


@_suite("prop-1", "setaf", "the derived program is always a redundancy-free atomic program")
def _p1(s: Setaf, caps: Caps) -> Verdict:
    problems = rfalp_violations(setaf_to_nlp(s))
    if problems:
        return _fail("prop-1", "; ".join(problems))
    return _pass("prop-1")


@_suite("corollary-4", "lp", "normalization preserves the four selected semantics")
def _c4(p: Program, caps: Caps) -> Verdict:
    result, _ = _norm(p, LEX, caps.max_steps)
    for pair in _SELECTED:
        if pair.models(p, caps.max_atoms) != pair.models(result, caps.max_atoms):
            return _fail("corollary-4", f"{pair.lp_name} models changed")
    return _pass("corollary-4")


@_suite("corollary-5", "lp", "an equivalent redundancy-free atomic program exists")
def _c5(p: Program, caps: Caps) -> Verdict:
    result, _ = _norm(p, LEX, caps.max_steps)
    problems = rfalp_violations(narrow_universe(result))
    if problems:
        return _fail("corollary-5", "witness is not an RFALP: " + "; ".join(problems))
    if partial_stable_models(result, caps.max_atoms) != partial_stable_models(p, caps.max_atoms):
        return _fail("corollary-5", "witness has different partial stable models")
    for pair in _SELECTED:
        if pair.models(result, caps.max_atoms) != pair.models(p, caps.max_atoms):
            return _fail("corollary-5", f"witness differs on {pair.lp_name}")
    return _pass("corollary-5")


@_suite("composite-normal-form", "lp", "fair normal form equals the SETAF round trip")
def _composite(p: Program, caps: Caps) -> Verdict:
    target = setaf_to_nlp(nlp_to_setaf(p, caps.max_statements))
    for strategy in (LEX, REVERSE_LEX):
        got = narrow_universe(_norm(p, strategy, caps.max_steps)[0])
        if got != target:
            return _fail("composite-normal-form", f"{strategy} normal form differs from the round trip")
    return _pass("composite-normal-form")


@_suite("lemma-least-model", "lp", "steps on negation-free programs preserve the least model")
def _llm(p: Program, caps: Caps) -> Verdict:
    if any(r.body_neg for r in p.rules):
        return _na("lemma-least-model", "stated for negation-free programs only")

    def positive(prog: Program) -> PositiveProgram:
        return PositiveProgram(
            frozenset(PositiveRule(r.head, r.body_pos) for r in prog.rules), prog.universe
        )

    base = least_model(positive(p))
    checked = 0
    for step in applicable_steps(p):
        after = apply(p, step)
        if least_model(positive(after)) != base:
            return _fail("lemma-least-model", f"{step} changed the least model")
        checked += 1
    detail = f"{checked} steps checked" if checked else "no applicable steps"
    return _pass("lemma-least-model", detail=detail)


# --- running suites ---------------------------------------------------------------


def _name_key(name: str):
    family, _, rest = name.partition("-")
    rank = {"theorem": 0, "corollary": 1, "prop": 2, "lemma": 3}.get(family, 4)
    if rest and rest[0].isdigit():
        nums = tuple(int(x) for x in rest.split("."))
    else:
        nums = (999,)
    return (rank, nums, name)


def suite_names() -> list[str]:
    return sorted(_SUITES, key=_name_key)


def catalogue() -> list[Suite]:
    """Every registered suite in catalogue order, not-applicable slots included."""
    return [_SUITES[n] for n in suite_names()]


CHECK_GROUPS: dict[str, tuple[str, ...]] = {
    "inverse": (
        "theorem-1",
        "theorem-2",
        "theorem-5",
        "theorem-9",
        "theorem-10",
        "prop-1",
    ),
    "equivalence": (
        "theorem-3",
        "theorem-4",
        "corollary-2",
        "theorem-6",
        "theorem-7",
        "corollary-3",
        "corollary-1",
        "lemma-1",
    ),
    "confluence": (
        "theorem-11",
        "theorem-12",
        "theorem-13",
        "theorem-14",
        "theorem-23",
        "composite-normal-form",
    ),
    "invariance": (
        "theorem-15",
        "theorem-16",
        "theorem-17",
        "theorem-18",
        "theorem-19",
        "theorem-21",
        "corollary-4",
        "corollary-5",
        "lemma-least-model",
    ),
}


def check_group(group: str) -> list[str]:
    """Suite names for a check group; 'all' is everything registered."""
    if group == "all":
        return suite_names()
    if group not in CHECK_GROUPS:
        known = ", ".join(sorted(CHECK_GROUPS) + ["all"])
        raise InputError(f"unknown check group {group!r}; known groups: {known}")
    return list(CHECK_GROUPS[group])


def run_suite(name: str, instance, caps: Caps = Caps()) -> Verdict:
    """Evaluate one named suite on one instance.

    Program-side suites given a Setaf run on setaf_to_nlp of it, and
    SETAF-side suites given a Program run on nlp_to_setaf of it; the verdict
    detail says so when that happens.
    """
    suite = _SUITES.get(name)
    if suite is None:
        raise InputError(f"unknown suite {name!r}; see catalogue() for the list")
    if not isinstance(instance, (Program, Setaf)):
        raise InputError(f"suites run on Program or Setaf values, not {type(instance).__name__}")
    inst = instance
    note = ""
    if suite.kind == "lp" and isinstance(instance, Setaf):
        inst = setaf_to_nlp(instance)
        note = "ran on setaf_to_nlp of the input"
    elif suite.kind == "setaf" and isinstance(instance, Program):
        inst = nlp_to_setaf(instance, caps.max_statements)
        note = "ran on nlp_to_setaf of the input"
    verdict = suite.run(inst, caps)
    if note:
        merged = f"{verdict.detail}; {note}" if verdict.detail else note
        verdict = Verdict(verdict.suite, verdict.status, merged, verdict.counterexample)
    return verdict
