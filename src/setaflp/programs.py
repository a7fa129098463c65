"""Normal logic programs and their partial stable model family.

A program is a finite set of rules ``head :- body_pos, not body_neg`` over an
explicit universe of atoms. Interpretations are three-valued: atoms are true,
false, or undefined. The semantics implemented here all derive from one
operator: omega(P, I) takes the reduct of P by I (a positive program that may
mention a special *undefined* constant) and returns its least three-valued
model. Fixpoints of omega are the partial stable models: the well-founded
model is the least one, and the regular, (total) stable and L-stable models
are selections among them.

The reduct replaces each negated literal ``not b`` by: nothing if b is false
in I, the undefined constant if b is undefined in I; rules with a negated
atom true in I are dropped. The undefined constant is not an atom: it never
becomes true or false, it only keeps a rule from firing while also keeping
its head from being falsified.

Rules and programs are sets, so syntactic duplicates collapse, and a literal
may appear both positively and negatively in one body (such a rule is simply
never applicable in a total model).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded, DomainMismatch, InputError, InternalInvariantViolation

ATOM_RE = re.compile(r"[a-z][A-Za-z0-9_]*\Z")

#: Refuse to enumerate interpretations over more atoms than this by default.
DEFAULT_ATOM_CAP = 16


def validate_atom(name: str) -> str:
    """Check that *name* is a legal atom; return it unchanged. The parsers
    and the Rule, Program, PositiveProgram, Attack and Setaf constructors
    call it; interpretations, labellings and reduct rules are checked
    against the universe they are used with instead."""
    if not isinstance(name, str) or not ATOM_RE.match(name) or name == "not":
        raise InputError(f"not a legal atom name: {name!r}")
    return name


def _atom_set(atoms: Iterable[str]) -> frozenset[str]:
    return frozenset(validate_atom(a) for a in atoms)


#: Equal rule bodies share one set. A normalization trace keeps a rule per
#: step alive, and most of their bodies repeat (the empty body above all);
#: unshared, the body sets were about half of a trace's memory. Cleared
#: when full, so the table never holds more than a few thousand sets.
_BODIES: dict[frozenset[str], frozenset[str]] = {}
_BODIES_MAX = 4096


def _body_set(atoms: Iterable[str]) -> frozenset[str]:
    body = _atom_set(atoms)
    shared = _BODIES.get(body)
    if shared is None:
        if len(_BODIES) >= _BODIES_MAX:
            _BODIES.clear()
        _BODIES[body] = shared = body
    return shared


@dataclass(frozen=True, slots=True)
class Rule:
    """One rule. Example: Rule("c", body_pos={"a"}, body_neg={"b"}) is
    ``c :- a, not b.``"""

    head: str
    body_pos: frozenset[str] = frozenset()
    body_neg: frozenset[str] = frozenset()

    def __post_init__(self):
        validate_atom(self.head)
        object.__setattr__(self, "body_pos", _body_set(self.body_pos))
        object.__setattr__(self, "body_neg", _body_set(self.body_neg))

    def atoms(self) -> frozenset[str]:
        return self.body_pos | self.body_neg | {self.head}

    @property
    def is_fact(self) -> bool:
        return not self.body_pos and not self.body_neg

    @property
    def is_atomic(self) -> bool:
        """Atomic rules have no positive body atoms."""
        return not self.body_pos

    def sort_key(self):
        return (self.head, tuple(sorted(self.body_pos)), tuple(sorted(self.body_neg)))

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        lits = sorted(self.body_pos) + [f"not {b}" for b in sorted(self.body_neg)]
        return f"{self.head} :- {', '.join(lits)}."


def rule(head: str, pos: Iterable[str] = (), neg: Iterable[str] = ()) -> Rule:
    """Shorthand constructor, mostly for tests and demos."""
    return Rule(head, frozenset(pos), frozenset(neg))


@dataclass(frozen=True)
class Program:
    """A normal logic program with an explicit universe.

    The universe defaults to the atoms occurring in the rules but may be
    larger; it is preserved by every operation in this package that maps
    programs to programs.
    """

    rules: frozenset[Rule]
    universe: frozenset[str] = None  # type: ignore[assignment]

    def __post_init__(self):
        rules = frozenset(self.rules)
        for r in rules:
            if not isinstance(r, Rule):
                raise InputError(f"not a Rule: {r!r}")
        object.__setattr__(self, "rules", rules)
        occurring = frozenset(a for r in rules for a in r.atoms())
        if self.universe is None:
            object.__setattr__(self, "universe", occurring)
        else:
            universe = _atom_set(self.universe)
            if not occurring <= universe:
                raise DomainMismatch(
                    "rules mention atoms outside the universe: "
                    + ", ".join(sorted(occurring - universe))
                )
            object.__setattr__(self, "universe", universe)

    def sorted_rules(self) -> list[Rule]:
        return list(self._sorted_rules)

    @cached_property
    def _sorted_rules(self) -> tuple[Rule, ...]:
        # Normalization asks each program it passes through for this order
        # several times: for the next step, for by_head and for the digest.
        return tuple(sorted(self.rules, key=Rule.sort_key))

    def occurring_atoms(self) -> frozenset[str]:
        return frozenset(a for r in self.rules for a in r.atoms())

    def heads(self) -> frozenset[str]:
        return frozenset(r.head for r in self.rules)

    @cached_property
    def by_head(self) -> dict[str, tuple[Rule, ...]]:
        out: dict[str, list[Rule]] = {}
        for r in self.sorted_rules():
            out.setdefault(r.head, []).append(r)
        return {h: tuple(rs) for h, rs in out.items()}


def narrow_universe(p: Program) -> Program:
    """Shrink the universe to the atoms that actually occur in the rules."""
    return Program(p.rules, p.occurring_atoms())


@dataclass(frozen=True)
class Interpretation:
    """A consistent three-valued interpretation: disjoint true/false sets.

    Atoms in neither set are undefined. The universe is not stored here;
    operations that need it take it as an argument, and reject atoms
    outside it (DomainMismatch), so names are not checked here.
    """

    true: frozenset[str] = frozenset()
    false: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "true", frozenset(self.true))
        object.__setattr__(self, "false", frozenset(self.false))
        overlap = self.true & self.false
        if overlap:
            raise InputError(
                "interpretation is inconsistent, true and false overlap: "
                + ", ".join(sorted(map(str, overlap)))
            )

    def undefined(self, universe: Iterable[str]) -> frozenset[str]:
        return frozenset(universe) - self.true - self.false

    def is_total(self, universe: Iterable[str]) -> bool:
        return self.true | self.false >= frozenset(universe)

    def restrict(self, atoms: Iterable[str]) -> "Interpretation":
        keep = frozenset(atoms)
        return Interpretation(self.true & keep, self.false & keep)

    def sort_key(self):
        return (tuple(sorted(self.true)), tuple(sorted(self.false)))

    def __str__(self) -> str:
        fmt = lambda s: "{" + ",".join(sorted(s)) + "}"
        return f"<T={fmt(self.true)} F={fmt(self.false)}>"


@dataclass(frozen=True)
class PositiveRule:
    """A rule of a reduct: no negation, but the body may (in addition to the
    atoms listed) contain the undefined constant, recorded as a flag."""

    head: str
    body: frozenset[str] = frozenset()
    has_undef: bool = False

    def __post_init__(self):
        object.__setattr__(self, "body", frozenset(self.body))

    def sort_key(self):
        return (self.head, tuple(sorted(self.body)), self.has_undef)


@dataclass(frozen=True)
class PositiveProgram:
    rules: frozenset[PositiveRule]
    universe: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "rules", frozenset(self.rules))
        object.__setattr__(self, "universe", _atom_set(self.universe))
        occurring = {a for r in self.rules for a in r.body | {r.head}}
        if not occurring <= self.universe:
            raise DomainMismatch("reduct rules mention atoms outside the universe")

    @cached_property
    def by_head(self) -> dict[str, tuple[PositiveRule, ...]]:
        out: dict[str, list[PositiveRule]] = {}
        for r in sorted(self.rules, key=PositiveRule.sort_key):
            out.setdefault(r.head, []).append(r)
        return {h: tuple(rs) for h, rs in out.items()}


# --- the operator family ----------------------------------------------------


def _check_domain(i: Interpretation, universe: frozenset[str], what: str = "interpretation"):
    stray = (i.true | i.false) - universe
    if stray:
        raise DomainMismatch(
            f"{what} mentions atoms outside the universe: " + ", ".join(sorted(map(str, stray)))
        )


def reduct(p: Program, i: Interpretation) -> PositiveProgram:
    """The reduct of p by i.

    Per rule: drop it if some negated atom is true in i; otherwise erase the
    negated atoms that are false in i, and flag the rule if any negated atom
    was undefined (that literal becomes the undefined constant).
    """
    _check_domain(i, p.universe)
    kept = set()
    for r in p.rules:
        if r.body_neg & i.true:
            continue
        undecided = r.body_neg - i.false
        kept.add(PositiveRule(r.head, r.body_pos, bool(undecided)))
    return PositiveProgram(frozenset(kept), p.universe)


def psi_step(q: PositiveProgram, j: Interpretation) -> Interpretation:
    """One step of the least-model operator for a positive program.

    An atom becomes true when some undef-free rule for it has its whole body
    true in j. It becomes false when *every* rule for it (there may be none)
    contains a body atom false in j; a rule whose body holds only the
    undefined constant can never be falsified this way, so it keeps its head
    at least undefined.
    """
    _check_domain(j, q.universe)
    new_true = {
        r.head for r in q.rules if not r.has_undef and r.body <= j.true
    }
    new_false = {
        a
        for a in q.universe
        if all(r.body & j.false for r in q.by_head.get(a, ()))
    }
    overlap = new_true & new_false
    if overlap:
        raise InternalInvariantViolation(
            "least-model step derived atoms both true and false: "
            + ", ".join(sorted(overlap))
        )
    return Interpretation(frozenset(new_true), frozenset(new_false))


def least_model(q: PositiveProgram) -> Interpretation:
    """Least three-valued model of a positive program (with undef constant).

    Iterates psi_step from <{}, universe>: truth grows from nothing, falsity
    shrinks from everything. Both directions are monotone, so the fixpoint
    arrives after at most |universe| + 1 steps.
    """
    j = Interpretation(frozenset(), q.universe)
    for _ in range(len(q.universe) + 2):
        nxt = psi_step(q, j)
        if nxt == j:
            return j
        j = nxt
    raise InternalInvariantViolation("least-model iteration failed to converge")


def omega(p: Program, i: Interpretation) -> Interpretation:
    """Least model of the reduct of p by i. Partial stable models are exactly
    the fixpoints of this."""
    return least_model(reduct(p, i))


def all_interpretations(universe: Iterable[str]) -> Iterator[Interpretation]:
    """All 3^n consistent interpretations over *universe*, in a fixed order."""
    atoms = sorted(frozenset(universe))
    for values in itertools.product("tfu", repeat=len(atoms)):
        yield Interpretation(
            frozenset(a for a, v in zip(atoms, values) if v == "t"),
            frozenset(a for a, v in zip(atoms, values) if v == "f"),
        )


# --- fast fixpoint search ----------------------------------------------------
#
# partial_stable_models scans all 3^n candidate interpretations, and the
# corollary-1 and lemma-1 suites read omega's image of every one of them.
# Doing that through the reference operators above allocates and checks
# sets per candidate and gets slow around n = 7 when called thousands of
# times (the property suites do). The scan and the sweep below run the same
# two fixpoint iterations on bitmasks instead. Tests cross-check omega_bits
# against omega() on every interpretation of random programs.


class _AtomIndex:
    """Bit i stands for the i-th atom in sorted order."""

    def __init__(self, atoms: Iterable[str]):
        self.atoms = sorted(atoms)
        self.index = {a: i for i, a in enumerate(self.atoms)}
        self.n = len(self.atoms)
        self.full = (1 << self.n) - 1

    def mask(self, atoms: Iterable[str]) -> int:
        return sum(1 << self.index[a] for a in atoms)

    def unmask(self, bits: int) -> frozenset[str]:
        return frozenset(a for i, a in enumerate(self.atoms) if bits >> i & 1)


class _IndexedProgram(_AtomIndex):
    def __init__(self, p: Program):
        super().__init__(p.universe)
        self.rules = [
            (1 << self.index[r.head], self.mask(r.body_pos), self.mask(r.body_neg))
            for r in p.sorted_rules()
        ]

    def omega_bits(self, t: int, f: int) -> tuple[int, int]:
        rules = self.rules
        jt = 0
        while True:
            nt = 0
            for head, pos, neg in rules:
                if neg & t or neg & ~f:
                    continue  # dropped by the reduct, or guarded by undef
                if pos & ~jt:
                    continue
                nt |= head
            if nt == jt:
                break
            jt = nt
        jf = self.full
        while True:
            blocked = 0
            for head, pos, neg in rules:
                if neg & t:
                    continue  # dropped by the reduct
                if not pos & jf:
                    blocked |= head
            nf = self.full & ~blocked
            if nf == jf:
                break
            jf = nf
        return jt, jf


def _three_valued(bits: list[int]) -> Iterator[tuple[int, int]]:
    """Every disjoint (t, f) pair of masks over the atoms whose single bits
    are listed, in all_interpretations order, which is also all_labellings
    order with in as t and out as f: the first listed atom varies slowest,
    and each goes true, false, then neither."""
    shift = sum(bits).bit_length()
    low = (1 << shift) - 1
    for picked in itertools.product(*[(b, b << shift, 0) for b in bits]):
        both = sum(picked)
        yield both & low, both >> shift


def _reduct_sweep(ip: _IndexedProgram) -> Iterator[tuple[int, int, int, int]]:
    """(t, f, *ip.omega_bits(t, f)) for every consistent interpretation
    (t, f) over the universe, in all_interpretations order."""
    for t, f in _three_valued([1 << i for i in range(ip.n)]):
        yield (t, f, *ip.omega_bits(t, f))


# Bounded to twice one check run's working set or more: the rewrite suites
# ask for the models of every program one transformation step away, 25
# programs at most on the inputs of test_cli's cache test.
@lru_cache(maxsize=64)
def _psm_cached(p: Program, max_atoms: int) -> tuple[Interpretation, ...]:
    if len(p.universe) > max_atoms:
        raise CapExceeded(
            f"universe has {len(p.universe)} atoms, more than the cap of {max_atoms}"
        )
    ip = _IndexedProgram(p)
    found = []
    for t in range(1 << ip.n):
        rest = ip.full & ~t
        f = rest
        while True:
            if ip.omega_bits(t, f) == (t, f):
                found.append(Interpretation(ip.unmask(t), ip.unmask(f)))
            if f == 0:
                break
            f = (f - 1) & rest
    return tuple(sorted(found, key=Interpretation.sort_key))


def partial_stable_models(p: Program, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """All partial stable models of p, sorted by (sorted true, sorted false).

    Scans every consistent interpretation, so it refuses universes larger
    than *max_atoms* (CapExceeded) rather than running for hours. Results
    are cached for the last 64 programs (everything involved is
    immutable); callers get a fresh list each time.
    """
    return list(_psm_cached(p, max_atoms))


# --- the well-founded model and the selections -------------------------------


def well_founded_model(p: Program) -> Interpretation:
    """The least fixpoint of omega (Van Gelder, Ross & Schlipf 1991). omega
    is monotone as true and false grow, so iterating it from the everywhere
    undefined interpretation reaches it within n + 1 steps: no scan, no cap."""
    ip = _IndexedProgram(p)
    t = f = 0
    while (step := ip.omega_bits(t, f)) != (t, f):
        t, f = step
    return Interpretation(ip.unmask(t), ip.unmask(f))


def _maximal(family: list, key: Callable) -> list:
    """The members of *family* whose key no other member's key strictly contains."""
    keys = [key(m) for m in family]
    return [m for m, k in zip(family, keys) if not any(k < o for o in keys)]


def regular_models(p: Program, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Partial stable models whose true set is inclusion-maximal."""
    return _maximal(partial_stable_models(p, max_atoms), lambda m: m.true)


def stable_models(p: Program, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Total partial stable models (no undefined atoms). May be empty."""
    models = partial_stable_models(p, max_atoms)
    return [m for m in models if m.is_total(p.universe)]


def l_stable_models(p: Program, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Interpretation]:
    """Partial stable models with inclusion-minimal undefined, so maximal
    true | false, set. Coincides with the stable models whenever those exist."""
    return _maximal(partial_stable_models(p, max_atoms), lambda m: m.true | m.false)
