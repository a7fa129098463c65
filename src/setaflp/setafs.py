"""Argumentation frameworks with collective attacks (SETAFs) and their
labelling semantics.

An attack has a non-empty *set* of source arguments and a single target: the
sources jointly attack the target. Attack sources on any one target form an
antichain (no attack strictly contains another): a Setaf value cannot be
constructed otherwise. minimize_attacks repairs raw attack lists that break
this, which is harmless because non-minimal attacks never change which
labellings are complete. Both share _inclusion_minimal with the
translation's minimal transversals and vulnerability sets.

A labelling assigns every argument one of in/out/undec. Complete labellings
are the admissible ones whose undec choices are forced: the grounded one is
the least, and preferred, stable and semi-stable are selections among them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from .errors import (
    CapExceeded,
    DanglingArgument,
    DomainMismatch,
    EmptyAttackSource,
    InputError,
    NonMinimalAttack,
)
from .programs import DEFAULT_ATOM_CAP, _atom_set, _maximal, validate_atom


def _inclusion_minimal(family: Iterable[frozenset[str]]) -> tuple[list, list]:
    """The inclusion-minimal members of *family* (equal ones all kept), and
    each other member paired with the first kept member inside it. Shortest
    first, in a stable sort: a set is checked against the shorter kept sets
    alone, so a family of equal-sized sets costs linear time."""
    kept, dropped, shorter = [], [], 0
    for s in sorted(family, key=len):
        while shorter < len(kept) and len(kept[shorter]) < len(s):
            shorter += 1
        for k in kept[:shorter]:
            if k <= s:
                dropped.append((s, k))
                break
        else:
            kept.append(s)
    return kept, dropped


@dataclass(frozen=True)
class Attack:
    """A collective attack: every member of *source* together attacks *target*."""

    source: frozenset[str]
    target: str

    def __post_init__(self):
        object.__setattr__(self, "source", _atom_set(self.source))
        validate_atom(self.target)
        if not self.source:
            raise EmptyAttackSource(f"attack on {self.target} has an empty source set")

    def sort_key(self):
        return (self.target, len(self.source), tuple(sorted(self.source)))

    def __str__(self) -> str:
        return f"{','.join(sorted(self.source))} -> {self.target}"


def _as_attack(raw) -> Attack:
    if isinstance(raw, Attack):
        return raw
    source, target = raw
    return Attack(frozenset(source), target)


@dataclass(frozen=True)
class Setaf:
    """A validated SETAF. Construction enforces the invariants, so every
    Setaf in flight is well-formed."""

    arguments: frozenset[str]
    attacks: frozenset[Attack]

    def __post_init__(self):
        object.__setattr__(self, "arguments", _atom_set(self.arguments))
        object.__setattr__(self, "attacks", frozenset(self.attacks))
        for atk in self.attacks:
            if not isinstance(atk, Attack):
                raise InputError(f"not an Attack: {atk!r}")
            stray = (atk.source | {atk.target}) - self.arguments
            if stray:
                raise DanglingArgument(
                    f"attack {atk} mentions unknown arguments: " + ", ".join(sorted(stray))
                )
        # In Attack.sort_key order: the first non-minimal attack is reported.
        for target, sources in self._attacker_map.items():
            dropped = _inclusion_minimal(sources)[1]
            if dropped:
                raise NonMinimalAttack(target, *dropped[0])

    def sorted_attacks(self) -> list[Attack]:
        return sorted(self.attacks, key=Attack.sort_key)

    def attackers_of(self, argument: str) -> tuple[frozenset[str], ...]:
        return self._attacker_map.get(argument, ())

    @cached_property
    def _attacker_map(self) -> dict[str, tuple[frozenset[str], ...]]:
        out: dict[str, list[frozenset[str]]] = {}
        for atk in self.sorted_attacks():
            out.setdefault(atk.target, []).append(atk.source)
        return {t: tuple(sources) for t, sources in out.items()}


def validate_setaf(arguments: Iterable[str], attacks: Iterable) -> Setaf:
    """Build a Setaf from raw data: an argument set plus attacks given either
    as Attack values or as (source_iterable, target) pairs."""
    return Setaf(frozenset(arguments), frozenset(_as_attack(a) for a in attacks))


def minimize_attacks(attacks: Iterable, arguments: Iterable[str]) -> Setaf:
    """Like validate_setaf, but repairs non-minimality instead of rejecting
    it: any attack whose source strictly contains another source attacking
    the same target is dropped. Idempotent."""
    by_target: dict[str, set[frozenset[str]]] = {}
    for atk in {_as_attack(a) for a in attacks}:
        by_target.setdefault(atk.target, set()).add(atk.source)
    kept = frozenset(
        Attack(source, target)
        for target, sources in by_target.items()
        for source in _inclusion_minimal(sources)[0]
    )
    return Setaf(frozenset(arguments), kept)


IN, OUT, UNDEC = "in", "out", "undec"


@dataclass(frozen=True)
class Labelling:
    """A total in/out/undec assignment, stored as the three disjoint sets.
    Names are not checked here; operations that take a framework too reject
    labellings that do not cover exactly its arguments (DomainMismatch)."""

    in_: frozenset[str] = frozenset()
    out: frozenset[str] = frozenset()
    undec: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "in_", frozenset(self.in_))
        object.__setattr__(self, "out", frozenset(self.out))
        object.__setattr__(self, "undec", frozenset(self.undec))
        if (self.in_ & self.out) or (self.in_ & self.undec) or (self.out & self.undec):
            raise InputError("labelling assigns some argument two labels")

    @property
    def arguments(self) -> frozenset[str]:
        return self.in_ | self.out | self.undec

    def label_of(self, argument: str) -> str:
        if argument in self.in_:
            return IN
        if argument in self.out:
            return OUT
        if argument in self.undec:
            return UNDEC
        raise DomainMismatch(f"argument {argument!r} is not labelled")

    @classmethod
    def from_map(cls, labels: dict[str, str]) -> "Labelling":
        bad = {a: l for a, l in labels.items() if l not in (IN, OUT, UNDEC)}
        if bad:
            raise InputError(f"unknown labels: {bad!r}")
        return cls(
            frozenset(a for a, l in labels.items() if l == IN),
            frozenset(a for a, l in labels.items() if l == OUT),
            frozenset(a for a, l in labels.items() if l == UNDEC),
        )

    def sort_key(self):
        return (
            tuple(sorted(self.in_)),
            tuple(sorted(self.out)),
            tuple(sorted(self.undec)),
        )

    def __str__(self) -> str:
        fmt = lambda s: "{" + ",".join(sorted(s)) + "}"
        return f"(in={fmt(self.in_)} out={fmt(self.out)} undec={fmt(self.undec)})"


def _check_total(s: Setaf, l: Labelling):
    if l.arguments != s.arguments:
        missing = s.arguments - l.arguments
        stray = l.arguments - s.arguments
        parts = []
        if missing:
            parts.append("unlabelled: " + ", ".join(sorted(missing)))
        if stray:
            parts.append("not arguments: " + ", ".join(sorted(map(str, stray))))
        raise DomainMismatch("labelling does not match the argument set (" + "; ".join(parts) + ")")


def is_admissible(s: Setaf, l: Labelling) -> bool:
    """in-labelled arguments must have an out member in every attacking set;
    out-labelled arguments must have some attacking set entirely in."""
    _check_total(s, l)
    for a in l.in_:
        if any(not (b & l.out) for b in s.attackers_of(a)):
            return False
    for a in l.out:
        if not any(b <= l.in_ for b in s.attackers_of(a)):
            return False
    return True


def is_complete(s: Setaf, l: Labelling) -> bool:
    """Admissible, and every undec label is forced: the argument has an
    attacking set with no out member (so it cannot be in) yet no attacking
    set entirely in (so it cannot be out)."""
    if not is_admissible(s, l):
        return False
    for a in l.undec:
        sources = s.attackers_of(a)
        if not any(not (b & l.out) for b in sources):
            return False
        if any(b <= l.in_ for b in sources):
            return False
    return True


def all_labellings(arguments: Iterable[str]) -> Iterator[Labelling]:
    """All 3^n labellings over *arguments*, in a fixed order."""
    args = sorted(frozenset(arguments))
    for values in itertools.product((IN, OUT, UNDEC), repeat=len(args)):
        yield Labelling.from_map(dict(zip(args, values)))


# A check or semantics run asks about one or two frameworks.
@lru_cache(maxsize=16)
def _complete_cached(s: Setaf, max_atoms: int) -> tuple[Labelling, ...]:
    if len(s.arguments) > max_atoms:
        raise CapExceeded(
            f"SETAF has {len(s.arguments)} arguments, more than the cap of {max_atoms}"
        )
    found = [l for l in all_labellings(s.arguments) if is_complete(s, l)]
    return tuple(sorted(found, key=Labelling.sort_key))


def complete_labellings(s: Setaf, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Labelling]:
    """All complete labellings, canonically ordered by (in, out, undec).

    Exhaustive 3^n filter, hence the argument-count cap (CapExceeded).
    Cached for the last 16 SETAFs; callers get a fresh list each time.
    """
    return list(_complete_cached(s, max_atoms))


def grounded(s: Setaf) -> Labelling:
    """The least fixpoint of the characteristic function (Nielsen & Parsons
    2006). From all-undec, an argument goes in once every attacking set has
    an out member, and out once some attacking set is all in. Both sets only
    grow, so n + 1 rounds at most reach it: no scan, no cap."""
    attacked = [(a, s.attackers_of(a)) for a in s.arguments]
    in_ = out = frozenset()
    while True:
        step = (frozenset(a for a, sources in attacked if all(b & out for b in sources)),
                frozenset(a for a, sources in attacked if any(b <= in_ for b in sources)))
        if step == (in_, out):
            return Labelling(in_, out, s.arguments - in_ - out)
        in_, out = step


def preferred(s: Setaf, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Labelling]:
    """Complete labellings with inclusion-maximal in set."""
    return _maximal(complete_labellings(s, max_atoms), lambda l: l.in_)


def stable(s: Setaf, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Labelling]:
    """Complete labellings with empty undec. May be empty."""
    return [l for l in complete_labellings(s, max_atoms) if not l.undec]


def semi_stable(s: Setaf, max_atoms: int = DEFAULT_ATOM_CAP) -> list[Labelling]:
    """Complete labellings with inclusion-minimal undec, so maximal in | out, set."""
    return _maximal(complete_labellings(s, max_atoms), lambda l: l.in_ | l.out)
