"""Program transformations: unfolding, tautology elimination, positive
reduction, non-minimal rule elimination; and fair normalization, which
drives a program to its unique irreducible form (a redundancy-free atomic
program over the atoms still mentioned).

Every step application preserves the universe and the partial stable models,
and leaves the associated SETAF unchanged, which is what the property suites
check step by step. Traces record each step together with a digest of the
resulting program so any reported sequence can be replayed and audited.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InputError, InternalInvariantViolation, StepCapExceeded, StepNotApplicable
from .programs import Program, Rule
from .textio import print_program

#: Safety net for normalization loops; a fair strategy never gets near it.
DEFAULT_STEP_CAP = 1_000_000

LEX = "lex"
REVERSE_LEX = "revlex"


class StepKind(enum.Enum):
    UNFOLD = "Unfold"
    TAUTOLOGY = "Tautology"
    POSITIVE_REDUCTION = "PositiveReduction"
    NON_MINIMAL = "NonMinimal"


_ORDER = {k: i for i, k in enumerate(StepKind)}


@dataclass(frozen=True, slots=True)
class TransformStep:
    """One transformation: *kind* applied to *rule*.

    atom names the spliced positive body atom (Unfold) or the deleted
    negative literal (PositiveReduction); keep is the more general rule that
    justifies removing *rule* (NonMinimal).
    """

    kind: StepKind
    rule: Rule
    atom: str | None = None
    keep: Rule | None = None

    def __post_init__(self):
        needs_atom = self.kind in (StepKind.UNFOLD, StepKind.POSITIVE_REDUCTION)
        if needs_atom and self.atom is None:
            raise InputError(f"{self.kind.value} step needs an atom")
        if not needs_atom and self.atom is not None:
            raise InputError(f"{self.kind.value} step takes no atom")
        if self.kind is StepKind.NON_MINIMAL:
            if self.keep is None:
                raise InputError("NonMinimal step needs the surviving rule")
        elif self.keep is not None:
            raise InputError(f"{self.kind.value} step takes no surviving rule")

    def sort_key(self):
        return (
            _ORDER[self.kind],
            self.rule.sort_key(),
            self.atom or "",
            self.keep.sort_key() if self.keep else (),
        )

    def __str__(self) -> str:
        extra = ""
        if self.atom is not None:
            extra = f" on {self.atom}"
        if self.keep is not None:
            extra = f" against {self.keep}"
        return f"{self.kind.value}({self.rule}){extra}"


@dataclass(frozen=True, slots=True)
class TraceEntry:
    step: TransformStep
    digest: str


Trace = tuple[TraceEntry, ...]


def program_digest(p: Program) -> str:
    """Short stable digest of the canonical program text.

    hashlib is imported here, on first use: it loads OpenSSL, which only
    traces need, so checks and semantics runs never pay for it."""
    import hashlib

    return hashlib.sha256(print_program(p).encode("utf-8")).hexdigest()[:12]


def applicable_steps(p: Program) -> list[TransformStep]:
    """Every applicable step, ordered by kind, then rule, then atom."""
    return list(_steps(p, StepKind))


def _steps(p: Program, kinds: Iterable[StepKind]) -> Iterator[TransformStep]:
    """The applicable steps of the given kinds, in applicable_steps order,
    generated lazily so that a caller wanting the first one stops there."""
    kinds = frozenset(kinds)
    rules = p.sorted_rules()
    if StepKind.UNFOLD in kinds:
        for r in rules:
            for a in sorted(r.body_pos):
                yield TransformStep(StepKind.UNFOLD, r, atom=a)
    if StepKind.TAUTOLOGY in kinds:
        for r in rules:
            if r.head in r.body_pos:
                yield TransformStep(StepKind.TAUTOLOGY, r)
    if StepKind.POSITIVE_REDUCTION in kinds:
        heads = p.heads()
        for r in rules:
            for b in sorted(r.body_neg):
                if b not in heads:
                    yield TransformStep(StepKind.POSITIVE_REDUCTION, r, atom=b)
    if StepKind.NON_MINIMAL in kinds:
        for r in rules:
            for keep in p.by_head.get(r.head, ()):
                if keep != r and keep.body_pos <= r.body_pos and keep.body_neg <= r.body_neg:
                    yield TransformStep(StepKind.NON_MINIMAL, r, keep=keep)


def apply(p: Program, step: TransformStep) -> Program:
    """Apply one step. Raises StepNotApplicable when its preconditions do
    not hold in p. The universe always carries over unchanged."""
    r = step.rule
    if r not in p.rules:
        raise StepNotApplicable(f"rule '{r}' is not in the program")
    if step.kind is StepKind.UNFOLD:
        a = step.atom
        if a not in r.body_pos:
            raise StepNotApplicable(f"'{a}' is not in the positive body of '{r}'")
        # One new rule per rule defining a (possibly r itself), splicing the
        # definer's body in place of a. No definers means the rule just dies.
        spliced = {
            Rule(r.head, (r.body_pos - {a}) | d.body_pos, r.body_neg | d.body_neg)
            for d in p.by_head.get(a, ())
        }
        return Program((p.rules - {r}) | spliced, p.universe)
    if step.kind is StepKind.TAUTOLOGY:
        if r.head not in r.body_pos:
            raise StepNotApplicable(f"'{r}' is not a tautology")
        return Program(p.rules - {r}, p.universe)
    if step.kind is StepKind.POSITIVE_REDUCTION:
        b = step.atom
        if b not in r.body_neg:
            raise StepNotApplicable(f"'not {b}' is not in the body of '{r}'")
        if b in p.heads():
            raise StepNotApplicable(f"'{b}' heads a rule, so 'not {b}' cannot be reduced")
        slim = Rule(r.head, r.body_pos, r.body_neg - {b})
        return Program((p.rules - {r}) | {slim}, p.universe)
    if step.kind is StepKind.NON_MINIMAL:
        keep = step.keep
        if keep not in p.rules or keep == r:
            raise StepNotApplicable(f"'{keep}' cannot justify removing '{r}'")
        if keep.head != r.head or not (
            keep.body_pos <= r.body_pos and keep.body_neg <= r.body_neg
        ):
            raise StepNotApplicable(f"'{keep}' does not subsume '{r}'")
        return Program(p.rules - {r}, p.universe)
    raise StepNotApplicable(f"unknown step kind {step.kind!r}")


def is_irreducible(p: Program) -> bool:
    """No step of any kind applies."""
    return next(_steps(p, StepKind), None) is None


def replay(start: Program, trace: Iterable[TraceEntry]) -> Program:
    """Re-run a trace from its start program, checking every digest."""
    p = start
    for idx, entry in enumerate(trace, 1):
        p = apply(p, entry.step)
        digest = program_digest(p)
        if digest != entry.digest:
            raise InputError(
                f"trace does not replay: step {idx} produced digest {digest}, "
                f"trace says {entry.digest}"
            )
    return p


def fair_normalize(
    p: Program, strategy: str = LEX, max_steps: int = DEFAULT_STEP_CAP
) -> tuple[Program, Trace]:
    """Drive p to its irreducible form; return it with the full trace.

    The loop is the standard fair schedule: sweep out all tautologies, then
    pick one atom with positive occurrences (lex = smallest name first,
    revlex = largest first) and unfold *every* positive occurrence of it
    before looking at another atom. Unfolded bodies can only mention atoms
    that still occur positively, so each pass retires its atom for good and
    the loop ends with no positive bodies at all. After that, positive
    reduction and non-minimal elimination run to their joint fixpoint, which
    shrinks the program monotonically. The step cap only guards against
    bugs; the schedule above cannot loop. Each trace entry carries the
    digest of the program its step produced.
    """
    entries = []
    for step, p in _fair_steps(p, strategy, max_steps):
        entries.append(TraceEntry(step, program_digest(p)))
    return p, tuple(entries)


def _fair_steps(
    p: Program, strategy: str, max_steps: int
) -> Iterator[tuple[TransformStep, Program]]:
    """The fair schedule of fair_normalize, one (step, resulting program)
    pair at a time, without digests. Raises StepCapExceeded before taking
    step max_steps + 1."""
    if strategy not in (LEX, REVERSE_LEX):
        raise InputError(f"unknown strategy {strategy!r}, expected '{LEX}' or '{REVERSE_LEX}'")
    taken = 0

    def do(step: TransformStep) -> tuple[TransformStep, Program]:
        nonlocal p, taken
        if taken >= max_steps:
            raise StepCapExceeded(f"normalization exceeded {max_steps} steps")
        taken += 1
        p = apply(p, step)
        return step, p

    while True:
        while True:
            taut = next((r for r in p.sorted_rules() if r.head in r.body_pos), None)
            if taut is None:
                break
            yield do(TransformStep(StepKind.TAUTOLOGY, taut))
        positive = sorted({a for r in p.rules for a in r.body_pos})
        if not positive:
            break
        x = positive[0] if strategy == LEX else positive[-1]
        while True:
            target = next((r for r in p.sorted_rules() if x in r.body_pos), None)
            if target is None:
                break
            yield do(TransformStep(StepKind.UNFOLD, target, atom=x))
    while True:
        step = next(_steps(p, (StepKind.POSITIVE_REDUCTION, StepKind.NON_MINIMAL)), None)
        if step is None:
            break
        yield do(step)
    if not is_irreducible(p):
        raise InternalInvariantViolation("normalization finished on a reducible program")
