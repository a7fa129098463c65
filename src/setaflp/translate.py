"""From programs to SETAFs and back.

The forward direction needs, per atom, only its inclusion-minimal
vulnerability sets: the negated atoms some derivation of the atom depends
on. Atoms with a derivation are the arguments. A set of arguments attacks
an argument a when it is a minimal set hitting every vulnerability set of
a, and the minimal transversals of a family are those of its minimal
members, so attacks come from minimal-transversal enumeration over the
minimal vulnerability sets. minimal_vulnerabilities computes those as a
least fixpoint, without building derivations.

*Statements* are the derivations themselves: trees showing how an atom can
be concluded, tracking which rules were used and which negated atoms the
derivation is vulnerable to. statements and vul_family enumerate them in
full, as the explanation of a translation and as an independent reference
for the fixpoint; their number can grow exponentially with the program.

The reverse direction needs no trees: each argument gets one atomic rule per
minimal transversal of the sources attacking it. On redundancy-free atomic
programs the two directions are mutually inverse.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import BlowupCap
from .programs import Program, Rule
from .setafs import Attack, Setaf, _inclusion_minimal

#: Translation work is worst-case exponential in the program size, so it
#: fails loudly (BlowupCap) rather than hang: minimal_vulnerabilities past
#: this many candidate sets formed, which bounds nlp_to_setaf, arguments
#: and the suites that read them, and statements past this many
#: combinations tried. The --max-statements default of translate and check.
DEFAULT_STATEMENT_CAP = 100_000


@dataclass(frozen=True)
class Statement:
    """A way to conclude an atom.

    conc: the concluded atom; rules: every rule used in the derivation;
    vul: every atom whose truth would break the derivation (the negated
    atoms met along the way). subs holds the child statements, one per
    positive body atom of the root rule, but two statements that agree on
    (conc, rules, vul) count as the same statement: attacks only ever look
    at conclusions and vulnerabilities, so finer identity would just blow
    up the search space.
    """

    conc: str
    rules: frozenset[Rule]
    vul: frozenset[str]
    subs: tuple["Statement", ...] = field(default=(), compare=False)

    def sort_key(self):
        return (
            self.conc,
            tuple(sorted(self.vul)),
            tuple(sorted(r.sort_key() for r in self.rules)),
        )


@lru_cache(maxsize=16)
def statements(p: Program, max_statements: int = DEFAULT_STATEMENT_CAP) -> frozenset[Statement]:
    """All statements of p, deduplicated by (conc, rules, vul).

    Worklist fixpoint. A rule with an empty positive body is a statement on
    its own. A rule r with positive body {b1..bk} extends statements s1..sk
    for b1..bk into a statement for head(r), provided r itself was not used
    inside any child (that guard is what makes the construction finite).
    Raises BlowupCap once more than *max_statements* combinations of child
    statements have been tried, however few distinct statements they gave.

    Cached for the last 16 programs: programs are immutable and callers
    that explain a translation (vul_family, then the statements
    themselves) ask for the same program repeatedly, one at a time.
    """
    found: set[Statement] = set()
    by_conc: dict[str, list[Statement]] = {}
    todo: deque[Statement] = deque()
    tried = 0

    def add(s: Statement):
        if s in found:
            return
        found.add(s)
        by_conc.setdefault(s.conc, []).append(s)
        todo.append(s)

    for r in p.sorted_rules():
        if not r.body_pos:
            add(Statement(r.head, frozenset([r]), r.body_neg))

    inductive = [r for r in p.sorted_rules() if r.body_pos]
    while todo:
        fresh = todo.popleft()
        for r in inductive:
            if fresh.conc not in r.body_pos or r in fresh.rules:
                continue
            # fresh must take part, and it can only stand for its own atom;
            # the other body atoms draw on everything found so far.
            pools = []
            for atom in sorted(r.body_pos):
                if atom == fresh.conc:
                    pools.append([fresh])
                else:
                    pools.append([s for s in by_conc.get(atom, []) if r not in s.rules])
            for combo in product(*pools):
                tried += 1
                if tried > max_statements:
                    raise BlowupCap(
                        f"statement construction tried more than {max_statements} "
                        "combinations; raise the cap if this program really is that tangled"
                    )
                rules = frozenset([r]).union(*(s.rules for s in combo))
                vul = r.body_neg.union(*(s.vul for s in combo))
                add(Statement(r.head, rules, vul, subs=combo))
    return frozenset(found)


def minimal_vulnerabilities(
    p: Program, max_statements: int = DEFAULT_STATEMENT_CAP
) -> Mapping[str, frozenset[frozenset[str]]]:
    """Each derivable atom's inclusion-minimal vulnerability sets: the
    minimal members of vul_family(p), without enumerating statements.

    The least fixpoint of V(a) = min{ neg(r) | v1 | ... | vk : r a rule
    for a with positive body {b1..bk}, each vi in V(bi) }. A derivation that
    uses a rule twice on one path can be cut down to one that does not,
    with no more vulnerabilities, so dropping the statements' no-reuse
    guard loses no minimal set. The fixpoint exists because every change
    makes some V(a) cover strictly more supersets, and a finite universe
    has finitely many. A worklist re-fires a rule only when V of one of its
    positive body atoms has changed. Each join, and each merge of a rule's
    sets into V(a), is minimized at once by setafs._inclusion_minimal.
    Raises BlowupCap once the fixpoint would form more than
    *max_statements* candidate sets.

    Not cached: arguments and nlp_to_setaf, its repeat callers, cache
    their own results. The mapping is read-only.
    """
    rules = p.sorted_rules()
    watchers: dict[str, list[int]] = {}
    for i, r in enumerate(rules):
        for b in r.body_pos:
            watchers.setdefault(b, []).append(i)
    found: dict[str, frozenset[frozenset[str]]] = {}
    formed = 0

    def fire(r: Rule) -> list[frozenset[str]]:
        nonlocal formed
        formed += 1
        cands = [r.body_neg]
        for b in sorted(r.body_pos, key=lambda b: (len(found[b]), b)):
            formed += len(cands) * len(found[b])
            if formed > max_statements:
                raise BlowupCap(
                    f"minimal vulnerability fixpoint formed more than {max_statements} "
                    "candidate sets; raise the cap if this program really is that tangled"
                )
            cands = _inclusion_minimal({c | v for c in cands for v in found[b]})[0]
        return cands

    def merge(atom: str, cands: list[frozenset[str]]) -> bool:
        old = found.get(atom, frozenset())
        found[atom] = frozenset(_inclusion_minimal(old.union(cands))[0])
        return found[atom] != old

    todo = deque(i for i, r in enumerate(rules) if not r.body_pos)
    queued = set(todo)
    while todo:
        i = todo.popleft()
        queued.discard(i)
        r = rules[i]
        if merge(r.head, fire(r)):
            for j in watchers.get(r.head, ()):
                if j not in queued and rules[j].body_pos <= found.keys():
                    todo.append(j)
                    queued.add(j)
    return MappingProxyType(found)


@lru_cache(maxsize=16)
def arguments(p: Program, max_statements: int = DEFAULT_STATEMENT_CAP) -> frozenset[str]:
    """Atoms concluded by at least one statement: those with a minimal
    vulnerability set.

    Cached for the last 16 programs: the labelling conversions ask for the
    arguments of one program once per model or labelling."""
    return frozenset(minimal_vulnerabilities(p, max_statements))


def vul_family(p: Program, max_statements: int = DEFAULT_STATEMENT_CAP) -> dict[str, frozenset[frozenset[str]]]:
    """The vulnerability sets of each argument, grouped by conclusion: every
    statement's, minimal or not."""
    fam: dict[str, set[frozenset[str]]] = {}
    for s in statements(p, max_statements):
        fam.setdefault(s.conc, set()).add(s.vul)
    return {c: frozenset(vuls) for c, vuls in fam.items()}


def minimal_transversals(family: Iterable[Iterable[str]]) -> frozenset[frozenset[str]]:
    """All inclusion-minimal sets intersecting every member of *family*.

    Edge cases fall out of the definition: an empty family is hit by the
    empty set (result {{}}), and a family containing the empty set is hit
    by nothing (result {}).

    Incremental construction: fold the members in one at a time, extending
    each partial transversal that misses the new member by each of its
    elements, and keep the working set an antichain with
    setafs._inclusion_minimal after each member.
    """
    fam = sorted(
        {frozenset(v) for v in family}, key=lambda v: (len(v), tuple(sorted(v)))
    )
    if any(not v for v in fam):
        return frozenset()
    trans = [frozenset()]
    for v in fam:
        grown = set()
        for t in trans:
            if t & v:
                grown.add(t)
            else:
                grown.update(t | {b} for b in v)
        trans = _inclusion_minimal(grown)[0]
    return frozenset(trans)


@lru_cache(maxsize=16)
def nlp_to_setaf(p: Program, max_statements: int = DEFAULT_STATEMENT_CAP) -> Setaf:
    """The SETAF associated with p.

    Arguments are the atoms with statements. The attackers of a are the
    minimal argument sets hitting every vulnerability set of a; those are
    the minimal transversals of a's minimal vulnerability sets, taken from
    the minimal_vulnerabilities fixpoint. statements(p) explains each attack
    but is not built here. Only the argument part of a vulnerability set
    matters: an atom that is never concluded can never be made true, so it
    cannot carry an attack, and a vulnerability set wholly outside the
    arguments makes its owner unattackable on that front (and if every
    front is like that, a is not attacked at all). Raises BlowupCap as
    minimal_vulnerabilities does.

    Cached for the last 16 programs: nearly every suite of a check run
    translates the same program again. nlp_to_setaf.__wrapped__ translates
    without the cache, for programs that are seen once.
    """
    fam = minimal_vulnerabilities(p, max_statements)
    args = frozenset(fam)
    attacks = set()
    for a, vuls in fam.items():
        for source in minimal_transversals(v & args for v in vuls):
            attacks.add(Attack(source, a))
    return Setaf(args, frozenset(attacks))


@lru_cache(maxsize=16)
def setaf_to_nlp(s: Setaf) -> Program:
    """The program associated with a SETAF: per argument a, one atomic rule
    ``a :- not v1, ..., not vk`` for each minimal transversal of the sources
    attacking a. Unattacked arguments become facts. Universe = arguments.

    Cached for the last 16 SETAFs: every program-side suite run on a SETAF
    translates it again."""
    rules = set()
    for a in sorted(s.arguments):
        for v in minimal_transversals(s.attackers_of(a)):
            rules.add(Rule(a, frozenset(), v))
    return Program(frozenset(rules), s.arguments)


def rfalp_violations(p: Program) -> list[str]:
    """Why p is not a redundancy-free atomic program; empty if it is one.

    Three clauses: every rule atomic (no positive body), every universe atom
    heads some rule, and no rule's negative body strictly contains the
    negative body of another rule with the same head.
    """
    out = []
    for r in p.sorted_rules():
        if r.body_pos:
            out.append(f"rule '{r}' is not atomic (positive body atoms: "
                       + ", ".join(sorted(r.body_pos)) + ")")
    for a in sorted(p.universe - p.heads()):
        out.append(f"universe atom '{a}' heads no rule")
    for r in p.sorted_rules():
        for other in p.by_head.get(r.head, ()):
            if other.body_neg < r.body_neg:
                out.append(f"rule '{r}' is subsumed by '{other}'")
                break
    return out


def is_rfalp(p: Program) -> bool:
    """True iff p is a redundancy-free atomic logic program."""
    return not rfalp_violations(p)
