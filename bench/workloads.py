"""Seeded instances, the timed job and the untimed output check of each
workload.

Every function here takes the loaded library as ``lib`` (one attribute per
setaflp module) and calls into it through module attributes, so the traced
run sees each call through the wrappers that spans.py installs.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import string
import sys
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

#: The package's modules, which are also the layers the traced run reports.
MODULES = ("cli", "textio", "correspond", "propcheck", "programs", "setafs", "translate", "transform")

#: p90 needs at least ten samples above it, so a run never stops before this
#: many instances.
MIN_INSTANCES = 100

PROGRAM_SEMANTICS = (
    "partial_stable_models",
    "well_founded_model",
    "regular_models",
    "stable_models",
    "l_stable_models",
)
#: Same order as PROGRAM_SEMANTICS: the i-th entries correspond.
SETAF_SEMANTICS = ("complete_labellings", "grounded", "preferred", "stable", "semi_stable")


def load_library() -> SimpleNamespace:
    """Import setaflp afresh. Dropping the old module objects first means
    every lru_cache in the package starts empty."""
    for name in [n for n in sys.modules if n == "setaflp" or n.startswith("setaflp.")]:
        del sys.modules[name]
    importlib.import_module("setaflp")
    lib = SimpleNamespace(**{m: importlib.import_module(f"setaflp.{m}") for m in MODULES})
    lib.errors = importlib.import_module("setaflp.errors")
    return lib


@dataclass(frozen=True)
class Instance:
    index: int
    family: str
    kind: str  # "lp" or "setaf"
    text: str
    value: object  # the Program or Setaf the text prints


def _atoms(count: int) -> list[str]:
    return list(string.ascii_lowercase[:count])


def _draw_seed(rng: random.Random) -> int:
    # Far above the seeds the acceptance tests use (0-199 and 500-599).
    return rng.randrange(10**9, 2 * 10**9)


def _random_program(lib, rng, atoms, rules, max_body_pos=2):
    cfg = lib.propcheck.GenConfig(atoms, rules, max_body_pos=max_body_pos, seed=_draw_seed(rng))
    return lib.propcheck.gen_program(cfg)


def _random_setaf(lib, rng, atoms, attacks):
    return lib.propcheck.gen_setaf(lib.propcheck.GenConfig(atoms, attacks, seed=_draw_seed(rng)))


def _cycles_program(lib, rng, atoms, pairs, noise):
    """Disjoint even negative cycles ``x :- not y. y :- not x.`` plus a few
    random noise rules: many partial stable models, most of them partial."""
    pool = _atoms(atoms)
    order = rng.sample(pool, 2 * pairs)
    Rule = lib.programs.Rule
    rules = set()
    for x, y in zip(order[::2], order[1::2]):
        rules.add(Rule(x, frozenset(), frozenset([y])))
        rules.add(Rule(y, frozenset(), frozenset([x])))
    for _ in range(noise):
        pos = rng.sample(pool, rng.randint(0, 1))
        neg = rng.sample(pool, rng.randint(0, 2))
        rules.add(Rule(rng.choice(pool), frozenset(pos), frozenset(neg)))
    return lib.programs.Program(frozenset(rules), frozenset(pool))


def _pairs_setaf(lib, rng, atoms, pairs, noise):
    """Disjoint mutual attacks plus random noise attacks: the SETAF-side
    counterpart of _cycles_program."""
    pool = _atoms(atoms)
    order = rng.sample(pool, 2 * pairs)
    attacks = []
    for x, y in zip(order[::2], order[1::2]):
        attacks += [({x}, y), ({y}, x)]
    for _ in range(noise):
        attacks.append((frozenset(rng.sample(pool, rng.randint(1, 2))), rng.choice(pool)))
    return lib.setafs.minimize_attacks(attacks, pool)


# Each draw gives corpus entry i as (family, kind, value). *attempt* counts
# the draws for this entry that came out as duplicates.


def _check_draw(lib, rng, i, attempt):
    # A size whose few distinct instances are used up (one or two atoms)
    # moves up one size every 20 duplicates.
    atoms = min((i // 2) % 7 + 1 + attempt // 20, 7)
    kind = ("lp", "setaf")[i % 2]
    make = _random_program if kind == "lp" else _random_setaf
    return "random", kind, make(lib, rng, atoms, rng.randint(0, 10))


def _semantics_draw(lib, rng, i, attempt):
    slot = i % 4
    if slot == 0:
        return "random", "lp", _random_program(lib, rng, 9, 18)
    if slot == 1:
        return "cycles", "lp", _cycles_program(lib, rng, 9, 4, 1)
    if slot == 2:
        return "random", "setaf", _random_setaf(lib, rng, 9, 18)
    return "pairs", "setaf", _pairs_setaf(lib, rng, 8, 4, 1)


def _pipeline_draw(lib, rng, i, attempt):
    if i % 2 == 0:
        return "wide", "lp", _random_program(lib, rng, 7, 16, max_body_pos=3)
    atoms = 10 + (i // 2) % 3
    return "narrow", "lp", _random_program(lib, rng, atoms, 2 * atoms, max_body_pos=2)


def _text(lib, kind, value) -> str:
    printer = lib.textio.print_program if kind == "lp" else lib.textio.print_setaf
    return printer(value)


def corpus(lib, workload: str) -> list[tuple[str, str, object]]:
    """The workload's fixed structures: (family, kind, value), all distinct.
    Families and sizes follow a fixed cycle over the index."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:corpus")
    seen: set[tuple[str, str]] = set()
    out = []
    while len(out) < spec.corpus_size:
        for attempt in range(1000):
            family, kind, value = spec.draw(lib, rng, len(out), attempt)
            key = (kind, _text(lib, kind, value))
            if key not in seen:
                break
        else:
            raise RuntimeError(f"{workload}: no new instance after 1000 draws")
        seen.add(key)
        out.append((family, kind, value))
    return out


def _atoms_of(kind, value) -> frozenset:
    return value.universe if kind == "lp" else value.arguments


_NAMES = list(string.ascii_lowercase) + [c + d for c in string.ascii_lowercase for d in string.digits]


def _rename(lib, kind, value, rng):
    """The same instance over atoms drawn at random from _NAMES. The map
    keeps the atoms' order, so lex and revlex normalization take the same
    path and the work is the same as on the original."""
    atoms = sorted(_atoms_of(kind, value))
    to = dict(zip(atoms, sorted(rng.sample(_NAMES, len(atoms)))))
    image = lambda xs: frozenset(to[x] for x in xs)
    if kind == "lp":
        Rule = lib.programs.Rule
        rules = frozenset(Rule(to[r.head], image(r.body_pos), image(r.body_neg)) for r in value.rules)
        return lib.programs.Program(rules, image(atoms))
    Attack = lib.setafs.Attack
    attacks = frozenset(Attack(image(a.source), to[a.target]) for a in value.attacks)
    return lib.setafs.Setaf(image(atoms), attacks)


class Passes:
    """A run's instances, one whole pass over the corpus at a time, all
    distinct within the run.

    Each pass visits the corpus in an order drawn from the seed, shuffled
    only among entries of the same family, kind and size, and renames every
    instance's atoms afresh. So each seed gives other inputs, and every
    whole pass measures the same work.
    """

    def __init__(self, lib, workload: str, seed: int):
        self.lib, self.workload, self.seed = lib, workload, seed
        self.base = corpus(lib, workload)
        self.strata = [(f, k, len(_atoms_of(k, v))) for f, k, v in self.base]
        self.seen: set[tuple[str, str]] = set()
        self.done = 0

    def next(self) -> list[Instance]:
        lib, workload = self.lib, self.workload
        rng = random.Random(f"{workload}:{self.seed}:{self.done}")
        members: dict[tuple, list[int]] = {}
        for i, stratum in enumerate(self.strata):
            members.setdefault(stratum, []).append(i)
        for indices in members.values():
            rng.shuffle(indices)
        out = []
        for stratum in self.strata:
            family, kind, value = self.base[members[stratum].pop()]
            for _ in range(1000):
                renamed = _rename(lib, kind, value, rng)
                key = (kind, _text(lib, kind, renamed))
                if key not in self.seen:
                    break
            else:
                raise RuntimeError(f"{workload}: no new renaming after 1000 draws")
            self.seen.add(key)
            index = self.done * len(self.base) + len(out)
            out.append(Instance(index, family, kind, key[1], renamed))
        self.done += 1
        return out


# --- timed jobs ------------------------------------------------------------------


def job_check(lib, inst: Instance):
    """`setaflp check - --theorems all` in-process, stdin fed from the text.
    Exit code 3 means a cap was hit, and is raised as CapExceeded."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(inst.text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(["check", "-", "--format", inst.kind, "--theorems", "all"])
    finally:
        sys.stdin = saved_stdin
    if code == 3:
        raise lib.errors.CapExceeded(err.getvalue().strip())
    return code, out.getvalue(), err.getvalue()


def _listed(result):
    return result if isinstance(result, list) else [result]


def job_semantics(lib, inst: Instance):
    module, names = (
        (lib.programs, PROGRAM_SEMANTICS) if inst.kind == "lp" else (lib.setafs, SETAF_SEMANTICS)
    )
    return [_listed(getattr(module, name)(inst.value)) for name in names]


def job_pipeline(lib, inst: Instance):
    p = inst.value
    setaf = lib.translate.nlp_to_setaf(p)
    back = lib.translate.setaf_to_nlp(setaf)
    lex = lib.transform.fair_normalize(p, lib.transform.LEX)
    revlex = lib.transform.fair_normalize(p, lib.transform.REVERSE_LEX)
    return setaf, back, lex, revlex


# --- untimed output checks -------------------------------------------------------
# Each returns a list of problems; empty means the output is right. None of
# them recomputes an output with the code that produced it.


def verdict_counts(stdout: str) -> dict[str, int] | None:
    """The `passed=.. failed=.. not-applicable=..` summary of a check run."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("passed="):
            return {k: int(v) for k, v in (field.split("=") for field in line.split())}
    return None


def check_check(lib, inst: Instance, output) -> list[str]:
    code, stdout, stderr = output
    counts = verdict_counts(stdout)
    problems = []
    if code != 0:
        problems.append(f"exit code {code}: {stderr.strip() or stdout[-400:]}")
    if counts is None:
        problems.append("no verdict summary line")
    elif counts["failed"] != 0 or sum(counts.values()) != len(lib.propcheck.suite_names()):
        problems.append(f"verdict summary {counts}")
    return problems


def check_semantics(lib, inst: Instance, families) -> list[str]:
    """Soundness against the reference definitions (omega fixpoints,
    is_complete), then each whole family against the other side's engine
    through the translation (theorems 3 and 6, and their selections)."""
    problems = []
    if inst.kind == "lp":
        p = inst.value
        for m in {m for fam in families for m in fam}:
            if lib.programs.omega(p, m) != m:
                problems.append(f"{m} is not an omega fixpoint")
        s = lib.translate.nlp_to_setaf(p)
        others = [_listed(getattr(lib.setafs, n)(s)) for n in SETAF_SEMANTICS]
        mapped = [{lib.correspond.i2l_p(p, m) for m in fam} for fam in families]
        names = PROGRAM_SEMANTICS
    else:
        s = inst.value
        for l in {l for fam in families for l in fam}:
            if not lib.setafs.is_complete(s, l):
                problems.append(f"{l} is not complete")
        p2 = lib.translate.setaf_to_nlp(s)
        others = [_listed(getattr(lib.programs, n)(p2)) for n in PROGRAM_SEMANTICS]
        mapped = [{lib.correspond.l2i_af(l) for l in fam} for fam in families]
        names = SETAF_SEMANTICS
    for name, fam, image, other in zip(names, families, mapped, others):
        if len(fam) != len(set(fam)) or image != set(other) or len(other) != len(fam):
            problems.append(f"{name}: {len(fam)} results disagree with the other side's {len(other)}")
    return problems


def check_pipeline(lib, inst: Instance, output) -> list[str]:
    """Composite normal form: both fair normal forms, narrowed to the atoms
    they mention, equal the SETAF round trip; and the round trip's program
    translates back to the same SETAF (theorem 9)."""
    setaf, back, (lex, _), (revlex, _) = output
    problems = []
    for strategy, nf in (("lex", lex), ("revlex", revlex)):
        if lib.programs.narrow_universe(nf) != back:
            problems.append(f"{strategy} normal form differs from the SETAF round trip")
    if lib.translate.nlp_to_setaf(back) != setaf:
        problems.append("setaf_to_nlp output does not translate back to the SETAF")
    return problems


# --- exact counts ----------------------------------------------------------------
# Taken once per instance from the job's output, so they depend on the
# instance alone, not on how often the library calls a function.

_STEP_NAMES = {
    "Unfold": "unfold",
    "Tautology": "tautology",
    "PositiveReduction": "positive_reduction",
    "NonMinimal": "non_minimal",
}

COUNTS = (
    "programs.models",
    "setafs.labellings",
    "translate.attacks",
    "translate.collective_attacks",
    *(f"transform.steps.{n}" for n in _STEP_NAMES.values()),
    "transform.normal_form_rules",
)


def counts_check(inst: Instance, output) -> Counter:
    return Counter()


def counts_semantics(inst: Instance, families) -> Counter:
    """Partial stable models or complete labellings: the first family."""
    name = "programs.models" if inst.kind == "lp" else "setafs.labellings"
    return Counter({name: len(families[0])})


def counts_pipeline(inst: Instance, output) -> Counter:
    setaf, _, lex, revlex = output
    counts = Counter({
        "translate.attacks": len(setaf.attacks),
        "translate.collective_attacks": sum(len(a.source) > 1 for a in setaf.attacks),
    })
    for normal_form, trace in (lex, revlex):
        for entry in trace:
            counts[f"transform.steps.{_STEP_NAMES[entry.step.kind.value]}"] += 1
        counts["transform.normal_form_rules"] += len(normal_form.rules)
    return counts


@dataclass(frozen=True)
class Workload:
    draw: object
    job: object
    check: object
    counts: object
    #: Per-instance time limit, seconds. A run that hits it records the
    #: instance as failed, at the limit.
    limit_s: float
    #: Number of fixed structures, one pass of a run.
    corpus_size: int


WORKLOADS = {
    "check": Workload(
        _check_draw, job_check, check_check, counts_check, limit_s=10.0, corpus_size=168
    ),
    "semantics": Workload(
        _semantics_draw, job_semantics, check_semantics, counts_semantics, limit_s=10.0, corpus_size=100
    ),
    # 1 s, not 10 s: a timeout costs its limit, and the corpus has about a
    # dozen statement blow-ups. At 10 s one pass would take over 140 s.
    "pipeline": Workload(
        _pipeline_draw, job_pipeline, check_pipeline, counts_pipeline, limit_s=1.0, corpus_size=360
    ),
}
