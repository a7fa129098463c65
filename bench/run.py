"""The setaflp benchmark: one closed-loop client, one process.

    python3 bench/run.py --workload check|semantics|pipeline --seed N \
        --seconds S --trace 0|1

Set-up imports setaflp from ../src and generates the first pass of the
run's instances from the seed. The timed loop then runs one instance after
another, each under a time limit, in whole passes over the workload's
corpus, until S seconds have passed and at least MIN_INSTANCES instances
are done; a further pass is generated between passes, off the clock.
Outputs are checked afterwards, untimed, and set-up is repeated; setup_s is
the median. Reported times are rescaled to a reference speed of the machine
(see reference_seconds). The last line of stdout is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. The exit code is 1 when
an output check fails, 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

#: The reference kernel's time at the reference speed: about its median on
#: a 2-vCPU x86-64 machine with Python 3.11, where the benchmark was tuned.
REFERENCE_S = 0.0025

_ATOMS = [f"a{i}" for i in range(12)]
_HALF = frozenset(_ATOMS[:6])


def _kernel_seconds() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(600):
        atoms = frozenset(_ATOMS[j] for j in range(12) if (i >> (j % 9)) & 1)
        key = (len(atoms), atoms)
        table[key] = table.get(key, 0) + len(atoms & _HALF)
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Wall time of a fixed kernel of the work setaflp does most: building
    frozensets of atom names, intersecting them, and dict lookups on tuple
    keys; the median of three runs, so that one interrupt does not count.
    It uses no setaflp code, so a change to setaflp cannot move it."""
    return statistics.median(_kernel_seconds() for _ in range(3))


def at_reference(seconds: float, before: float, after: float) -> float:
    """*seconds* of wall time, rescaled to the reference speed by the
    kernel times measured just before and just after it.

    The machine's speed drifts by up to 1.5x over seconds to minutes, as
    other work shares its cores. The kernel runs at the same speed as the
    work it brackets, so the ratio cancels the drift."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class InstanceTimeout(BaseException):
    """The per-instance time limit fired. BaseException, so that no handler
    inside the library can swallow it."""

    def __init__(self, layer):
        super().__init__(layer)
        self.layer = layer


class Deadline:
    """Raise InstanceTimeout in the main thread if the body runs too long."""

    def __init__(self, seconds: float, where=lambda: None):
        self.seconds = seconds
        self.where = where
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise InstanceTimeout(self.where())

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False


def set_up(workloads, name: str, seed: int):
    """Import setaflp afresh and generate the first pass; timed, at the
    reference speed."""
    before = reference_seconds()
    start = time.perf_counter()
    lib = workloads.load_library()
    passes = workloads.Passes(lib, name, seed)
    first = passes.next()
    seconds = time.perf_counter() - start
    return lib, passes, first, at_reference(seconds, before, reference_seconds())


def run_loop(workloads, lib, name, passes, first, seconds, tracer=None):
    """The timed closed loop: whole passes over the corpus until *seconds*
    have passed and MIN_INSTANCES are done. Returns one record per
    instance run, and the timed wall time: the instances' own time, which
    leaves out the generation of passes after the first and the garbage
    collection and reference kernels between instances. Each record holds
    the instance's wall time and the same at the reference speed."""
    spec = workloads.WORKLOADS[name]
    where = tracer.current_layer if tracer else (lambda: None)
    records = []
    wall = 0.0
    instances = first
    try:
        while True:
            before = reference_seconds()
            for inst in instances:
                if tracer:
                    tracer.begin(inst.index)
                rec = {"instance": inst, "output": None, "failure": None, "layer": None}
                t0 = time.perf_counter()
                try:
                    with Deadline(spec.limit_s, where):
                        rec["output"] = spec.job(lib, inst)
                except InstanceTimeout as exc:
                    rec.update(failure="timeout", layer=exc.layer)
                except lib.errors.CapExceeded as exc:
                    rec["failure"] = f"cap: {exc}"
                except Exception as exc:  # a crash is a wrong output, reported below
                    rec["failure"] = f"error: {exc!r}"
                elapsed = time.perf_counter() - t0
                wall += elapsed
                rec["seconds"] = spec.limit_s if rec["failure"] == "timeout" else elapsed
                records.append(rec)
                # A user runs one instance per process. Collect this
                # instance's garbage and freeze what survives, so that later
                # instances do not pay for rescanning the run's growing heap
                # (caches and kept outputs) in their full collections.
                gc.collect()
                gc.freeze()
                after = reference_seconds()
                rec["ref_seconds"] = at_reference(rec["seconds"], before, after)
                before = after
            if len(records) >= workloads.MIN_INSTANCES and wall >= seconds:
                return records, wall
            instances = passes.next()
    finally:
        gc.unfreeze()


def check_outputs(workloads, lib, name, records) -> list[str]:
    """Every problem found, one line each. Timeouts and caps are failures
    but not wrong outputs; crashes are wrong outputs."""
    check = workloads.WORKLOADS[name].check
    problems = []
    for rec in records:
        inst = rec["instance"]
        failure = rec["failure"] or ""
        if failure.startswith("error"):
            problems.append(f"instance {inst.index}: {failure}")
        elif not failure:
            problems += [f"instance {inst.index}: {p}" for p in check(lib, inst, rec["output"])]
    return problems


def end_to_end(records, setup_s: float, peak_rss_mb: float, key="ref_seconds") -> dict:
    """The end-to-end metrics, from the instances' times at the reference
    speed, or from their wall times with key="seconds"."""
    seconds = [r[key] for r in records]
    ok = sum(not r["failure"] for r in records)
    return {
        "instance_p50_ms": (statistics.median(seconds) * 1e3, "ms"),
        "instance_p90_ms": (statistics.quantiles(seconds, n=10)[-1] * 1e3, "ms"),
        "instances_per_s": (ok / sum(seconds), "1/s"),
        "ok_frac": (ok / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def exact_counts(workloads, name, records) -> Counter:
    """The output counts of the first pass, over the instances that did
    not fail. Every seed's first pass holds the same structures."""
    spec = workloads.WORKLOADS[name]
    totals = Counter()
    for rec in records:
        if rec["instance"].index < spec.corpus_size and not rec["failure"]:
            totals.update(spec.counts(rec["instance"], rec["output"]))
    return totals


def per_layer(workloads, spans, name, tracer, records, wall: float) -> dict:
    metrics = {}
    calls, self_ms = tracer.calls(), tracer.self_ms()
    for group in spans.GROUPS:
        metrics[f"{group}.calls"] = (calls[group], "count")
        metrics[f"{group}.self_ms"] = (self_ms[group], "ms")
    layer_ms = tracer.layer_self_ms()
    for layer in workloads.MODULES:
        metrics[f"{layer}.self_ms"] = (layer_ms[layer], "ms")
        timeouts = sum(r["layer"] == layer for r in records)
        metrics[f"{layer}.timeouts"] = (timeouts, "count")
    counts = exact_counts(workloads, name, records)
    for count in workloads.COUNTS:
        metrics[count] = (counts[count], "count")
    info = tracer.originals["translate.statements"].cache_info()
    lookups = info.hits + info.misses
    metrics["translate.statements.cache_hit_ratio"] = (info.hits / lookups if lookups else 0.0, "ratio")
    verdicts = [workloads.verdict_counts(r["output"][1]) for r in records if name == "check" and r["output"]]
    verdicts = [v for v in verdicts if v]
    total = sum(sum(v.values()) for v in verdicts)
    na = sum(v["not-applicable"] for v in verdicts)
    metrics["propcheck.verdict.na_frac"] = (na / total if total else 0.0, "ratio")
    ok = sum(not r["failure"] for r in records)
    metrics["trace.instances_per_s"] = (ok / sum(r["ref_seconds"] for r in records), "1/s")
    metrics["trace.self_share"] = (sum(layer_ms.values()) / (wall * 1e3), "ratio")
    return metrics


def print_family_shares(spans, tracer, instances) -> None:
    """Each instance family's self time by layer, to stderr."""
    family = {inst.index: inst.family for inst in instances}
    by_family = tracer.self_ms(lambda name, index: (family[index], spans.layer_of(name)))
    for name in sorted({f for f, _ in by_family}):
        mine = {layer: ms for (f, layer), ms in by_family.items() if f == name}
        total = sum(mine.values())
        shares = sorted(((ms / total, layer) for layer, ms in mine.items()), reverse=True)
        print(f"family {name}: " + ", ".join(f"{layer} {share:.0%}" for share, layer in shares if share >= 0.01), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("check", "semantics", "pipeline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "setaflp" / "__init__.py").is_file():
        print(f"error: no setaflp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    lib, passes, first, first_setup_s = set_up(workloads, args.workload, args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(lib)
    try:
        records, wall = run_loop(workloads, lib, args.workload, passes, first, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer:
        # Before the checks, which would add to the statements cache counts.
        metrics = per_layer(workloads, spans, args.workload, tracer, records, wall)
    problems = check_outputs(workloads, lib, args.workload, records)
    if tracer:
        if metrics["trace.self_share"][0] > 1.0:
            print("error: layer self times add up to more than the wall time", file=sys.stderr)
            return 2
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.tsv.gz")
        print_family_shares(spans, tracer, [r["instance"] for r in records])
    else:
        # More set-ups after the run, so that a slow or fast spell of the
        # machine at the start does not decide the median.
        setups = [first_setup_s]
        setups += [set_up(workloads, args.workload, args.seed)[3] for _ in range(SETUP_REPEATS - 1)]
        metrics = end_to_end(records, statistics.median(setups), peak_rss_mb)
        wall_times = end_to_end(records, 0.0, 0.0, key="seconds")
        print("wall time, not rescaled: " + ", ".join(
            f"{k} {wall_times[k][0]:.4g}" for k in ("instance_p50_ms", "instance_p90_ms", "instances_per_s")
        ), file=sys.stderr)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    for rec in records:
        if rec["failure"] and not rec["failure"].startswith("error"):
            print(f"instance {rec['instance'].index}: {rec['failure']}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": sum(bool(r["failure"]) for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
