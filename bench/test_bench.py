"""The benchmark's own tests: python3 -m pytest bench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def lib():
    return workloads.load_library()


def _shrink(monkeypatch, name, count, **changes):
    """Make a run of *name* one pass over a corpus of *count* structures."""
    spec = dataclasses.replace(workloads.WORKLOADS[name], corpus_size=count, **changes)
    monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    monkeypatch.setattr(workloads, "MIN_INSTANCES", count)


def _loop(name, count, monkeypatch, seed=7, traced=False):
    """Run one pass of *count* instances of a workload in a fresh library."""
    _shrink(monkeypatch, name, count, limit_s=60.0)
    fresh, passes, first, _ = run.set_up(workloads, name, seed)
    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install(fresh)
    try:
        records, wall = run.run_loop(workloads, fresh, name, passes, first, 0.0, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    return fresh, tracer, records, wall


def _texts(lib, name, seed):
    return [i.text for i in workloads.Passes(lib, name, seed).next()]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_instances(lib, name):
    first = _texts(lib, name, 3)
    assert first == _texts(workloads.load_library(), name, 3)
    assert first != _texts(lib, name, 4)
    assert len(set(first)) == len(first) == workloads.WORKLOADS[name].corpus_size


def test_passes_rename_but_keep_the_structure(lib):
    passes = workloads.Passes(lib, "semantics", 5)
    one, two = passes.next(), passes.next()
    size = lambda i: len(i.value.universe if i.kind == "lp" else i.value.arguments)
    assert [(i.family, i.kind, size(i)) for i in one] == [(i.family, i.kind, size(i)) for i in two]
    assert [i.index for i in one + two] == list(range(2 * len(one)))
    assert len({i.text for i in one + two}) == 2 * len(one)


def test_a_run_goes_on_in_whole_passes(monkeypatch):
    _shrink(monkeypatch, "check", 14)
    monkeypatch.setattr(workloads, "MIN_INSTANCES", 20)
    lib, passes, first, _ = run.set_up(workloads, "check", 1)
    records, _ = run.run_loop(workloads, lib, "check", passes, first, 0.0)
    assert len(records) == 28 and passes.done == 2


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_set_up_leaves_every_cache_empty(name):
    lib, passes, first, setup_s = run.set_up(workloads, name, 1)
    assert len(first) == workloads.WORKLOADS[name].corpus_size and setup_s > 0
    caches = [
        value
        for module in vars(lib).values()
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    ]
    assert caches and all(c.cache_info().currsize == 0 for c in caches)


@pytest.mark.parametrize("name,count", [("semantics", 8), ("pipeline", 24)])
def test_exact_counts_repeat_across_seeds(name, count, monkeypatch):
    _, _, records, _ = _loop(name, count, monkeypatch, seed=7)
    _, _, again, _ = _loop(name, count, monkeypatch, seed=8)
    assert not any(r["failure"] for r in records + again)
    counts = run.exact_counts(workloads, name, records)
    assert counts == run.exact_counts(workloads, name, again)
    assert set(counts) <= set(workloads.COUNTS) and sum(counts.values()) > 0


def test_exact_counts_come_once_per_instance(monkeypatch):
    """The selections call partial_stable_models too; the count does not
    see those calls."""
    _, tracer, records, _ = _loop("semantics", 4, monkeypatch, traced=True)
    lps = [r for r in records if r["instance"].kind == "lp"]
    assert tracer.calls()["programs.partial_stable_models"] > len(lps)
    counts = run.exact_counts(workloads, "semantics", records)
    assert counts["programs.models"] == sum(len(r["output"][0]) for r in lps)


def test_self_times_add_up_within_the_wall(monkeypatch):
    _, tracer, records, wall = _loop("check", 14, monkeypatch, traced=True)
    layers = tracer.layer_self_ms()
    assert 0 < sum(layers.values()) <= wall * 1e3
    assert set(layers) <= set(workloads.MODULES)
    assert tracer.calls()["cli.main"] == len(records)


def test_wrappers_reach_names_imported_by_other_modules(lib):
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        assert lib.propcheck.omega is lib.programs.omega
        assert lib.propcheck.omega is not tracer.originals["programs.omega"]
    finally:
        tracer.uninstall()
    assert lib.propcheck.omega is tracer.originals["programs.omega"]


def test_end_to_end_times_are_at_the_reference_speed():
    # The kernel ran at half the reference speed around every instance.
    slow = 2 * run.REFERENCE_S
    assert run.at_reference(0.02, slow, slow) == pytest.approx(0.01)
    records = [{"seconds": 0.02, "ref_seconds": 0.01, "failure": None} for _ in range(20)]
    metrics = run.end_to_end(records, 0.5, 30.0)
    assert metrics["instance_p50_ms"][0] == pytest.approx(10.0)
    assert metrics["instances_per_s"][0] == pytest.approx(100.0)
    assert run.end_to_end(records, 0.5, 30.0, key="seconds")["instance_p50_ms"][0] == pytest.approx(20.0)


def test_a_timeout_is_recorded_at_the_limit_with_its_layer(lib, monkeypatch):
    _shrink(monkeypatch, "pipeline", 6, limit_s=0.001)
    busy = lambda *args: time.sleep(1)
    monkeypatch.setattr(lib.translate, "nlp_to_setaf", busy)
    tracer = spans.Tracer()
    tracer.install(lib)
    try:
        passes = workloads.Passes(lib, "pipeline", 1)
        records, _ = run.run_loop(workloads, lib, "pipeline", passes, passes.next(), 0.0, tracer)
    finally:
        tracer.uninstall()
    assert len(records) == 6
    assert all(r["failure"] == "timeout" for r in records)
    assert all(r["seconds"] == 0.001 and r["layer"] == "translate" for r in records)


def _first(lib, name, kind):
    return next(i for i in workloads.Passes(lib, name, 2).next() if i.kind == kind)


def test_semantics_check_rejects_a_wrong_model(lib):
    inst = _first(lib, "semantics", "lp")
    families = workloads.job_semantics(lib, inst)
    assert workloads.check_semantics(lib, inst, families) == []
    wrong = lib.programs.Interpretation(frozenset(), frozenset())
    assert wrong not in families[0]
    assert workloads.check_semantics(lib, inst, [families[0] + [wrong]] + families[1:])
    assert workloads.check_semantics(lib, inst, [families[0][1:]] + families[1:])


def test_semantics_check_rejects_a_wrong_labelling(lib):
    inst = _first(lib, "semantics", "setaf")
    families = workloads.job_semantics(lib, inst)
    assert workloads.check_semantics(lib, inst, families) == []
    args = inst.value.arguments
    wrong = lib.setafs.Labelling(args, frozenset(), frozenset())
    assert wrong not in families[0]
    assert workloads.check_semantics(lib, inst, [families[0] + [wrong]] + families[1:])


def test_pipeline_check_rejects_a_wrong_normal_form(lib):
    inst = workloads.Passes(lib, "pipeline", 2).next()[1]
    setaf, back, lex, revlex = workloads.job_pipeline(lib, inst)
    assert workloads.check_pipeline(lib, inst, (setaf, back, lex, revlex)) == []
    dropped = lib.programs.Program(lex[0].rules - {min(lex[0].rules, key=str)}, lex[0].universe)
    assert workloads.check_pipeline(lib, inst, (setaf, back, (dropped, lex[1]), revlex))


def test_check_check_rejects_a_failed_suite(lib):
    inst = workloads.Passes(lib, "check", 2).next()[0]
    code, out, err = workloads.job_check(lib, inst)
    assert workloads.check_check(lib, inst, (code, out, err)) == []
    bad = out.replace("failed=0", "failed=1")
    assert workloads.check_check(lib, inst, (1, bad, err))


def test_run_refuses_to_start_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_run_prints_one_result_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "pipeline", "--seed", "9",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    corpus = workloads.WORKLOADS["pipeline"].corpus_size
    assert result["correct"] and result["attempted"] == corpus >= workloads.MIN_INSTANCES
    assert set(result["metrics"]) == {
        "instance_p50_ms", "instance_p90_ms", "instances_per_s", "ok_frac", "setup_s", "peak_rss_mb",
    }
