"""The command-line texts that readers of setaflp rely on, byte for byte:
what `check`, `semantics` and `labellings` print on the data files, and
the counterexample texts of the correspondence suites when one side of a
semantics pair loses a result."""

import os
import sys

import pytest

from setaflp import programs, setafs
from setaflp.cli import main
from setaflp.propcheck import run_suite
from setaflp.textio import parse_program, parse_setaf

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# Each golden file holds "exit=<code>" and then the command's stdout.
RUNS = [("check", name, "--theorems") for name in sorted(os.listdir(DATA))]
RUNS += [("semantics", name, "--semantics") for name in sorted(os.listdir(DATA)) if name.endswith(".lp")]
RUNS += [("labellings", "fig1.setaf", "--semantics")]


@pytest.mark.parametrize("command, name, option", RUNS)
def test_command_output_is_byte_stable(capsys, monkeypatch, command, name, option):
    monkeypatch.setenv("SETAFLP_COLOR", "never")
    code = main([command, os.path.join(DATA, name), option, "all"])
    with open(os.path.join(GOLDEN, f"{command}-{name}.txt"), encoding="utf-8") as handle:
        assert f"exit={code}\n" + capsys.readouterr().out == handle.read()


# --- failure texts ----------------------------------------------------------------

REGULAR_SHORT = (
    "regular vs preferred: models map to ['in={a} out={b} undec={c,d,e}'], "
    "labellings are ['in={a} out={b} undec={c,d,e}', 'in={b} out={a,e} undec={c,d}']"
)
PREFERRED_SHORT = (
    "regular vs preferred: models map to ['in={a} out={b} undec={c,d,e}', "
    "'in={b} out={a,e} undec={c,d}'], labellings are ['in={a} out={b} undec={c,d,e}']"
)
LAB_TO_MODEL = "regular vs preferred: labellings map to a different model set"

# (module, engine, data file) -> the verdicts of the correspondence suites
# with that engine's last result dropped, as first recorded.
FAILURES = {
    (programs, "regular_models", "ex2.lp"): {
        "theorem-3": None,
        "theorem-4": REGULAR_SHORT,
        "theorem-4.2": REGULAR_SHORT,
        "theorem-6": None,
        "theorem-7": LAB_TO_MODEL,
        "theorem-7.2": LAB_TO_MODEL,
        "corollary-2": "<T={b} F={a,e}> only on the labelling side (regular)",
        "corollary-3": "regular vs preferred: model class maps to a different labelling class",
    },
    (setafs, "preferred", "fig1.setaf"): {
        "theorem-3": None,
        "theorem-4": PREFERRED_SHORT,
        "theorem-4.2": PREFERRED_SHORT,
        "theorem-6": None,
        "theorem-7": LAB_TO_MODEL,
        "theorem-7.2": LAB_TO_MODEL,
        "corollary-2": "<T={b} F={a,e}> only on the program side (regular)",
        "corollary-3": "regular vs preferred: model class maps to a different labelling class",
    },
    (setafs, "complete_labellings", "ex2.lp"): {
        "theorem-3": "partial stable T={b} F={a,e} U={c,d} maps to a non-complete labelling",
        "theorem-4": PREFERRED_SHORT,
        "theorem-4.2": PREFERRED_SHORT,
        "theorem-6": "partial stable T={b} F={a,e} U={c,d} is not complete",
        "theorem-7": LAB_TO_MODEL,
        "theorem-7.2": LAB_TO_MODEL,
        "corollary-2": "<T={b} F={a,e}> only on the program side (partial-stable)",
        "corollary-3": "complete: model class maps to a different labelling class",
    },
    (programs, "partial_stable_models", "fig1.setaf"): {
        "theorem-3": "complete in={b} out={a,e} undec={c,d} maps outside the partial stable models",
        "theorem-4": REGULAR_SHORT,
        "theorem-4.2": REGULAR_SHORT,
        "theorem-6": "complete in={b} out={a,e} undec={c,d} is not a partial stable model",
        "theorem-7": LAB_TO_MODEL,
        "theorem-7.2": LAB_TO_MODEL,
        "corollary-2": "<T={b} F={a,e}> only on the labelling side (partial-stable)",
        "corollary-3": "complete: model class maps to a different labelling class",
    },
}


def drop_last_result(monkeypatch, module, engine):
    """Replace the engine, in every setaflp module that holds it, with one
    that drops its last result."""
    real = getattr(module, engine)

    def dropped(*args, **kwargs):
        return real(*args, **kwargs)[:-1]

    for name, holder in list(sys.modules.items()):
        if name == "setaflp" or name.startswith("setaflp."):
            for attr, value in list(vars(holder).items()):
                if value is real:
                    monkeypatch.setattr(holder, attr, dropped)


@pytest.mark.parametrize("case", FAILURES, ids=lambda case: f"{case[1]}-{case[2]}")
def test_failure_texts_are_byte_stable(monkeypatch, case):
    module, engine, name = case
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        text = handle.read()
    instance = parse_program(text) if name.endswith(".lp") else parse_setaf(text)
    drop_last_result(monkeypatch, module, engine)
    for suite, counterexample in FAILURES[case].items():
        verdict = run_suite(suite, instance)
        assert (verdict.status, verdict.counterexample) == (
            "fail" if counterexample else "pass",
            counterexample,
        ), suite
