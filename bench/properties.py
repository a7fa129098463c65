"""Input properties of a workload's corpus, the structures every run measures.

    python3 bench/properties.py --workload check|semantics|pipeline

Prints, as one JSON object, the share of instances whose SETAF has an
attack and a collective attack, whose program has more than one partial
stable model and a total well-founded model, and the share of program
instances that are RFALPs. A program instance's SETAF is its translation,
a SETAF instance's program is its translation. Instances whose translation
or semantics do not finish within LIMIT_S seconds are counted as unknown and
left out of the shares.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT_S = 60


def properties(lib, kind, value) -> dict[str, bool]:
    if kind == "lp":
        program, setaf = value, lib.translate.nlp_to_setaf(value)
    else:
        program, setaf = lib.translate.setaf_to_nlp(value), value
    models = lib.programs.partial_stable_models(program)
    return {
        "attack": bool(setaf.attacks),
        "collective_attack": any(len(a.source) > 1 for a in setaf.attacks),
        "many_models": len(models) > 1,
        "total_wf": lib.programs.well_founded_model(program).is_total(program.universe),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("check", "semantics", "pipeline"))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import run
    import workloads

    lib = workloads.load_library()
    found, unknown = [], 0
    programs = rfalps = 0
    for family, kind, value in workloads.corpus(lib, args.workload):
        if kind == "lp":
            programs += 1
            rfalps += lib.translate.is_rfalp(value)
        try:
            with run.Deadline(LIMIT_S):
                found.append(properties(lib, kind, value))
        except (run.InstanceTimeout, lib.errors.CapExceeded):
            unknown += 1
    shares = {k: round(sum(p[k] for p in found) / len(found), 3) for k in found[0]}
    shares["rfalp_of_programs"] = round(rfalps / programs, 3) if programs else None
    print(json.dumps({"workload": args.workload, "instances": len(found) + unknown,
                      "unknown": unknown, "programs": programs, "shares": shares}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
