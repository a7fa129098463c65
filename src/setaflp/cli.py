"""Command-line front-end.

Subcommands cover the whole pipeline: model and labelling enumeration,
translation in both directions, normalization, the theorem-oracle suites
and reproducible instance generation. Exit codes: 0 success, 1 a semantic
check failed (a counterexample was found), 2 bad input, 3 a cap was hit.
"""

from __future__ import annotations

import argparse
import os
import sys

from .correspond import PAIRS, check_equivalence
from .errors import CapExceeded, InputError
from .programs import DEFAULT_ATOM_CAP, Program
from .propcheck import Caps, GenConfig, check_group, gen_program, gen_setaf, run_suite
from .textio import (
    format_trace,
    parse_program,
    parse_setaf,
    print_interpretation,
    print_labelling,
    print_program,
    print_setaf,
    render_report,
    report_lines,
)
from .transform import DEFAULT_STEP_CAP, LEX, REVERSE_LEX, fair_normalize
from .translate import DEFAULT_STATEMENT_CAP, nlp_to_setaf, setaf_to_nlp


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _infer_format(path: str, override: str | None) -> str:
    if override:
        return override
    if path.endswith(".lp"):
        return "lp"
    if path.endswith(".setaf"):
        return "setaf"
    raise InputError(
        f"cannot infer input format from {path!r}; use --format lp or --format setaf"
    )


def _load_instance(path: str, override: str | None, minimize: bool = False):
    text = _read_source(path)
    fmt = _infer_format(path, override)
    if fmt == "lp":
        return parse_program(text)
    return parse_setaf(text, minimize=minimize)


def _use_color() -> bool:
    mode = os.environ.get("SETAFLP_COLOR", "auto")
    if mode == "always":
        return True
    if mode == "never":
        return False
    return sys.stdout.isatty()


def _print_semantics(args: argparse.Namespace, engines: dict, instance, show) -> int:
    """Each selected semantics' results, one per line, then their count;
    under --semantics all, every block is headed by its name."""
    targets = engines if args.semantics == "all" else (args.semantics,)
    for which in targets:
        if args.semantics == "all":
            print(f"# {which}")
        found = engines[which](instance, args.max_atoms)
        for result in found:
            print(show(result))
        print(f"count={len(found)}")
    return 0


def cmd_semantics(args: argparse.Namespace) -> int:
    p = parse_program(_read_source(args.file))
    engines = {pair.lp_cli: pair.models for pair in PAIRS}
    return _print_semantics(args, engines, p, lambda m: print_interpretation(m, p.universe))


def cmd_labellings(args: argparse.Namespace) -> int:
    s = parse_setaf(_read_source(args.file))
    engines = {pair.af_cli: pair.labellings for pair in PAIRS}
    return _print_semantics(args, engines, s, print_labelling)


def cmd_translate(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file, args.format, args.minimize)
    if isinstance(instance, Program):
        out = print_setaf(nlp_to_setaf(instance, args.max_statements))
    else:
        out = print_program(setaf_to_nlp(instance))
    sys.stdout.write(out)
    return 0


def cmd_normalize(args: argparse.Namespace) -> int:
    p = parse_program(_read_source(args.file))
    strategy = LEX if args.strategy == "lex" else REVERSE_LEX
    result, trace = fair_normalize(p, strategy, args.max_steps)
    sys.stdout.write(print_program(result))
    if args.trace:
        for line in format_trace(trace):
            print(f"% {line}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    instance = _load_instance(args.file, args.format, args.minimize)
    caps = Caps(
        max_atoms=args.max_atoms,
        max_statements=args.max_statements,
        max_steps=args.max_steps,
    )
    names = check_group(args.theorems)
    if args.theorems in ("equivalence", "all"):
        program = instance if isinstance(instance, Program) else setaf_to_nlp(instance)
        report = check_equivalence(program, caps.max_atoms, caps.max_statements)
        sys.stdout.write(render_report(report, color=_use_color()))
        for line in report_lines(report):
            print(line)
    counts = {"pass": 0, "fail": 0, "not-applicable": 0}
    failures = []
    for name in names:
        verdict = run_suite(name, instance, caps)
        counts[verdict.status] += 1
        line = f"suite {name}: {verdict.status}"
        if verdict.detail:
            line += f" ({verdict.detail})"
        print(line)
        if verdict.counterexample:
            print(f"  counterexample: {verdict.counterexample}")
            failures.append(verdict)
    print(
        f"passed={counts['pass']} failed={counts['fail']} "
        f"not-applicable={counts['not-applicable']}"
    )
    if failures:
        print("instance for replay:")
        if isinstance(instance, Program):
            sys.stdout.write(print_program(instance))
        else:
            sys.stdout.write(print_setaf(instance))
        return 1
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    cfg = GenConfig(atom_count=args.atoms, rule_count=args.rules, seed=args.seed)
    if args.kind == "lp":
        sys.stdout.write(print_program(gen_program(cfg)))
    else:
        sys.stdout.write(print_setaf(gen_setaf(cfg)))
    return 0


def _add_input_arg(parser: argparse.ArgumentParser):
    parser.add_argument("file", help="input file, or - for standard input")


def _add_max_atoms(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--max-atoms",
        type=int,
        default=DEFAULT_ATOM_CAP,
        help="enumeration cap on the number of atoms or arguments",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setaflp",
        description="Logic program and SETAF semantics, translations and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    semantics = sub.add_parser("semantics", help="enumerate models of a program")
    _add_input_arg(semantics)
    semantics.add_argument(
        "--semantics",
        choices=[pair.lp_cli for pair in PAIRS] + ["all"],
        default="pstable",
    )
    _add_max_atoms(semantics)
    semantics.set_defaults(func=cmd_semantics)

    labellings = sub.add_parser("labellings", help="enumerate labellings of a SETAF")
    _add_input_arg(labellings)
    labellings.add_argument(
        "--semantics",
        choices=[pair.af_cli for pair in PAIRS] + ["all"],
        default="complete",
    )
    _add_max_atoms(labellings)
    labellings.set_defaults(func=cmd_labellings)

    translate = sub.add_parser("translate", help="translate between the two formats")
    _add_input_arg(translate)
    translate.add_argument("--format", choices=("lp", "setaf"), default=None)
    translate.add_argument(
        "--minimize",
        action="store_true",
        help="repair non-minimal SETAF input instead of rejecting it",
    )
    translate.add_argument("--max-statements", type=int, default=DEFAULT_STATEMENT_CAP)
    translate.set_defaults(func=cmd_translate)

    normalize = sub.add_parser("normalize", help="normalize a program to its normal form")
    _add_input_arg(normalize)
    normalize.add_argument("--strategy", choices=("lex", "revlex"), default="lex")
    normalize.add_argument(
        "--trace",
        action="store_true",
        help="append the transformation trace as comment lines",
    )
    normalize.add_argument("--max-steps", type=int, default=DEFAULT_STEP_CAP)
    normalize.set_defaults(func=cmd_normalize)

    check = sub.add_parser("check", help="run theorem suites on one instance")
    _add_input_arg(check)
    check.add_argument(
        "--theorems",
        choices=("inverse", "equivalence", "confluence", "invariance", "all"),
        default="all",
    )
    check.add_argument("--format", choices=("lp", "setaf"), default=None)
    check.add_argument("--minimize", action="store_true")
    _add_max_atoms(check)
    check.add_argument("--max-statements", type=int, default=DEFAULT_STATEMENT_CAP)
    check.add_argument("--max-steps", type=int, default=DEFAULT_STEP_CAP)
    check.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen", help="emit a reproducible random instance")
    gen.add_argument("--kind", choices=("lp", "setaf"), default="lp")
    gen.add_argument("--atoms", type=int, default=5)
    gen.add_argument("--rules", type=int, default=6)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_gen)

    return parser


# Built on the first call of main and kept: building it costs more than
# checking a small instance.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
