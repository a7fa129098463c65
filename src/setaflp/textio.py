"""Text formats: the .lp program grammar, the .setaf grammar, canonical
printers, and DOT/JSON exports.

Program grammar (one statement per `.`; `%` comments run to end of line):

    head :- lit, lit, ... .      rule (lit is `atom` or `not atom`)
    head.                        fact
    #universe a, b, c.           adds atoms to the universe

SETAF grammar (one statement per line; `%` comments run to end of line):

    arg a
    att a,d -> c

Printers emit canonical text: everything lexicographically sorted, so
parse(print(x)) == x and print(parse(canonical_text)) == canonical_text.
The reduct's undefined constant has no surface syntax at all; its reserved
spelling `_u` is rejected wherever an atom is expected.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .correspond import EquivalenceReport
from .errors import InputError
from .programs import Interpretation, Program, Rule, validate_atom
from .setafs import Labelling, Setaf, minimize_attacks, validate_setaf

RESERVED_UNDEF = "_u"


@dataclass(frozen=True)
class SourceSpan:
    """Where in the input a token sits: 1-based line/column plus the byte
    offsets [start, end) of the token itself."""

    line: int
    column: int
    start: int
    end: int


class ParseError(InputError):
    """Bad surface syntax, pointing at the offending token."""

    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"line {span.line}, column {span.column}: {message}")


class ReservedAtom(ParseError):
    """The undefined constant's spelling showed up in source text."""


@dataclass(frozen=True)
class _Token:
    kind: str  # "word", "punct", "directive", "end"
    text: str
    span: SourceSpan


# One token pattern per format; the named group that matches names the
# token. .lp words cannot start with a digit. A .setaf line ends in an "end"
# token whose group is empty, so it sits where the line's content stops,
# before any `%` comment.
_LP_TOKENS = re.compile(
    r"(?P<skip>\s+|%[^\n]*)|(?P<punct>:-|[,.])|(?P<directive>#\w*)|(?P<word>[^\W\d]\w*)"
)
_LP_ERRORS = {":": "expected ':-'"}
_SETAF_TOKENS = re.compile(
    r"(?P<skip>[^\S\n]+)|(?P<end>)(?:%[^\n]*)?(?:\n|\Z)|(?P<punct>->|,)|(?P<word>\w+)"
)


def _tokenize(text: str, pattern: re.Pattern, errors: dict[str, str]) -> Iterator[_Token]:
    """The tokens of *text* under *pattern*, then an "end" token. A token's
    text and span are its named group's; "skip" yields none. A character no
    token starts with raises its message in *errors*, or "unexpected
    character". A generator, so the parsers report errors in text order."""
    pos = line_start = byte = 0
    line = 1
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None:
            c = text[pos]
            span = SourceSpan(line, pos - line_start + 1, byte, byte + len(c.encode("utf-8")))
            raise ParseError(errors.get(c, f"unexpected character {c!r}"), span)
        kind, matched = m.lastgroup, m.group()
        if kind != "skip":
            word = m.group(kind)
            end = byte + len(word.encode("utf-8"))
            yield _Token(kind, word, SourceSpan(line, pos - line_start + 1, byte, end))
        if "\n" in matched:
            line += matched.count("\n")
            line_start = pos + matched.rindex("\n") + 1
        byte += len(matched.encode("utf-8"))
        pos = m.end()
    yield _Token("end", "", SourceSpan(line, pos - line_start + 1, byte, byte))


class _Cursor:
    """One token of lookahead over a token stream that ends in an "end"
    token. A token is read only when the parser asks for it, so a lexical
    error after a syntax error is never reached: the first error in text
    order is the one reported."""

    def __init__(self, tokens: Iterable[_Token]):
        self.tokens = iter(tokens)
        self.next: _Token | None = None

    def peek(self) -> _Token:
        if self.next is None:
            self.next = next(self.tokens)
        return self.next

    def take(self) -> _Token:
        tok = self.peek()
        if tok.kind != "end":
            self.next = None
        return tok

    def expect_punct(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind != "punct" or tok.text != text:
            shown = tok.text or "end of input"
            raise ParseError(f"expected '{text}', found {shown!r}", tok.span)
        return tok


def _expect_atom(cur: _Cursor) -> str:
    tok = cur.take()
    if tok.kind != "word":
        shown = tok.text or "end of input"
        raise ParseError(f"expected an atom, found {shown!r}", tok.span)
    return _check_atom(tok)


def _check_atom(tok: _Token) -> str:
    if tok.text == RESERVED_UNDEF:
        raise ReservedAtom(
            f"'{RESERVED_UNDEF}' is the reserved undefined constant and cannot appear in source",
            tok.span,
        )
    try:
        return validate_atom(tok.text)
    except InputError as err:
        raise ParseError(str(err), tok.span) from None


def parse_program(text: str) -> Program:
    """Parse .lp text. Duplicate rules and duplicate body literals collapse;
    `#universe` directives extend the universe beyond the occurring atoms."""
    cur = _Cursor(_tokenize(text, _LP_TOKENS, _LP_ERRORS))
    rules = set()
    extra_universe = set()
    while cur.peek().kind != "end":
        tok = cur.peek()
        if tok.kind == "directive":
            cur.take()
            if tok.text != "#universe":
                raise ParseError(f"unknown directive {tok.text!r}", tok.span)
            extra_universe.add(_expect_atom(cur))
            while cur.peek().kind == "punct" and cur.peek().text == ",":
                cur.take()
                extra_universe.add(_expect_atom(cur))
            cur.expect_punct(".")
            continue
        head = _expect_atom(cur)
        nxt = cur.take()
        if nxt.kind == "punct" and nxt.text == ".":
            rules.add(Rule(head))
            continue
        if not (nxt.kind == "punct" and nxt.text == ":-"):
            shown = nxt.text or "end of input"
            raise ParseError(f"expected '.' or ':-', found {shown!r}", nxt.span)
        pos, neg = set(), set()
        while True:
            tok = cur.peek()
            if tok.kind == "word" and tok.text == "not":
                cur.take()
                neg.add(_expect_atom(cur))
            else:
                pos.add(_expect_atom(cur))
            sep = cur.take()
            if sep.kind == "punct" and sep.text == ",":
                continue
            if sep.kind == "punct" and sep.text == ".":
                break
            shown = sep.text or "end of input"
            raise ParseError(f"expected ',' or '.', found {shown!r}", sep.span)
        rules.add(Rule(head, frozenset(pos), frozenset(neg)))
    occurring = {a for r in rules for a in r.atoms()}
    return Program(frozenset(rules), frozenset(occurring) | frozenset(extra_universe))


def parse_setaf(text: str, minimize: bool = False) -> Setaf:
    """Parse .setaf text. Non-minimal attack lists are rejected unless
    *minimize* is set, in which case they are repaired via minimize_attacks."""
    args: set[str] = set()
    attacks: list[tuple[frozenset[str], str]] = []
    statement: list[_Token] = []
    for tok in _tokenize(text, _SETAF_TOKENS, {}):
        statement.append(tok)
        if tok.kind != "end":
            continue
        cur, statement = _Cursor(statement), []
        kw = cur.take()
        if kw.kind == "end":
            continue  # a blank or comment-only line
        if kw.kind == "word" and kw.text == "arg":
            args.add(_expect_atom(cur))
        elif kw.kind == "word" and kw.text == "att":
            sources = {_expect_atom(cur)}
            while cur.peek().kind == "punct" and cur.peek().text == ",":
                cur.take()
                sources.add(_expect_atom(cur))
            arrow = cur.take()
            if not (arrow.kind == "punct" and arrow.text == "->"):
                shown = arrow.text or "end of line"
                raise ParseError(f"expected '->', found {shown!r}", arrow.span)
            attacks.append((frozenset(sources), _expect_atom(cur)))
        else:
            raise ParseError(f"expected 'arg' or 'att', found {kw.text!r}", kw.span)
        trailing = cur.take()
        if trailing.kind != "end":
            raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.span)
    if minimize:
        return minimize_attacks(attacks, args)
    return validate_setaf(args, attacks)


# --- printers ----------------------------------------------------------------


def _braces(atoms) -> str:
    return "{" + ",".join(sorted(atoms)) + "}"


def print_program(p: Program) -> str:
    """Canonical .lp text: an optional #universe directive for atoms no rule
    mentions, then the rules in sorted order."""
    lines = []
    extra = p.universe - p.occurring_atoms()
    if extra:
        lines.append("#universe " + ", ".join(sorted(extra)) + ".")
    lines.extend(str(r) for r in p.sorted_rules())
    return "\n".join(lines) + ("\n" if lines else "")


def print_setaf(s: Setaf) -> str:
    """Canonical .setaf text: sorted arg lines, then sorted att lines."""
    lines = [f"arg {a}" for a in sorted(s.arguments)]
    lines.extend(
        f"att {','.join(sorted(atk.source))} -> {atk.target}" for atk in s.sorted_attacks()
    )
    return "\n".join(lines) + ("\n" if lines else "")


def print_interpretation(i: Interpretation, universe) -> str:
    return f"T={_braces(i.true)} F={_braces(i.false)} U={_braces(i.undefined(universe))}"


def print_labelling(l: Labelling) -> str:
    return f"in={_braces(l.in_)} out={_braces(l.out)} undec={_braces(l.undec)}"


def export_dot(s: Setaf) -> str:
    """Graphviz rendering. Single-source attacks are plain edges; a
    collective attack gets one point-shaped junction node that its sources
    feed into and that points at the target."""
    lines = ["digraph setaf {", "  rankdir=LR;"]
    for a in sorted(s.arguments):
        lines.append(f'  "{a}" [shape=circle];')
    junction = 0
    for atk in s.sorted_attacks():
        if len(atk.source) == 1:
            (src,) = atk.source
            lines.append(f'  "{src}" -> "{atk.target}";')
        else:
            name = f"att{junction}"
            junction += 1
            lines.append(f'  "{name}" [shape=point];')
            for src in sorted(atk.source):
                lines.append(f'  "{src}" -> "{name}" [arrowhead=none];')
            lines.append(f'  "{name}" -> "{atk.target}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _interp_obj(i: Interpretation) -> dict:
    return {"true": sorted(i.true), "false": sorted(i.false)}


def _labelling_obj(l: Labelling) -> dict:
    return {"in": sorted(l.in_), "out": sorted(l.out), "undec": sorted(l.undec)}


def export_json(obj) -> str:
    """JSON for programs, SETAFs, and equivalence reports. Key order is fixed
    by construction so output is byte-stable."""
    if isinstance(obj, Program):
        data = {
            "type": "program",
            "universe": sorted(obj.universe),
            "rules": [
                {
                    "head": r.head,
                    "body_pos": sorted(r.body_pos),
                    "body_neg": sorted(r.body_neg),
                }
                for r in obj.sorted_rules()
            ],
        }
    elif isinstance(obj, Setaf):
        data = {
            "type": "setaf",
            "arguments": sorted(obj.arguments),
            "attacks": [
                {"source": sorted(atk.source), "target": atk.target}
                for atk in obj.sorted_attacks()
            ],
        }
    elif isinstance(obj, EquivalenceReport):
        data = {
            "type": "equivalence-report",
            "ok": obj.ok,
            "rows": [
                {
                    "program_semantics": row.lp_name,
                    "setaf_semantics": row.af_name,
                    "models": [_interp_obj(m) for m in row.models],
                    "labellings": [_labelling_obj(l) for l in row.labellings],
                    "equal": row.equal,
                    "counterexample": row.counterexample,
                }
                for row in obj.rows
            ],
        }
    else:
        raise InputError(f"no JSON export for {type(obj).__name__}")
    return json.dumps(data, indent=2) + "\n"


# --- report rendering ---------------------------------------------------------

_GREEN = "\x1b[32m"
_RED = "\x1b[31m"
_RESET = "\x1b[0m"


def render_report(report: EquivalenceReport, color: bool = False) -> str:
    """Human-readable five-row table for an equivalence report."""
    headers = ("program", "setaf", "models", "labellings", "equal")
    rows = []
    for row in report.rows:
        verdict = "yes" if row.equal else "no"
        rows.append(
            (row.lp_name, row.af_name, str(len(row.models)), str(len(row.labellings)), verdict)
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row, src in zip(rows, report.rows):
        cells = []
        for i, cell in enumerate(row):
            pad = cell.ljust(widths[i])
            if i == 4 and color:
                pad = (_GREEN if src.equal else _RED) + pad + _RESET
            cells.append(pad)
        out.append("  ".join(cells).rstrip())
        if src.counterexample:
            out.append(f"      counterexample: {src.counterexample}")
    return "\n".join(out) + "\n"


def report_lines(report: EquivalenceReport) -> list[str]:
    """Greppable one-line-per-row form of the same report."""
    return [
        f"equivalence {row.lp_name}={row.af_name} "
        f"models={len(row.models)} labellings={len(row.labellings)} "
        f"equal={'yes' if row.equal else 'no'}"
        for row in report.rows
    ]


def format_trace(trace) -> list[str]:
    """One line per normalization step: index, kind, rule, extras, digest."""
    lines = []
    for idx, entry in enumerate(trace, 1):
        step = entry.step
        bits = [f"{idx}", step.kind.value, f"{step.rule}"]
        if step.atom is not None:
            bits.append(f"on {step.atom}")
        if step.keep is not None:
            bits.append(f"kept {step.keep}")
        bits.append(f"-> {entry.digest}")
        lines.append(" ".join(bits))
    return lines
