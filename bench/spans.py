"""Spans around the public functions of each setaflp module, for the traced
run only.

install() replaces each listed function, in every setaflp module that holds
it (including the modules that imported it by name), with a wrapper that
records a span: group name, start, end, parent span, instance index and
self time. Self time is the span's duration minus the part its child spans
cover. Calls between functions of one module that go through the
module's globals are seen too, because the wrapper sits in those globals.
Time in functions no group lists is charged to the nearest listed caller.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

#: Span name -> (module, functions). The name's prefix is the layer.
GROUPS = {
    "cli.main": ("cli", ("main",)),
    "textio.parse": ("textio", ("parse_program", "parse_setaf")),
    "textio.print": (
        "textio",
        ("print_program", "print_setaf", "print_interpretation", "print_labelling"),
    ),
    "textio.report": ("textio", ("render_report", "report_lines")),
    "correspond.check_equivalence": ("correspond", ("check_equivalence",)),
    "correspond.convert": ("correspond", ("l2i_p", "i2l_p", "l2i_af", "i2l_af")),
    "propcheck.run_suite": ("propcheck", ("run_suite",)),
    "programs.omega": ("programs", ("omega",)),
    "programs.partial_stable_models": ("programs", ("partial_stable_models",)),
    "programs.select": (
        "programs",
        ("well_founded_model", "regular_models", "stable_models", "l_stable_models"),
    ),
    "setafs.complete_labellings": ("setafs", ("complete_labellings",)),
    "setafs.select": ("setafs", ("grounded", "preferred", "stable", "semi_stable")),
    "translate.nlp_to_setaf": ("translate", ("nlp_to_setaf",)),
    "translate.setaf_to_nlp": ("translate", ("setaf_to_nlp",)),
    "translate.statements": ("translate", ("statements",)),
    "translate.families": ("translate", ("arguments", "vul_family")),
    "translate.minimal_transversals": ("translate", ("minimal_transversals",)),
    "translate.rfalp": ("translate", ("is_rfalp", "rfalp_violations")),
    "transform.fair_normalize": ("transform", ("fair_normalize",)),
    "transform.applicable_steps": ("transform", ("applicable_steps",)),
    "transform.apply": ("transform", ("apply",)),
    "transform.program_digest": ("transform", ("program_digest",)),
}

def layer_of(span_name: str) -> str:
    return span_name.split(".")[0]


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, instance, self]
        self.stack: list[list] = []  # [span index, time covered by children]
        self.instance = -1
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, object]] = []

    # --- instances ---------------------------------------------------------------

    def begin(self, index: int) -> None:
        self.instance = index
        self.stack.clear()

    def current_layer(self) -> str | None:
        """The layer of the innermost open span."""
        if not self.stack:
            return None
        return layer_of(self.spans[self.stack[-1][0]][0])

    # --- wrapping ------------------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append([name, clock(), 0.0, stack[-1][0] if stack else -1, self.instance, 0.0])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                span = spans[frame[0]]
                span[2] = end
                duration = end - span[1]
                span[5] = duration - frame[1]
                if stack and stack[-1] is frame:
                    stack.pop()
                if stack:
                    stack[-1][1] += duration

        traced.__wrapped__ = fn
        return traced

    def install(self, lib) -> None:
        """Wrap every GROUPS function wherever a setaflp module holds it."""
        holders = [
            m for n, m in sys.modules.items() if n == "setaflp" or n.startswith("setaflp.")
        ]
        for name, (module, functions) in GROUPS.items():
            for fn_name in functions:
                original = getattr(getattr(lib, module), fn_name)
                self.originals[f"{module}.{fn_name}"] = original
                wrapper = self._wrap(original, name)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # --- results -------------------------------------------------------------------

    def calls(self) -> Counter[str]:
        return Counter(span[0] for span in self.spans)

    def self_ms(self, key=lambda name, instance: name) -> defaultdict:
        """Self time in ms, summed by key(span name, instance index)."""
        out: defaultdict = defaultdict(float)
        for name, _, _, _, instance, own in self.spans:
            out[key(name, instance)] += own * 1e3
        return out

    def layer_self_ms(self) -> defaultdict:
        return self.self_ms(lambda name, instance: layer_of(name))

    def write(self, path) -> None:
        """Spans as tab-separated lines: name, start, end, parent span,
        instance, self time."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("name\tstart\tend\tparent\tinstance\tself\n")
            for span in self.spans:
                handle.write("\t".join(map(repr, span)) + "\n")
