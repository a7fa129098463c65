"""Exception types shared across the package.

Everything raised on purpose derives from SetafLPError, so callers (and the
CLI exit-code mapping) can tell our failures from genuine bugs. CapExceeded
splits off because hitting a resource bound is not an input error.
"""

from __future__ import annotations


class SetafLPError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InputError(SetafLPError):
    """Malformed input: bad syntax, bad structure, mismatched domains."""


class CapExceeded(SetafLPError):
    """A configured resource bound was hit before the operation finished."""


class InternalInvariantViolation(SetafLPError):
    """A "cannot happen" condition happened. Always a bug, never user error."""


# --- input errors -----------------------------------------------------------


class DomainMismatch(InputError):
    """An interpretation or labelling talks about atoms outside the expected
    universe (or misses some of it). Never silently re-domained."""


class DanglingArgument(InputError):
    """An attack mentions an argument that is not in the argument set."""


class EmptyAttackSource(InputError):
    """An attack with an empty source set: not a SETAF."""


class NonMinimalAttack(InputError):
    """Attack sources on a target are not an antichain.

    Carries the offending pair so the message can name it.
    """

    def __init__(self, target: str, source: frozenset[str], smaller: frozenset[str]):
        self.target = target
        self.source = source
        self.smaller = smaller
        fmt = lambda s: "{" + ",".join(sorted(s)) + "}"
        super().__init__(
            f"attack {fmt(source)} -> {target} is not minimal: "
            f"{fmt(smaller)} -> {target} also attacks"
        )


class StepNotApplicable(InputError):
    """A transformation step was applied to a program it does not fit."""


# --- caps -------------------------------------------------------------------
# Enumeration over interpretations/labellings raises plain CapExceeded when
# the domain is larger than the configured atom bound.


class BlowupCap(CapExceeded):
    """Translation exceeded the configured work bound (max_statements):
    candidate vulnerability sets formed, or statement combinations tried."""


class StepCapExceeded(CapExceeded):
    """Normalization exceeded the configured step bound."""
