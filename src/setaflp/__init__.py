"""Logic programs, SETAFs, and the translations between them.

The package computes partial stable model family semantics for normal
logic programs, complete labelling family semantics for SETAFs, the
translation from programs to SETAFs through minimal vulnerability sets
(with statements as its explanation) and its inverse, the four program
transformations with fair normalization, and oracle suites for the
correspondence results connecting all of these.
"""

from .correspond import (
    EquivalenceReport,
    EquivalenceRow,
    check_equivalence,
    i2l_af,
    i2l_p,
    l2i_af,
    l2i_p,
)
from .errors import (
    BlowupCap,
    CapExceeded,
    DanglingArgument,
    DomainMismatch,
    EmptyAttackSource,
    InputError,
    InternalInvariantViolation,
    NonMinimalAttack,
    SetafLPError,
    StepCapExceeded,
    StepNotApplicable,
)
from .programs import (
    DEFAULT_ATOM_CAP,
    Interpretation,
    PositiveProgram,
    PositiveRule,
    Program,
    Rule,
    all_interpretations,
    l_stable_models,
    least_model,
    narrow_universe,
    omega,
    partial_stable_models,
    psi_step,
    reduct,
    regular_models,
    rule,
    stable_models,
    well_founded_model,
)
from .propcheck import (
    Caps,
    GenConfig,
    Suite,
    Verdict,
    catalogue,
    check_group,
    gen_program,
    gen_setaf,
    run_suite,
    suite_names,
)
from .setafs import (
    IN,
    OUT,
    UNDEC,
    Attack,
    Labelling,
    Setaf,
    all_labellings,
    complete_labellings,
    grounded,
    is_admissible,
    is_complete,
    minimize_attacks,
    preferred,
    semi_stable,
    stable,
    validate_setaf,
)
from .textio import (
    ParseError,
    ReservedAtom,
    export_dot,
    export_json,
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
from .transform import (
    DEFAULT_STEP_CAP,
    LEX,
    REVERSE_LEX,
    StepKind,
    Trace,
    TraceEntry,
    TransformStep,
    applicable_steps,
    apply,
    fair_normalize,
    is_irreducible,
    program_digest,
    replay,
)
from .translate import (
    DEFAULT_STATEMENT_CAP,
    Statement,
    arguments,
    is_rfalp,
    minimal_transversals,
    minimal_vulnerabilities,
    nlp_to_setaf,
    rfalp_violations,
    setaf_to_nlp,
    statements,
    vul_family,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
