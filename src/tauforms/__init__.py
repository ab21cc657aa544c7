"""Exact q-expansion engine for modular and quasimodular forms.

Rational arithmetic throughout: Eisenstein series, the discriminant cusp
form, Ramanujan's tau by four independent strategies, Rankin-Cohen and
quasimodular brackets, graded decompositions, and a catalogue of
tau/divisor-sum identities that is verified, certified and audited with
zero tolerance.
"""

__version__ = "0.1.0"

from .qseries import QSeries, Rational, as_rational
from .forms import (
    TAU_STRATEGIES,
    GradedForm,
    InternalInconsistency,
    SigmaTable,
    TauStrategyDisagreement,
    bernoulli,
    delta_from_eisenstein,
    delta_product,
    dim_modular,
    eisenstein,
    sigma_series,
    sigma_table,
    tau,
    tau_cross_check,
    tau_range,
)
from .brackets import (
    BracketSpec,
    binomial,
    e2_bracket_family,
    is_cuspidal,
    quasi_bracket,
    rc_bracket,
)
from .quasidecomp import (
    BasisElement,
    DecompositionRecord,
    InconsistentSystem,
    LinearSolveError,
    NotInGradedSpace,
    RankDeficientSystem,
    decompose,
    generator_count,
    graded_generators,
    modular_basis,
    recompose,
    solve_exact,
)
from .identities import (
    AUDIT_FLAGGED,
    EXPECTED_TRUE,
    AuditFinding,
    AuditReport,
    ClosedTerm,
    CongruenceRecord,
    ConvolutionTerm,
    EvalContext,
    FitResult,
    IdentityRecord,
    PolyMN,
    Registry,
    Side,
    VerificationReport,
    audit_all,
    builtin_registry,
    certify,
    check_congruence,
    evaluate,
    fit_identity,
    make_context,
    verify_range,
)
from .expr import EvalError, ParseError, eval_expr, parse, print_expr

__all__ = [name for name in dir() if not name.startswith("_")]
