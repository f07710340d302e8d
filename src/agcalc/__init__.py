"""agcalc: exact inversion of formal maps and phase-space vanishing scans."""

from .errors import (
    AgcalcError,
    CompositionError,
    ContractViolation,
    ConvergenceViolation,
    MapFileError,
    PreconditionError,
    TermCeilingExceeded,
    TruncationError,
    VerificationError,
)
from .inversion import (
    ABHYANKAR_GURJAR,
    FIXED_POINT,
    LAMBDA_SERIES,
    InversionResult,
    ag_jacobian_identity,
    cross_method_results,
    f_from_h,
    invert_ag,
    invert_fixed_point,
    invert_lambda,
    jacobian_factor,
    verify_phi_exponential,
    verify_round_trip,
    xi_moment_series,
)
from .lab import (
    CorpusItem,
    CorpusSpec,
    EquivalenceReport,
    NilpotencyCertificate,
    VanishingReport,
    check_equivalences,
    deformed_tail_components,
    gen_corpus,
    gt_jacobian_series,
    is_nilpotent,
    nt_pairing_series,
    standard_corpus,
    vanishing_scan,
    vanishing_scan_poly,
)
from .poly import (
    INF,
    NEG_INF,
    MapTuple,
    PolyMatrix,
    SparsePoly,
    VarSet,
    compose,
    det,
    diff_witness,
    first_difference,
    jacobian,
    render_monomial,
    render_poly,
    xi_pairing,
)
from .weyl import (
    lambda_apply,
    lambda_pow,
    normal_order,
    phi_apply,
    verify_phi_normal_order,
)

__version__ = "0.1.0"
