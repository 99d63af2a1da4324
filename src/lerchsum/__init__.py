"""lerchsum: Hurwitz-Lerch special functions and a finite-sum identity verifier."""

from .functions import (
    EULER_GAMMA,
    LerchParams,
    digamma,
    harmonic,
    hurwitz_zeta,
    lerch_phi,
    lerch_phi_integral,
    log_gamma,
    polylog,
    stieltjes_gamma1,
)
from .identities import (
    EvalPoint,
    IdentitySpec,
    get_identity,
    evaluate_sides,
    list_identities,
    nielsen_limit,
    nielsen_partial_product,
    prudnikov_original,
)
from .numerics import (
    ConvergenceError,
    DomainError,
    PoleError,
    PrecisionPolicy,
    compensated_sum,
    principal_log,
    principal_pow,
    richardson_derivative,
)
from .oracle import OracleReport, finite_sum_direct, limit_probe, phi_series_bruteforce
from .verifier import (
    DEFAULT_SEED,
    SampleStrategy,
    SuiteReport,
    VerificationResult,
    default_strategy,
    mutated_spec,
    run_suite,
    sample_points,
    verify_identity,
)

__version__ = "0.1.0"
