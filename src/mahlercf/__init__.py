"""Exact continued fractions and p-adic approximation witnesses for the
generalized Thue-Morse Laurent series f_d(x) = prod_{t>=0} (1 - x^{-d^t}) and
its companions g_d = x^{1-d} f_d, h_d = x^{-1} f_d, u_d = (1 - x^{-1}) f_d.

All arithmetic is exact (rational coefficients, certified truncation floors);
every numeric claim the library makes is decided by integer comparisons.
"""

from .approx import (
    CertifiedValue,
    IrrationalityReport,
    eval_mahler,
    irrationality_witness,
    partial_product_value,
    real_cf_prefix,
)
from .contfrac import (
    CFExpansion,
    Convergent,
    cf_expand,
    convergent_soundness,
    default_floor,
    expand_family,
    family_series,
    monic_normalize,
)
from .errors import (
    ClassificationFailure,
    DivisionByZeroPoly,
    HypothesisFailed,
    IdentityFailure,
    InsufficientPrecision,
    InvalidParameter,
    MahlerCFError,
    MismatchAt,
    NotFound,
    RateViolation,
    ScaleNotInvertible,
    SearchExhausted,
    ShapeViolation,
    ZeroDenominator,
)
from .laurent import (
    TruncatedLaurentSeries,
    generate,
    partial_product,
    rate_of_approximation,
    verify_functional_equations,
)
from .padic import (
    BadApproxWitness,
    HenselDemo,
    OrbitRow,
    check_conditions,
    convergent_denominators,
    enumerate_orbit_hits,
    hensel_divisibility_demo,
    orbit_table,
    orbit_table_csv,
    power_tower_residue,
    revalidate_witness,
    wieferich_scan,
    witness_search,
)
from .polys import RatPoly, poly_eval_mod, poly_normalize_integer
from .structure import (
    BetaSequence,
    IDENTITY_NAMES,
    IdentityReport,
    beta_closed_form,
    beta_sequence,
    classify_all,
    classify_convergent,
    verify_identity,
    well_approx_rate,
    well_approx_report,
)

__version__ = "0.1.0"
