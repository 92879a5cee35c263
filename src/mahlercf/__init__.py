"""Exact continued fractions and p-adic approximation witnesses for the
generalized Thue-Morse Laurent series f_d(x) = prod_{t>=0} (1 - x^{-d^t}) and
its companions g_d = x^{1-d} f_d, h_d = x^{-1} f_d, u_d = (1 - x^{-1}) f_d.

All arithmetic is exact (rational coefficients, certified truncation floors);
every numeric claim the library makes is decided by integer comparisons.

Each export is imported from its module when it is first read (PEP 562), so
``import mahlercf`` loads no arithmetic; ``from mahlercf import X`` works as
for any package.
"""

import importlib

# export name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "approx": ("CertifiedValue IrrationalityReport eval_mahler irrationality_witness "
                   "partial_product_value real_cf_prefix"),
        "contfrac": ("CFExpansion Convergent cf_expand convergent_soundness default_floor "
                     "expand_family family_series monic_normalize"),
        "errors": ("ClassificationFailure DivisionByZeroPoly HypothesisFailed IdentityFailure "
                   "InsufficientPrecision InvalidParameter MahlerCFError MismatchAt NotFound "
                   "RateViolation ScaleNotInvertible SearchExhausted ShapeViolation "
                   "ZeroDenominator"),
        "laurent": ("TruncatedLaurentSeries generate partial_product rate_of_approximation "
                    "verify_functional_equations"),
        "padic": ("BadApproxWitness HenselDemo OrbitRow check_conditions convergent_denominators "
                  "enumerate_orbit_hits hensel_divisibility_demo orbit_table power_tower_residue "
                  "revalidate_witness wieferich_scan witness_search"),
        "polys": "RatPoly poly_eval_mod poly_normalize_integer",
        "_identities": "IDENTITY_NAMES",
        "structure": ("BetaSequence IdentityReport beta_closed_form beta_sequence classify_all "
                      "classify_convergent verify_identity well_approx_rate well_approx_report"),
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later reads find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
