"""Zsigmondy sets of critical orbits for x^2-divisible polynomials.

The model family is g(x) = u_d x^d + ... + u_2 x^2 with integer
coefficients.  For a rational parameter c the package iterates g + c
from the critical point 0, decides whether the orbit is finite, computes
the indices whose orbit numerator has no primitive prime divisor, and
evaluates the explicit bounds that make that set finite.
"""
from .arith import (
    IncompleteFactorizationError,
    factor_small,
    is_probable_prime,
    ln_abs_int,
    ln_abs_ratio,
    omega,
    prime_quotient_power_sum,
    strip_common_primes,
    val_p,
)
from .harness import (
    CSV_HEADER,
    ScanConfig,
    ScanRow,
    ScanSummary,
    csv_text,
    grid,
    json_text,
    run_scan,
    write_output,
)
from .orbit import (
    MembershipDecision,
    OrbitEntry,
    OrbitRecord,
    Verdict,
    brute_force_verdict,
    check_denominator_lower_bound,
    check_escape_growth,
    check_upper_bounds,
    check_valuation_recursion,
    decide_membership,
    escape_check,
    escape_radius,
    iterate,
    iterate_rational,
)
from .poly import (
    NormalizationCertificate,
    PolynomialSyntaxError,
    RatPolynomial,
    X2DivisiblePoly,
    critical_points_rational,
    length,
    normalize_to_x2_divisible,
    scale_to_integer,
    shift_to_origin,
)
from .verification import CheckResult, check_names, run_all
from .zsigmondy import (
    BoundReport,
    KriegerStatus,
    PrimitiveDivisorVerdict,
    ZsigmondyReport,
    bound_report,
    check_cross_bound,
    check_monomial_sandwich,
    cross_bound_ok,
    evertse_bound,
    excess_bound_ok,
    excess_primes,
    growth_threshold,
    index_bound_n0,
    index_bound_n1,
    index_bound_n2,
    mahler_measure,
    power_sum_dominated,
    primitive_divisor_verdicts,
    root_bound,
    zsigmondy_of_values,
    zsigmondy_set,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CSV_HEADER", "CheckResult", "IncompleteFactorizationError",
    "KriegerStatus", "MembershipDecision", "NormalizationCertificate", "OrbitEntry",
    "OrbitRecord", "PolynomialSyntaxError", "PrimitiveDivisorVerdict", "RatPolynomial",
    "ScanConfig", "ScanRow", "ScanSummary", "Verdict", "X2DivisiblePoly", "ZsigmondyReport",
    "bound_report", "brute_force_verdict", "check_cross_bound", "check_denominator_lower_bound",
    "check_escape_growth", "check_monomial_sandwich",
    "check_names", "check_upper_bounds",
    "check_valuation_recursion", "critical_points_rational", "cross_bound_ok",
    "csv_text", "decide_membership", "escape_check", "escape_radius", "evertse_bound",
    "excess_bound_ok", "excess_primes", "factor_small", "grid", "growth_threshold",
    "index_bound_n0", "index_bound_n1", "index_bound_n2", "is_probable_prime",
    "iterate", "iterate_rational", "json_text", "length", "ln_abs_int", "ln_abs_ratio",
    "mahler_measure", "normalize_to_x2_divisible", "omega", "power_sum_dominated",
    "prime_quotient_power_sum", "primitive_divisor_verdicts", "root_bound", "run_all",
    "run_scan", "scale_to_integer", "shift_to_origin", "strip_common_primes", "val_p",
    "write_output", "zsigmondy_of_values", "zsigmondy_set",
]
