"""Zsigmondy sets of critical orbits for x^2-divisible polynomials.

The model family is g(x) = u_d x^d + ... + u_2 x^2 with integer
coefficients.  For a rational parameter c the package iterates g + c
from the critical point 0, decides whether the orbit is finite, computes
the indices whose orbit numerator has no primitive prime divisor, and
evaluates the explicit bounds that make that set finite.

Importing the package loads no submodule: a public name is imported from
its home module the first time it is read.
"""
from importlib import import_module

__version__ = "0.1.0"

# each public name, listed under the submodule that defines it
_EXPORTS = {
    "arith": (
        "IncompleteFactorizationError", "factor_small", "is_probable_prime", "ln_abs_ratio",
        "omega", "prime_quotient_power_sum", "strip_common_primes", "val_p",
    ),
    "harness": (
        "CSV_HEADER", "ScanConfig", "ScanRow", "ScanSummary", "csv_text", "grid",
        "json_text", "run_scan", "write_output",
    ),
    "lemmas": (
        "check_cross_bound", "check_denominator_lower_bound", "check_escape_growth",
        "check_monomial_sandwich", "check_upper_bounds", "check_valuation_recursion",
        "cross_bound_ok", "excess_bound_ok", "excess_primes", "power_sum_dominated",
    ),
    "oracle": (
        "brute_force_verdict", "iterate_rational", "primitive_divisor_verdicts",
        "zsigmondy_of_values",
    ),
    "orbit": (
        "MembershipDecision", "OrbitEntry", "OrbitRecord", "Verdict", "decide_membership",
        "escape_check", "escape_radius", "iterate",
    ),
    "poly": (
        "NormalizationCertificate", "PolynomialSyntaxError", "RatPolynomial",
        "X2DivisiblePoly", "critical_points_rational", "length", "normalize_to_x2_divisible",
        "scale_to_integer", "shift_to_origin",
    ),
    "verification": ("CheckResult", "check_names", "run_all"),
    "zsigmondy": (
        "BoundReport", "KriegerStatus", "PrimitiveDivisorVerdict", "ZsigmondyReport",
        "bound_report", "evertse_bound", "growth_threshold", "index_bound_n0",
        "index_bound_n1", "index_bound_n2", "root_bound", "zsigmondy_set",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
