"""The self-check suite must be green and cover every documented invariant."""
import pytest

from zsig.verification import check_names, run_all


EXPECTED_CHECKS = {
    "valuation_additivity",
    "omega_under_log2",
    "power_sum_fifth_power",
    "gcd_strip_properties",
    "prime_factor_roundtrip",
    "normalization_identity",
    "normalization_distortion",
    "critical_point_search",
    "orbit_recurrence_agreement",
    "orbit_upper_bounds",
    "valuation_recursion_persistence",
    "denominator_lower_bound",
    "escape_growth_floor",
    "membership_matches_brute_force",
    "excess_part_inequality",
    "krieger_holds_on_zsigmondy_indices",
    "rin_fails_on_zsigmondy_indices",
    "rigid_strip_matches_all_pairs",
    "monomial_sandwich_envelopes",
    "cross_bound_synthetic_growth",
    "stabilization_index_exact",
    "growth_threshold_boundary",
    "scan_grid_and_determinism",
}


def test_registry_names():
    assert set(check_names()) == EXPECTED_CHECKS


def test_unknown_name_rejected():
    with pytest.raises(ValueError, match="^unknown checks: not_a_check$"):
        run_all(["not_a_check"])


def test_subset_runs_in_suite_order():
    names = ["growth_threshold_boundary", "valuation_additivity"]
    results = run_all(names)
    assert {r.name for r in results} == set(names)
    suite = check_names()
    assert [r.name for r in results] == sorted(names, key=suite.index)


def test_full_suite_is_green():
    results = run_all()
    failures = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert failures == []
    assert len(results) == len(EXPECTED_CHECKS)
