"""The self-check suite must be green and cover every documented invariant."""
import pytest

from zsig import verification
from zsig.orbit import MembershipDecision, Verdict
from zsig.verification import check_names, run_all


EXPECTED_CHECKS = {
    "valuation_additivity",
    "omega_under_log2",
    "power_sum_fifth_power",
    "gcd_strip_properties",
    "prime_factor_roundtrip",
    "multiply_kernel_matches_plain",
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


def test_full_suite_is_green(verify_run):
    results = verify_run[2]
    failures = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert failures == []
    assert len(results) == len(EXPECTED_CHECKS)


# (check, the orbit checker it samples with, whether it keeps one verdict)
SAMPLING_CHECKS = [
    ("orbit_upper_bounds", "check_upper_bounds", False),
    ("valuation_recursion_persistence", "check_valuation_recursion", True),
    ("denominator_lower_bound", "check_denominator_lower_bound", True),
    ("escape_growth_floor", "check_escape_growth", True),
]


@pytest.mark.parametrize("name, checker, filtered", SAMPLING_CHECKS)
def test_sampling_checks_can_fail(monkeypatch, name, checker, filtered):
    monkeypatch.setattr(verification, checker, lambda orbit: ["fabricated"])
    [result] = run_all([name])
    assert not result.ok and result.detail.endswith(": fabricated"), result
    if filtered:
        finite = MembershipDecision(Verdict.FINITE_ORBIT, 1, tail=1, cycle=1)
        monkeypatch.setattr(verification, "decide_membership", lambda g, c: finite)
        [result] = run_all([name])
        assert not result.ok and result.detail.startswith("only 0"), result


def test_multiply_kernel_check_can_fail(monkeypatch):
    # kernels that are off by one only past the Toom-3 cutoff, and only on
    # products of _SSA_BITS bits or more
    def past_toom(a, b):
        return a * b + (min(a.bit_length(), b.bit_length()) >= verification._TOOM_BITS)

    def past_ssa(a, b):
        return a * b + (a.bit_length() + b.bit_length() >= verification._SSA_BITS)

    for kernel in (past_toom, past_ssa):
        monkeypatch.setattr(verification, "mul", kernel)
        [result] = run_all(["multiply_kernel_matches_plain"])
        assert not result.ok and result.detail.startswith("mul differs from * on a "), result
