"""Acceptance gate: the eight headline guarantees, one test per criterion.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and backs the line with assertions, so a broken guarantee fails the suite.
Randomized criteria use fixed seeds; everything asserted as exact is checked
in integer arithmetic, and float comparisons carry the stated tolerance.
"""

import math
import random
import time
from fractions import Fraction

import mpmath

from zsig.arith import distinct_prime_factors, prime_quotient_power_sum, primes_up_to, val_p
from zsig.harness import ScanConfig, csv_text, json_text, run_scan
from zsig.orbit import (
    Verdict,
    brute_force_verdict,
    check_denominator_lower_bound,
    check_escape_growth,
    check_upper_bounds,
    check_valuation_recursion,
    decide_membership,
    iterate,
    iterate_rational,
)
from zsig.poly import RatPolynomial, X2DivisiblePoly, normalize_to_x2_divisible
from zsig.zsigmondy import (
    check_monomial_sandwich,
    evertse_bound,
    index_bound_n0,
    power_sum_dominated,
    zsigmondy_of_values,
    zsigmondy_set,
)


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _random_x2_poly(rng: random.Random, degree: int, height: int = 9) -> X2DivisiblePoly:
    lead = rng.choice([v for v in range(-height, height + 1) if v != 0])
    mids = [rng.randint(-height, height) for _ in range(degree - 2)]
    return X2DivisiblePoly(tuple([0, 0, *mids, lead]))


# The two survey polynomials are shared by criteria 4, 5 and 8; scan once.
_SCAN_POLYS = ("x^3+x^2", "2*x^3+x^2")
_SCAN_CACHE: dict[str, object] = {}


def _survey_scan(poly_text: str):
    if poly_text not in _SCAN_CACHE:
        cfg = ScanConfig(
            poly=X2DivisiblePoly.parse(poly_text),
            num_bound=20,
            den_bound=6,
            horizon=8,
            parallelism=2,
        )
        _SCAN_CACHE[poly_text] = run_scan(cfg)
    return _SCAN_CACHE[poly_text]


def test_criterion_1_power_sum_domination_sweep():
    """(sum of d^(n/p) over p | n)^5 <= d^(3n), omega(n) <= log2 n: d <= 10, 30 <= n <= 1e5."""
    t0 = time.perf_counter()
    limit = 10**5
    om = [0] * (limit + 1)
    for p in primes_up_to(limit):
        for m in range(p, limit + 1, p):
            om[m] += 1
    dominated = power_sum_dominated
    checked = 0
    for n in range(30, limit + 1):
        w = om[n]
        assert (1 << w) <= n, f"omega({n}) = {w} exceeds log2"
        for d in range(2, 11):
            assert dominated(d, n), f"power sum domination fails at d={d}, n={n}"
            checked += 1
    # literal fifth-power spot checks, no ladder shortcuts
    rng = random.Random(1)
    literal = 0
    sample = list(range(30, 201)) + sorted(rng.sample(range(201, 2001), 30))
    for d in (2, 3, 10):
        for n in sample:
            assert prime_quotient_power_sum(d, n) ** 5 <= d ** (3 * n), (
                f"literal bound fails d={d}, n={n}"
            )
            literal += 1
    elapsed = time.perf_counter() - t0
    _gate(
        1,
        elapsed < 60.0,
        f"(sum of d^(n/p) over p | n)^5 <= d^(3n) exactly for d in 2..10 and 30 <= n <= 10^5 "
        f"({checked} ladder checks, {literal} literal, omega(n) <= log2 n "
        f"throughout) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_valuation_recursion_random_orbits():
    """val_p(M_(n+1)) = d*val_p(M_n) - val_p(u_d) for deep p, 200 random (g, c)."""
    rng = random.Random(20260819)
    horizons = {3: 8, 4: 7, 5: 6}
    orbits = 0
    deep_pairs = 0
    nontrivial_lead = 0
    while orbits < 200:
        d = rng.choice((3, 4, 5))
        g = _random_x2_poly(rng, d)
        a = rng.randint(-20, 20)
        b = rng.randint(2, 20) if orbits % 2 == 0 else rng.randint(1, 20)
        c = Fraction(a, b)
        values = [c]
        for _ in range(horizons[d] - 1):
            values.append(g(values[-1]) + c)
        candidates = distinct_prime_factors(c.denominator) if c.denominator > 1 else ()
        for prev, cur in zip(values, values[1:]):
            for p in candidates:
                vd = val_p(g.lead, p) if g.lead % p == 0 else 0
                e_prev = val_p(prev.denominator, p) if prev.denominator % p == 0 else 0
                if e_prev <= vd:
                    continue
                e_cur = val_p(cur.denominator, p) if cur.denominator % p == 0 else 0
                assert e_cur == d * e_prev - vd, (
                    f"recursion breaks: g={g}, c={c}, p={p}: "
                    f"{e_cur} != {d}*{e_prev} - {vd}"
                )
                assert e_cur > vd, f"p={p} fell out of the deep set: g={g}, c={c}"
                deep_pairs += 1
                if vd > 0:
                    nontrivial_lead += 1
        orbits += 1
    assert deep_pairs >= 200, f"only {deep_pairs} deep transitions exercised"
    assert nontrivial_lead >= 10, "val_p(u_d) > 0 branch barely exercised"
    _gate(
        2,
        True,
        f"denominator valuation recursion exact on {orbits} random orbits, "
        f"d in 3..5, coefficient heights <= 9, parameter heights <= 20 "
        f"({deep_pairs} deep prime transitions, {nontrivial_lead} with "
        f"val_p(u_d) > 0)",
    )


def test_criterion_3_growth_inequalities_random_orbits():
    """Upper/lower denominator bounds, escape growth, monomial sandwiches."""
    rng = random.Random(3)
    entries_checked = 0
    failures: list[str] = []
    for _ in range(40):
        g = _random_x2_poly(rng, 3)
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        orbit = iterate(g, c, horizon=9)
        assert len(orbit) >= 8, f"fewer than 8 iterates for g={g}, c={c}"
        failures += [f"{m} (g={g}, c={c})" for m in check_upper_bounds(orbit)]
        failures += [f"{m} (g={g}, c={c})" for m in check_denominator_lower_bound(orbit)]
        failures += [f"{m} (g={g}, c={c})" for m in check_escape_growth(orbit)]
        failures += [f"{m} (g={g}, c={c})" for m in check_valuation_recursion(orbit)]
        entries_checked += len(orbit)
    sandwiches = 0
    for _ in range(20):
        d = rng.choice((2, 3, 4, 5))
        u = rng.randint(1, 9)
        a = rng.randint(1, 3)
        den = rng.randint(4 * u * a + 1, 4 * u * a + 40)
        c = Fraction(a, den) * rng.choice((1, -1))
        g = X2DivisiblePoly(tuple([0] * d + [u]))
        orbit = iterate(g, c, horizon=8)
        failures += [f"{m} (g={g}, c={c})" for m in check_monomial_sandwich(orbit)]
        sandwiches += len(orbit)
        entries_checked += len(orbit)
    _gate(
        3,
        not failures,
        f"growth envelopes hold exactly on {entries_checked} orbit "
        f"entries (40 cubic orbits with >= 8 iterates, 20 monomial sandwich "
        f"orbits); violations: {failures or 'none'}",
    )


def test_criterion_4_survey_krieger_divisibility():
    """Every Zsigmondy index in both surveys satisfies N_n | prod N_(n/p)."""
    t0 = time.perf_counter()
    pairs_checked = 0
    rows_with_zset = 0
    for poly_text in _SCAN_POLYS:
        summary = _survey_scan(poly_text)
        g = summary.config.poly
        for row in summary.rows:
            if not row.zset:
                continue
            rows_with_zset += 1
            orbit = iterate(g, Fraction(row.c_num, row.c_den), horizon=8)
            nums = [abs(e.num) for e in orbit.entries]
            report = zsigmondy_set(orbit)
            for n in row.zset:
                prod = 1
                for p in distinct_prime_factors(n):
                    prod *= nums[n // p - 1]
                assert prod % nums[n - 1] == 0, (
                    f"N_{n} does not divide the product for {poly_text}, "
                    f"c={row.c_num}/{row.c_den}"
                )
                assert n in report.rin_failures and nums[n - 1] <= prod, (
                    f"index {n} in the Zsigmondy set passes the strict "
                    f"product inequality for {poly_text}, c={row.c_num}/{row.c_den}"
                )
                pairs_checked += 1
    elapsed = time.perf_counter() - t0
    _gate(
        4,
        elapsed < 600.0 and pairs_checked > 0,
        f"divisibility N_n | prod N_(n/p) exact and strict product inequality "
        f"false at every Zsigmondy index of both surveys (|a| <= 20, b <= 6, "
        f"horizon 8): {pairs_checked} indices over {rows_with_zset} parameters "
        f"in {elapsed:.1f}s (< 600s)",
    )


def test_criterion_5_membership_against_brute_force():
    """decide_membership matches a 500-step plain-Fraction classifier."""
    conclusive = 0
    points = 0
    for poly_text in _SCAN_POLYS:
        summary = _survey_scan(poly_text)
        g = summary.config.poly
        for row in summary.rows:
            c = Fraction(row.c_num, row.c_den)
            decision = decide_membership(g, c)
            # the size budget only curtails divergent orbits; bounded orbits
            # on these grids stay under ~100 bits, far below the cap
            oracle = brute_force_verdict(g, c, steps=500, bit_cap=10**4)
            points += 1
            if oracle is not None:
                conclusive += 1
                assert decision.verdict is Verdict.FINITE_ORBIT, (
                    f"oracle found a repeat but verdict is {decision.verdict} "
                    f"for {poly_text}, c={c}"
                )
                assert (decision.tail, decision.cycle) == oracle[1:], (
                    f"tail/cycle mismatch for {poly_text}, c={c}: "
                    f"{(decision.tail, decision.cycle)} vs {oracle[1:]}"
                )
            elif decision.verdict is Verdict.FINITE_ORBIT:
                raise AssertionError(
                    f"finite verdict not reproduced by 500-step oracle: "
                    f"{poly_text}, c={c}"
                )
    g = X2DivisiblePoly.parse("x^3+x^2")
    hand = decide_membership(g, -1)
    assert hand.verdict is Verdict.FINITE_ORBIT and (hand.tail, hand.cycle) == (1, 1)
    hand = decide_membership(g, 1)
    assert hand.verdict is Verdict.INFINITE_ESCAPE and hand.escape_index == 2
    hand = decide_membership(g, Fraction(1, 2))
    assert hand.verdict is Verdict.INFINITE_DENOMINATOR
    assert (hand.trigger_index, hand.trigger_prime) == (1, 2)
    _gate(
        5,
        True,
        f"membership decisions agree with the 500-step brute-force classifier "
        f"on all {points} survey parameters ({conclusive} conclusive finite "
        f"orbits, tail and cycle exact) plus the three hand-checked cases",
    )


def test_criterion_6_index_bound_and_unit_equation_constant():
    """index_bound_n0 inequality for 2 <= d <= 64; evertse_bound vs high precision."""
    for d in range(2, 65):
        n0 = index_bound_n0(d)
        assert 9 * (d - 1) ** (n0 - 1) <= d ** (n0 - 1), f"bound fails at d={d}"
        assert 9 * (d - 1) ** (n0 - 2) > d ** (n0 - 2), f"bound not minimal at d={d}"
    assert index_bound_n0(3) == 7 and index_bound_n0(2) == 5
    w = evertse_bound(2187, Fraction(1, 10))
    with mpmath.workprec(120):
        outer = mpmath.log(4 * 2187)
        ref = 2 * 10**7 * mpmath.mpf(10) ** 4 * outer * mpmath.log(outer)
        rel = abs(mpmath.mpf(w) - ref) / ref
    assert rel < 1e-9, f"unit equation constant off by rel {rel}"
    assert abs(w - 4004038152653.899) / w < 1e-9
    _gate(
        6,
        True,
        "9(d-1)^(N0-1) <= d^(N0-1) exactly for 2 <= d <= 64 with N0 minimal, "
        "N0(3) = 7, N0(2) = 5; unit equation count at r = 3^7 matches "
        f"120-bit evaluation to rel {float(rel):.1e} (< 1e-9)",
    )


def test_criterion_7_conjugation_transfer():
    """x^3 - 3x at its critical point transfers exactly to x^3 + 3x^2."""
    f = RatPolynomial.parse("x^3-3*x")
    cert = normalize_to_x2_divisible(f, 1)
    h = cert.target
    assert h == X2DivisiblePoly.parse("x^3+3*x^2")
    assert cert.scale == 1 and cert.distortion_bound == 0
    rng = random.Random(7)
    identities = 0
    windows = 0
    worst_gap = 0
    while windows < 50:
        c = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        cp = cert.param_map(c)
        fc_values = iterate_rational(f, c, 1, 8)
        diffs = [v - 1 for v in fc_values[1:]]
        h_orbit = iterate(h, cp, horizon=8) if cp != 0 else None
        h_values = [e.value for e in h_orbit.entries] if h_orbit else [Fraction(0)] * 8
        for n in range(1, 7):
            assert diffs[n - 1] == h_values[n - 1], (
                f"transfer identity fails at n={n}, c={c}"
            )
            identities += 1
        if any(v == 0 for v in diffs):
            continue  # orbit through the base point, window undefined
        source_window = zsigmondy_of_values(diffs)
        target_window = zsigmondy_set(h_orbit).zset
        gap = abs(len(source_window) - len(target_window))
        worst_gap = max(worst_gap, gap)
        assert gap <= cert.distortion_bound, (
            f"window counts differ by {gap} at c={c}"
        )
        windows += 1
    _gate(
        7,
        True,
        f"f_c^n(1) - 1 equals the conjugate orbit exactly for n <= 6 "
        f"({identities} identities) and Zsigmondy window counts on [1, 8] "
        f"differ by at most {cert.distortion_bound} "
        f"(worst observed {worst_gap}) over {windows} parameters",
    )


def test_criterion_8_survey_statistics_reported_and_stable():
    """Max window size is finite, reported, and identical across reruns."""
    observed = {}
    for poly_text in _SCAN_POLYS:
        base = _survey_scan(poly_text)
        reruns = []
        for workers in (1, 3):
            cfg = ScanConfig(
                poly=X2DivisiblePoly.parse(poly_text),
                num_bound=20,
                den_bound=6,
                horizon=8,
                parallelism=workers,
            )
            reruns.append(run_scan(cfg))
        for other in reruns:
            assert csv_text(other) == csv_text(base), (
                f"CSV not byte-identical across reruns for {poly_text}"
            )
            assert json_text(other) == json_text(base), (
                f"JSON not byte-identical across reruns for {poly_text}"
            )
            assert other.empirical_max_zset_size == base.empirical_max_zset_size
        row_max = max((row.zset_size or 0) for row in base.rows)
        assert base.empirical_max_zset_size == row_max
        assert "empirical_max_zset_size" in json_text(base)
        assert "certified" not in json_text(base) + csv_text(base)
        observed[poly_text] = base.empirical_max_zset_size
    _gate(
        8,
        True,
        f"empirical max Zsigmondy window sizes {observed} are finite, carried "
        f"in the report, and byte-identical across reruns at parallelism "
        f"1, 2 and 3; a uniform bound over all parameters is observed only, "
        f"not certified",
    )
