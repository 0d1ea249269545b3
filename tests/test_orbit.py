"""Orbit iteration, escape detection, and the membership decision procedure."""
import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zsig.orbit as orbit_module
from zsig.lemmas import (
    check_denominator_lower_bound,
    check_escape_growth,
    check_upper_bounds,
    check_valuation_recursion,
)
from zsig.oracle import brute_force_verdict, iterate_rational
from zsig.orbit import (
    MembershipDecision,
    Verdict,
    decide_membership,
    escape_check,
    escape_radius,
    iterate,
)
from zsig.poly import X2DivisiblePoly, length
from zsig.zsigmondy import zsigmondy_set

F = Fraction
CUBIC = X2DivisiblePoly.parse("x^3+x^2")
SQUARE = X2DivisiblePoly.parse("x^2")


def test_iterate_integer_orbit_frozen():
    orbit = iterate(CUBIC, 1, horizon=4)
    assert [e.num for e in orbit.entries] == [1, 3, 37, 52023]
    assert all(e.den == 1 for e in orbit.entries)
    assert orbit.capped_at is None


def test_iterate_rational_orbit_deep_denominators():
    orbit = iterate(CUBIC, F(1, 2), horizon=2)
    assert (orbit.entry(1).num, orbit.entry(1).den) == (1, 2)
    assert (orbit.entry(2).num, orbit.entry(2).den) == (7, 8)
    assert orbit.entry(1).deep_valuations == {2: 1}
    assert orbit.entry(2).deep_valuations == {2: 3}
    # two-prime denominator support: both primes stay deep and triple each step
    orbit = iterate(CUBIC, F(1, 6), horizon=3)
    assert orbit.den_prime_support == (2, 3)
    assert [e.deep_valuations for e in orbit.entries] == [
        {2: 1, 3: 1}, {2: 3, 3: 3}, {2: 9, 3: 9},
    ]


def test_iterate_square_orbit():
    orbit = iterate(SQUARE, 1, horizon=5)
    assert [e.num for e in orbit.entries] == [1, 2, 5, 26, 677]


def test_iterate_fixed_points():
    # c = -1 is a fixed point of x^3 + x^2 + c
    orbit = iterate(CUBIC, -1, horizon=6)
    assert all(e.num == -1 and e.den == 1 for e in orbit.entries)
    # c = 0 stays at zero
    orbit = iterate(SQUARE, 0, horizon=3)
    assert all(e.num == 0 and e.den == 1 for e in orbit.entries)


def test_iterate_alternating_orbit():
    orbit = iterate(X2DivisiblePoly.parse("-x^3+x^2"), -1, horizon=5)
    assert [e.num for e in orbit.entries] == [-1, 1, -1, 1, -1]


def test_iterate_matches_plain_fraction_loop():
    rng = random.Random(29)
    for _ in range(40):
        coeffs = [0, 0] + [rng.randrange(-4, 5) for _ in range(rng.randrange(1, 3))]
        coeffs.append(rng.choice([1, -1, 2, 3]))
        g = X2DivisiblePoly.from_coeffs(coeffs)
        c = F(rng.randrange(-9, 10), rng.randrange(1, 8))
        orbit = iterate(g, c, horizon=6, bit_cap=10**5)
        vals = iterate_rational(g, c, c, len(orbit.entries) - 1)
        for entry, v in zip(orbit.entries, vals):
            assert F(entry.num, entry.den) == v


def test_entry_indexing_is_one_based():
    orbit = iterate(CUBIC, 1, horizon=4)
    assert orbit.value(1) == 1
    assert orbit.value(4) == 52023
    with pytest.raises(IndexError):
        orbit.entry(0)
    with pytest.raises(IndexError):
        orbit.entry(5)


def test_bit_cap_records_crossing_entry_then_stops():
    orbit = iterate(CUBIC, 1, horizon=50, bit_cap=64)
    assert orbit.capped_at is not None
    assert orbit.entries[-1].num.bit_length() > 64
    assert orbit.capped_at == orbit.entries[-1].n
    # everything before the cap stays within it
    for e in orbit.entries[:-1]:
        assert e.num.bit_length() <= 64


def test_ln_abs_value_accuracy():
    # math.log takes arbitrary ints, so it serves as reference at any size
    orbit = iterate(CUBIC, 1, horizon=8, bit_cap=10**7)
    for e in orbit.entries:
        assert e.ln_abs == pytest.approx(
            math.log(abs(e.num)) - math.log(e.den), rel=1e-12
        )


def test_iterate_and_zset_compute_no_valuation_or_log(monkeypatch):
    """Depth comes off the step ledger with no val_p; ln|value| is computed on read."""
    def walk():
        orbit = iterate(CUBIC, F(1, 6), horizon=8)
        report = zsigmondy_set(orbit)
        return (report.zset, [(v.has_primitive, v.stripped_remainder_bits)
                              for v in report.verdicts],
                [e.deep_valuations for e in orbit.entries],
                [decide_membership(CUBIC, c) for c in (F(1, 6), F(-5, 3), 1, -1)])

    expected = walk()

    def refuse(*args):
        raise RuntimeError("computed on read only")

    monkeypatch.setattr(orbit_module, "val_p", refuse)
    monkeypatch.setattr(orbit_module, "ln_abs_ratio", refuse)
    assert walk() == expected
    with pytest.raises(RuntimeError, match="on read only"):
        iterate(CUBIC, F(1, 6), horizon=8).entry(2).ln_abs


def _plain_val(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@settings(max_examples=60, deadline=None)
@given(
    middle=st.lists(st.integers(-4, 4), min_size=0, max_size=2),
    lead=st.integers(-12, 12).filter(bool),
    c_num=st.integers(-12, 12),
    c_den=st.integers(1, 12),
    horizon=st.integers(1, 5),
)
def test_lazy_entry_fields_match_plain_fractions(middle, lead, c_num, c_den, horizon):
    """deep_valuations and ln_abs agree with values rebuilt from plain Fractions."""
    g = X2DivisiblePoly.from_coeffs([0, 0, *middle, lead])
    c = F(c_num, c_den)
    support = [p for p in (2, 3, 5, 7, 11) if c.denominator % p == 0]
    orbit = iterate(g, c, horizon=horizon)
    values = iterate_rational(g, c, c, horizon - 1)
    assert len(orbit.entries) == horizon
    for e, v in zip(orbit.entries, values):
        vals = {p: _plain_val(v.denominator, p) for p in support}
        assert e.deep_valuations == {
            p: k for p, k in vals.items() if k > _plain_val(g.lead, p)
        }
        if v == 0:
            assert e.ln_abs == float("-inf")
        else:
            expected = math.log(abs(v.numerator)) - math.log(v.denominator)
            assert e.ln_abs == pytest.approx(expected, rel=1e-12, abs=1e-9)


def test_iteration_reduces_without_gcd(monkeypatch):
    """Steps are reduced from the den(c) ledger: no gcd runs on orbit values."""
    sizes = []
    real_gcd = math.gcd

    def spy(*args):
        sizes.append(max(a.bit_length() for a in args))
        return real_gcd(*args)

    expected = [(e.num, e.den) for e in iterate(CUBIC, F(1, 6), horizon=8).entries]
    monkeypatch.setattr(math, "gcd", spy)
    orbit = iterate(CUBIC, F(1, 6), horizon=8)
    decide_membership(CUBIC, F(-5, 3))
    assert [(e.num, e.den) for e in orbit.entries] == expected
    assert max(sizes, default=0) <= 64


@settings(max_examples=80, deadline=None)
@given(
    middle=st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    unit=st.sampled_from([1, -1, 5, -7]),
    lead_powers=st.tuples(st.integers(0, 3), st.integers(0, 2)),
    c_num=st.integers(-40, 40),
    den_powers=st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)),
    horizon=st.integers(1, 6),
)
def test_ledger_reduction_matches_plain_fractions(middle, unit, lead_powers, c_num,
                                                  den_powers, horizon):
    """Ledger-reduced pairs equal plain Fractions for degree 2-5.

    u_d and den(c) share the primes 2 and 3, so a prime of den(c) is shallow
    while its valuation stays at most val_p(u_d) and deep once it passes it.
    """
    lead = unit * 2 ** lead_powers[0] * 3 ** lead_powers[1]
    g = X2DivisiblePoly.from_coeffs([0, 0, *middle, lead])
    c = F(c_num, 2 ** den_powers[0] * 3 ** den_powers[1] * 5 ** den_powers[2])
    orbit = iterate(g, c, horizon=horizon)
    values = iterate_rational(g, c, c, horizon - 1)
    assert [(e.num, e.den) for e in orbit.entries] == [
        (v.numerator, v.denominator) for v in values
    ]
    # the recursion check reads each entry's denominator: growing one breaks it
    assert check_valuation_recursion(orbit) == []
    for prev, cur in zip(orbit.entries, orbit.entries[1:]):
        if prev.deep_valuations:
            p = min(prev.deep_valuations)
            bad = list(orbit.entries)
            bad[cur.n - 1] = replace(cur, den=p * cur.den)
            assert check_valuation_recursion(replace(orbit, entries=tuple(bad))) != []
            break


PRIMES_BELOW_100 = [p for p in range(2, 100) if all(p % q for q in range(2, p))]


@settings(max_examples=80, deadline=None)
@given(
    middle=st.lists(st.integers(-4, 4), min_size=0, max_size=3),
    lead=st.integers(-6, 6).filter(bool),
    c_num=st.integers(-40, 40),
    c_den=st.integers(1, 12),
    horizon=st.integers(2, 12),
)
def test_strong_rigid_divisibility(middle, lead, c_num, c_den, horizon):
    """v_p(N_km) = v_p(N_m) for every p < 100 with p | N_m and p not dividing den(c).

    Since x^2 | g, g_c^m(y) = g_c^m(0) mod y^2, so the exponent of p is
    preserved, not merely p | N_km.  The primitivity strip relies on it.
    """
    g = X2DivisiblePoly.from_coeffs([0, 0, *middle, lead])
    c = F(c_num, c_den)
    nums = [abs(e.num) for e in iterate(g, c, horizon=horizon, bit_cap=10**4).entries]
    for p in PRIMES_BELOW_100:
        if c.denominator % p == 0:
            continue
        for m, num in enumerate(nums, start=1):
            if num == 0 or num % p:
                continue
            e = _plain_val(num, p)
            for km in range(2 * m, len(nums) + 1, m):
                assert _plain_val(nums[km - 1], p) == e, (p, m, km)


@settings(max_examples=80, deadline=None)
@given(
    middle=st.lists(st.integers(-3, 3), min_size=0, max_size=3),
    lead=st.integers(-4, 4).filter(bool),
    c_num=st.integers(-12, 12),
    c_den=st.integers(1, 6),
)
def test_membership_matches_brute_force_on_random_polynomials(middle, lead, c_num, c_den):
    """decide_membership against the plain-Fraction repeat detector, degree 2-5."""
    g = X2DivisiblePoly.from_coeffs([0, 0, *middle, lead])
    c = F(c_num, c_den)
    decision = decide_membership(g, c)
    brute = brute_force_verdict(g, c, steps=200, bit_cap=10**4)
    if decision.verdict is Verdict.FINITE_ORBIT:
        assert brute == ("finite", decision.tail, decision.cycle)
        assert decision.steps_used == decision.tail + decision.cycle
    else:
        assert brute is None


def test_escape_radius():
    assert escape_radius(CUBIC, F(1)) == 8  # 4 * length = 8 > |c|
    assert escape_radius(CUBIC, F(9)) == 9
    assert escape_radius(X2DivisiblePoly.parse("x^2"), F(-1)) == 4


def test_escape_check_frozen():
    assert escape_check(iterate(CUBIC, 1, horizon=4)) == 2
    assert escape_check(iterate(CUBIC, 9, horizon=3)) == 0
    assert escape_check(iterate(CUBIC, -1, horizon=6)) is None


def test_decide_membership_frozen_cases():
    d = decide_membership(CUBIC, -1)
    assert d.verdict is Verdict.FINITE_ORBIT and (d.tail, d.cycle) == (1, 1)
    assert d.witness_text() == "tail=1;cycle=1"

    d = decide_membership(CUBIC, 1)
    assert d.verdict is Verdict.INFINITE_ESCAPE and d.escape_index == 2
    assert d.witness_text() == "n=2"

    d = decide_membership(CUBIC, F(1, 2))
    assert d.verdict is Verdict.INFINITE_DENOMINATOR
    assert (d.trigger_index, d.trigger_prime) == (1, 2)
    assert d.witness_text() == "n=1;p=2"

    d = decide_membership(CUBIC, 9)
    assert d.verdict is Verdict.INFINITE_ESCAPE and d.escape_index == 0

    # two-prime denominators: the trigger is the smallest deep prime
    for poly, text in (("x^3+x^2", "n=1;p=2"), ("2*x^3+x^2", "n=1;p=3"),
                       ("6*x^3+x^2", "n=2;p=3")):
        d = decide_membership(X2DivisiblePoly.parse(poly), F(1, 6))
        assert d.verdict is Verdict.INFINITE_DENOMINATOR
        assert d.witness_text() == text


def test_decide_membership_lead_two():
    g = X2DivisiblePoly.parse("2*x^3+x^2")
    d = decide_membership(g, F(1, 2))
    # val_2 of the denominator never exceeds val_2(lead)=1, so escape decides
    assert d.verdict is Verdict.INFINITE_ESCAPE and d.escape_index == 3
    d = decide_membership(g, F(1, 4))
    assert d.verdict is Verdict.INFINITE_DENOMINATOR
    assert (d.trigger_index, d.trigger_prime) == (1, 2)


def test_decide_membership_square_cycles():
    d = decide_membership(SQUARE, -1)
    assert d.verdict is Verdict.FINITE_ORBIT and (d.tail, d.cycle) == (1, 2)
    d = decide_membership(SQUARE, -2)
    assert d.verdict is Verdict.FINITE_ORBIT and (d.tail, d.cycle) == (2, 1)


def test_membership_agrees_with_brute_force_on_grid():
    # 1, 3, 37, ... never repeats: three steps give the oracle nothing to conclude
    assert brute_force_verdict(CUBIC, 1, steps=3) is None
    for g_text in ["x^3+x^2", "2*x^3+x^2", "x^2", "-x^3+x^2"]:
        g = X2DivisiblePoly.parse(g_text)
        for b in range(1, 3):
            for a in range(-6, 7):
                if a == 0 or math.gcd(abs(a), b) != 1:
                    continue
                c = F(a, b)
                decision = decide_membership(g, c)
                brute = brute_force_verdict(g, c, steps=200, bit_cap=10**4)
                if brute is None:
                    assert decision.verdict is not Verdict.FINITE_ORBIT, (g_text, c)
                else:
                    assert decision.verdict is Verdict.FINITE_ORBIT, (g_text, c)
                    assert (decision.tail, decision.cycle) == brute[1:], (g_text, c)


def test_escape_index_is_recheckable():
    """The reported index is the least radius crossing, verified exactly."""
    rng = random.Random(57)
    for _ in range(40):
        coeffs = [0, 0, rng.randrange(-3, 4), rng.choice([1, -1, 2])]
        g = X2DivisiblePoly.from_coeffs(coeffs)
        c = F(rng.randrange(-30, 31), rng.randrange(1, 5))
        if c == 0:
            continue
        d = decide_membership(g, c)
        if d.verdict is not Verdict.INFINITE_ESCAPE:
            continue
        radius = escape_radius(g, c)
        vals = iterate_rational(g, c, c, d.escape_index)
        assert abs(vals[-1]) >= radius
        for v in vals[:-1]:
            assert abs(v) < radius


def _never_settles(steps):
    """A fake _orbit_pairs: distinct values 1/k, inside the radius, never deep."""
    def pairs(g, c, support):
        for k in itertools.count(1):
            steps.append(k)
            yield 1, k, {}
    return pairs


def test_state_space_guard_still_raises(monkeypatch):
    """A walk that never settles is stopped at the bound read off the den(c) support."""
    bound = orbit_module._state_space_bound
    g = X2DivisiblePoly.parse("2*x^3+x^2")
    # c = 1/2: shallow denominators divide 2^val_2(lead) = 2, radius 6
    radius = escape_radius(g, F(1, 2))
    assert radius == 6
    assert bound(radius, orbit_module._den_support(g.lead, 2)) == (2 * 6 + 1) + (2 * 12 + 1) + 2
    # integer c has no support: the bound is 2*floor(R) + 3 whatever the lead
    for poly in (CUBIC, g):
        radius = escape_radius(poly, 1)
        assert bound(radius, ()) == 2 * math.floor(radius) + 3

    steps = []
    monkeypatch.setattr(orbit_module, "_orbit_pairs", _never_settles(steps))
    for poly, c in ((g, 1), (CUBIC, 1), (g, F(1, 2))):
        support = orbit_module._den_support(poly.lead, F(c).denominator)
        limit = bound(escape_radius(poly, c), support)
        steps.clear()
        with pytest.raises(ArithmeticError,
                           match=f"^no verdict after {limit} steps; state-space bound violated$"):
            decide_membership(poly, c)
        assert len(steps) == limit + 1


def test_state_space_guard_never_factors_the_lead(monkeypatch):
    # factor_small refuses this lead; the guard reads only the (empty) support of den(c) = 1
    g = X2DivisiblePoly.parse(f"{(2**89 - 1) * (2**107 - 1)}*x^3+x^2")
    monkeypatch.setattr(orbit_module, "_orbit_pairs", _never_settles([]))
    with pytest.raises(ArithmeticError,
                       match="^no verdict after 11 steps; state-space bound violated$"):
        decide_membership(g, 1)


def test_valuation_recursion_checker():
    orbit = iterate(CUBIC, F(1, 6), horizon=5, bit_cap=10**5)
    assert check_valuation_recursion(orbit) == []
    # depth recorded off the ledger is compared with its denominator's
    assert orbit.entry(3).deep_valuations == {2: 9, 3: 9}
    for wrong in ({}, {2: 9}, {2: 9, 3: 10}, {2: 9, 3: 9, 5: 1}):
        entries = list(orbit.entries)
        entries[2] = replace(entries[2], deep_valuations=wrong)
        assert check_valuation_recursion(replace(orbit, entries=tuple(entries))) == [
            f"n=3: ledger depth {wrong}, denominator depth {{2: 9, 3: 9}}"
        ]


def test_upper_bound_checker():
    for c in [1, F(1, 2), -1, F(-3, 2), 7]:
        orbit = iterate(CUBIC, c, horizon=7, bit_cap=10**6)
        assert check_upper_bounds(orbit) == []


def test_denominator_lower_bound_checker():
    orbit = iterate(CUBIC, F(1, 2), horizon=6, bit_cap=10**5)
    assert check_denominator_lower_bound(orbit) == []
    with pytest.raises(ValueError):
        check_denominator_lower_bound(iterate(SQUARE, F(1, 2), horizon=4))


def test_escape_growth_checker():
    orbit = iterate(CUBIC, 1, horizon=7, bit_cap=10**6)
    assert check_escape_growth(orbit) == []


def test_checkers_report_fabricated_violations():
    """Tampered records must trip the inequality checkers."""
    import dataclasses

    orbit = iterate(CUBIC, F(1, 2), horizon=5, bit_cap=10**5)
    bad_entries = list(orbit.entries)
    e = bad_entries[3]
    # the check must read depth from the denominator itself
    bad_entries[3] = dataclasses.replace(e, den=2 * e.den)
    bad = dataclasses.replace(orbit, entries=tuple(bad_entries))
    assert check_valuation_recursion(bad) != []
    # M_n = 2^(3^(n-1)) meets its ceiling M_1^(d^(n-1)) exactly, so one more
    # unit is a violation that no log slack may forgive
    orbit = iterate(CUBIC, F(1, 2), horizon=8)
    entries = list(orbit.entries)
    entries[6] = dataclasses.replace(entries[6], den=entries[6].den + 1)
    assert check_upper_bounds(orbit) == []
    assert check_upper_bounds(dataclasses.replace(orbit, entries=tuple(entries))) == [
        "denominator bound fails at n=7"
    ]

    def tampered(orbit, n, **changes):
        entries = list(orbit.entries)
        entries[n - 1] = dataclasses.replace(entries[n - 1], **changes)
        return dataclasses.replace(orbit, entries=tuple(entries))

    # the value ceiling at c = 1/2 is 2 |u_d| R = 16: 32/2 meets it, 33/2 passes it
    assert check_upper_bounds(tampered(orbit, 1, num=32)) == []
    assert check_upper_bounds(tampered(orbit, 1, num=33)) == ["value bound fails at n=1"]
    # an odd denominator with an empty ledger is consistent, but 2 was deep at n = 3
    assert check_valuation_recursion(tampered(orbit, 4, den=1, deep_valuations={})) == [
        "p=2 deep at n=3 but not at n=4"
    ]
    # hat = 2 needs M_5^3 >= 2^(3^4)
    assert check_denominator_lower_bound(orbit) == []
    assert check_denominator_lower_bound(tampered(orbit, 5, den=2)) == [
        "denominator lower bound fails at n=5"
    ]
    # c = 1 escapes past k0 = 2, so |value(6)| must reach (|value(3)| / 2)^27
    orbit = iterate(CUBIC, 1, horizon=7, bit_cap=10**6)
    assert escape_check(orbit) == 2
    assert check_escape_growth(tampered(orbit, 6, num=1)) == ["escape growth fails at n=6"]
