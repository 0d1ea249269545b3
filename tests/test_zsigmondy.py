"""Primitive divisors, Zsigmondy sets, and the explicit bound machinery."""
import math
import random
from dataclasses import replace
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import zsig.oracle as oracle_module
import zsig.zsigmondy as zsigmondy_module
from zsig.harness import ScanConfig, _scan_one, run_scan
from zsig.lemmas import (
    check_cross_bound,
    check_escape_growth,
    check_monomial_sandwich,
    cross_bound_ok,
    excess_bound_ok,
    excess_primes,
    power_sum_dominated,
)
from zsig.oracle import (
    _strip_index,
    mobius_residues,
    primitive_divisor_verdicts,
    zsigmondy_of_values,
)
from zsig.orbit import OrbitEntry, Verdict, decide_membership, escape_radius, iterate
from zsig.poly import X2DivisiblePoly, length
from zsig.tail import _escape_bits
from zsig.zsigmondy import (
    KriegerStatus,
    bound_report,
    evertse_bound,
    growth_threshold,
    index_bound_n0,
    index_bound_n1,
    index_bound_n2,
    root_bound,
    zsigmondy_set,
)

F = Fraction
CUBIC = X2DivisiblePoly.parse("x^3+x^2")
SQUARE = X2DivisiblePoly.parse("x^2")


def _primes_of(n):
    return set(sympy.primefactors(n))


# ---------------------------------------------------------------- primitive divisors

def test_primitive_prime_exists_frozen():
    sq = zsigmondy_set(iterate(SQUARE, 1, horizon=5)).verdicts
    assert (sq[3].has_primitive, sq[3].witness_prime) == (True, 13)
    assert (sq[0].has_primitive, sq[0].witness_prime) == (False, None)
    cu = zsigmondy_set(iterate(CUBIC, 1, horizon=4)).verdicts
    assert (cu[3].has_primitive, cu[3].witness_prime) == (True, 17341)


def test_zsigmondy_set_frozen():
    report = zsigmondy_set(iterate(SQUARE, 1, horizon=5))
    assert report.zset == (1,)
    report = zsigmondy_set(iterate(CUBIC, 1, horizon=4))
    assert report.zset == (1,)


def test_zsigmondy_against_factorization_oracle():
    """Brute factor-everything oracle agrees on the factorable orbit prefix."""
    rng = random.Random(303)
    polys = [SQUARE, CUBIC, X2DivisiblePoly.parse("2*x^3+x^2")]
    checked = 0
    while checked < 25:
        g = rng.choice(polys)
        c = F(rng.randrange(-8, 9), rng.randrange(1, 5))
        if c == 0:
            continue
        orbit = iterate(g, c, horizon=6, bit_cap=4000)
        values = [F(e.num, e.den) for e in orbit.entries]
        # keep the prefix sympy can factor quickly
        while values and abs(values[-1].numerator) > 10**15:
            values.pop()
        nums = [abs(v.numerator) for v in values]
        if len(nums) < 3 or any(v == 0 for v in nums):
            continue
        seen: set = set()
        expected = []
        for i, v in enumerate(nums, start=1):
            new = _primes_of(v) - seen
            if not new:
                expected.append(i)
            seen |= _primes_of(v)
        assert list(zsigmondy_of_values(values)) == expected, (str(g), c)
        checked += 1


def test_all_units_orbit_has_full_zset():
    orbit = iterate(X2DivisiblePoly.parse("-x^3+x^2"), -1, horizon=5)
    report = zsigmondy_set(orbit)
    assert report.zset == (1, 2, 3, 4, 5)
    assert all(status is KriegerStatus.HOLDS for _, status in report.krieger_checks)
    assert report.rin_failures == (1, 2, 3, 4, 5)


def test_zsigmondy_refuses_zero_numerators():
    orbit = iterate(SQUARE, -2, horizon=4)  # hits 2, 2, 2 ... fine
    zsigmondy_set(orbit)
    dead = iterate(SQUARE, 0, horizon=3)
    with pytest.raises(ValueError):
        zsigmondy_set(dead)
    late = iterate(SQUARE, -1, horizon=3)  # -1, 0, -1
    with pytest.raises(ValueError, match="^value at index 2 is zero; orbit is preperiodic$"):
        zsigmondy_set(late)


def _all_pairs_residues(orbit):
    nums = [abs(e.num) for e in orbit.entries]
    return [_strip_index(nums, n) for n in range(1, len(nums) + 1)]


@st.composite
def _poly_and_param(draw):
    """Degree 2-5 model polynomial with 2, 3 in the lead and 2, 3, 5 in den(c)."""
    middle = draw(st.lists(st.integers(-4, 4), min_size=0, max_size=3))
    unit = draw(st.sampled_from([1, -1, 5, -7]))
    lead_powers = draw(st.tuples(st.integers(0, 3), st.integers(0, 2)))
    c_num = draw(st.integers(-40, 40).filter(bool))
    den_powers = draw(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 1)))
    lead = unit * 2 ** lead_powers[0] * 3 ** lead_powers[1]
    g = X2DivisiblePoly.from_coeffs([0, 0, *middle, lead])
    c = F(c_num, 2 ** den_powers[0] * 3 ** den_powers[1] * 5 ** den_powers[2])
    return g, c


@settings(max_examples=80, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 7))
def test_rigid_strip_matches_all_pairs(g_c, horizon):
    """Stripping against N_(n/q) plus the den(c) pass leaves the all-pairs residues,
    and the Krieger statuses built on read match ones recomputed from the entries."""
    orbit = iterate(*g_c, horizon=horizon, bit_cap=50_000)
    assume(all(e.num != 0 for e in orbit.entries))
    report = zsigmondy_set(orbit)
    residues = _all_pairs_residues(orbit)
    assert [v.residue for v in report.verdicts] == residues
    assert report.verdicts is report.verdicts
    nums = [abs(e.num) for e in orbit.entries]
    expected = []
    for n, residue in enumerate(residues, start=1):
        prod = math.prod(nums[n // q - 1] for q in _primes_of(n))
        if residue > 1:
            expected.append((n, KriegerStatus.VACUOUS))
        else:
            divides = prod % nums[n - 1] == 0
            expected.append((n, KriegerStatus.HOLDS if divides else KriegerStatus.FAILS))
    assert report.krieger_checks == tuple(expected)


@settings(max_examples=60, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 7), data=st.data())
def test_window_prefix_invariance(g_c, horizon, data):
    """The report of a k-entry orbit is the first k rows of a longer orbit's report."""
    k = data.draw(st.integers(1, horizon))
    orbit = iterate(*g_c, horizon=horizon, bit_cap=50_000)
    assume(all(e.num != 0 for e in orbit.entries))
    full = zsigmondy_set(orbit)
    short = zsigmondy_set(iterate(*g_c, horizon=k, bit_cap=50_000))
    k = min(k, len(orbit.entries))  # both orbits stop at the same capped entry
    assert len(short.verdicts) == k
    assert [v.residue for v in short.verdicts] == [v.residue for v in full.verdicts[:k]]
    assert short.krieger_checks == full.krieger_checks[:k]
    assert short.rin_failures == tuple(n for n in full.rin_failures if n <= k)
    assert short.zset == tuple(n for n in full.zset if n <= k)


@settings(max_examples=80, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 9), bit_cap=st.sampled_from([8, 64, 10**4]))
@example(g_c=(SQUARE, F(-2)), horizon=9, bit_cap=8)  # fixed point 2
@example(g_c=(SQUARE, F(-1)), horizon=9, bit_cap=8)  # -1, 0, -1, ...
@example(g_c=(CUBIC, F(-1)), horizon=2, bit_cap=64)
# entry 2 passes the 8-bit cap and the escape verdict comes at n = 3
@example(g_c=(X2DivisiblePoly.parse("180*x^3+x^2"), F(13, 60)), horizon=9, bit_cap=8)
def test_one_walk_gives_window_and_verdict(g_c, horizon, bit_cap):
    """iterate's window is the plain-Fraction orbit up to its first entry past the cap,
    and its decision is decide_membership's and, when finite, the brute-force one."""
    g, c = g_c
    orbit = iterate(g, c, horizon=horizon, bit_cap=bit_cap)
    plain = oracle_module.iterate_rational(g, c, 0, len(orbit.entries))[1:]
    assert [e.value for e in orbit.entries] == plain
    past = [n for n, v in enumerate(plain, start=1)
            if max(v.numerator.bit_length(), v.denominator.bit_length()) > bit_cap]
    assert past in ([], [len(plain)])
    assert orbit.capped_at == (past[0] if past else None)
    assert past or len(plain) == horizon
    decision = orbit.decision
    assert decision == decide_membership(g, c)
    if decision.verdict is Verdict.FINITE_ORBIT:
        assert oracle_module.brute_force_verdict(g, c) == ("finite", decision.tail,
                                                           decision.cycle)


def test_rigid_strip_needs_the_den_pass():
    """A prime of den(c) can divide N_5 and N_8 (5 does not divide 8): only the
    den(c) pass removes it, since it divides neither N_4 nor N_1."""
    for text, c in (("2*x^3+x^2", F(3, 2)), ("6*x^3+3*x^2", F(-5, 2))):
        orbit = iterate(X2DivisiblePoly.parse(text), c, horizon=8)
        nums = [abs(e.num) for e in orbit.entries]
        assert nums[7] % 2 == 0 and nums[3] % 2 != 0
        assert any(a % 2 == 0 for a in nums[:7])
        residues = [v.residue for v in zsigmondy_set(orbit).verdicts]
        assert residues == _all_pairs_residues(orbit)
        assert residues[7] % 2 != 0


# the two parameters of test_rigid_strip_needs_the_den_pass, at horizon 9
_DEN_PASS_CASES = ((X2DivisiblePoly.parse("2*x^3+x^2"), F(3, 2)),
                   (X2DivisiblePoly.parse("6*x^3+3*x^2"), F(-5, 2)))


@settings(max_examples=80, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 9))
@example(g_c=_DEN_PASS_CASES[0], horizon=9)
@example(g_c=_DEN_PASS_CASES[1], horizon=9)
def test_size_decided_zset_matches_all_pairs(g_c, horizon):
    """zset, decided by comparing |N_n| without its seen den(c) primes with the
    product of the N_(n/q), holds exactly the indices the all-pairs strip leaves at 1."""
    orbit = iterate(*g_c, horizon=horizon, bit_cap=50_000)
    assume(all(e.num != 0 for e in orbit.entries))
    all_pairs = primitive_divisor_verdicts(e.num for e in orbit.entries)
    assert zsigmondy_set(orbit).zset == tuple(v.n for v in all_pairs if v.residue == 1)


def test_a_report_walks_its_orbit_once(monkeypatch):
    """Building a report and reading its verdicts and Krieger statuses looks up the
    index primes once: the views read the columns the deciding walk kept."""
    lookups = []
    index_primes = zsigmondy_module._index_primes

    def counted(n_max):
        lookups.append(n_max)
        return index_primes(n_max)

    monkeypatch.setattr(zsigmondy_module, "_index_primes", counted)
    for g, c in ((CUBIC, F(-5, 3)), *_DEN_PASS_CASES):
        lookups.clear()
        report = zsigmondy_set(iterate(g, c, horizon=8))
        assert len(report.verdicts) == len(report.krieger_checks) == 8
        assert lookups == [8], (str(g), c)


@settings(max_examples=80, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 9))
@example(g_c=(CUBIC, F(-5, 3)), horizon=9)
def test_primes_deep_at_index_one_divide_no_numerator(g_c, horizon):
    """A den(c) prime deep at index 1 stays deep and divides no numerator of the
    orbit, which is why zsigmondy_set does not track it."""
    orbit = iterate(*g_c, horizon=horizon, bit_cap=50_000)
    deep = orbit.entries[0].deep_valuations
    assert set(deep) <= set(orbit.den_prime_support)
    for e in orbit.entries:
        for p in deep:
            assert p in e.deep_valuations and e.den % p == 0 and e.num % p != 0, (e.n, p)


def _without_primes(m, primes):
    for p in primes:
        while m % p == 0:
            m //= p
    return m


@settings(max_examples=80, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 9))
@example(g_c=_DEN_PASS_CASES[0], horizon=9)
@example(g_c=_DEN_PASS_CASES[1], horizon=9)
def test_mobius_residues_match_rigid_residues(g_c, horizon):
    """Möbius inversion of the den(c)-free numerators gives an integer at every index,
    the residue without its den(c) primes: the strong form of rigid divisibility at
    every prime outside den(c), not only those below 100."""
    orbit = iterate(*g_c, horizon=horizon, bit_cap=50_000)
    assume(all(e.num != 0 for e in orbit.entries))
    support = orbit.den_prime_support
    quotients = mobius_residues([e.num for e in orbit.entries], support)
    assert [q.denominator for q in quotients] == [1] * len(orbit.entries)
    residues = [v.residue for v in zsigmondy_set(orbit).verdicts]
    assert quotients == tuple(_without_primes(r, support) for r in residues)


def test_survey_scan_strips_only_zsigmondy_indices(monkeypatch):
    """The size test leaves a strip only where the residue turns out to be 1:
    11 and 12 strips on the survey grids, where stripping every index took 2448."""
    results = []
    strip = zsigmondy_module.strip_common_primes

    def counted(r, s):
        results.append(strip(r, s))
        return results[-1]

    monkeypatch.setattr(zsigmondy_module, "strip_common_primes", counted)
    for text, want in (("x^3+x^2", 11), ("2*x^3+x^2", 12)):
        results.clear()
        summary = run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=8))
        assert results == [1] * want, text
        assert sum(len(row.zset or ()) for row in summary.rows) == want, text


def _exact_scan_cells(g, c, horizon, bit_cap):
    """verdict, witness, zset, rin_failures and capped_at from iterate and zsigmondy_set."""
    orbit = iterate(g, c, horizon=horizon, bit_cap=bit_cap)
    decision = orbit.decision
    head = (decision.verdict.value, decision.witness_text())
    if decision.verdict is Verdict.FINITE_ORBIT:
        return (*head, None, None, None)
    report = zsigmondy_set(orbit)
    return (*head, report.zset, report.rin_failures, orbit.capped_at)


# a fixed cap, or (n, delta, side): delta plus the bit length of N_n (side 0) or M_n (side
# 1), read off the exact orbit, where _settle's cap rules decide
_CAPS = st.one_of(st.sampled_from([8, 64, 10**4]),
                  st.tuples(st.integers(1, 10), st.integers(-2, 2), st.integers(0, 1)))


def _check_scan_row(g_c, horizon, bit_cap):
    """_scan_one's row has the cells of iterate and zsigmondy_set, under bit_cap itself or
    under the cap a _CAPS triple names on the exact orbit to horizon."""
    g, c = g_c
    if isinstance(bit_cap, tuple):
        n, delta, side = bit_cap
        entries = iterate(g, c, horizon=horizon, bit_cap=10**5).entries
        entry = entries[min(n, len(entries)) - 1]
        bit_cap = max(1, (entry.den if side else abs(entry.num)).bit_length() + delta)
    row = _scan_one((g, c, horizon, bit_cap))
    cells = (row.verdict, row.witness, row.zset, row.rin_failures, row.capped_at)
    assert cells == _exact_scan_cells(g, c, horizon, bit_cap)


@st.composite
def _shallow_poly_and_param(draw):
    """A degree 3-4 model polynomial and c with a shallow den(c) prime: 0 < val_p(den(c))
    <= val_p(u_d) for p = 2 or 3, and den(c) may carry one more prime of 2, 3 and 5.
    val_p(u_(d-1)) = val_p(u_d) - val_p(den(c)) mostly keeps p shallow past 64 bits."""
    p = draw(st.sampled_from([2, 3]))
    lead_val = draw(st.integers(1, 2))
    b = draw(st.integers(1, lead_val))
    other = draw(st.sampled_from([1, 5, 6 // p]))
    lower = draw(st.lists(st.integers(-4, 4), max_size=1))
    below = p ** (lead_val - b) * draw(st.sampled_from([1, -1, 2, -2, 5]).filter(lambda s: s % p))
    unit = draw(st.sampled_from([1, -1, 5, -7]))
    c_num = draw(st.integers(-40, 40).filter(lambda a: a % p and a % other))
    g = X2DivisiblePoly.from_coeffs([0, 0, *lower, below, unit * p**lead_val])
    return g, F(c_num, p**b * other)


@settings(max_examples=100, deadline=None)
@given(g_c=_shallow_poly_and_param(), horizon=st.integers(5, 10),
       bit_cap=st.one_of(st.just(10**4), st.tuples(st.integers(5, 10), st.integers(-2, 2),
                                                    st.integers(0, 1))))
# the cap is bitlen|N_8| = 6812, the 64-bit bounds on M_8 straddle it, and M_8 has 6813 bits
@example(g_c=(X2DivisiblePoly.parse("3*x^3+5*x^2"), F(1, 15)), horizon=8, bit_cap=(8, 0, 0))
def test_shallow_scan_row_is_the_exact_row(g_c, horizon, bit_cap):
    """Rows with a den(c) prime that is shallow at index 1, so that their tail may
    start while it is still shallow and read it off residues, give the cells that
    iterate and zsigmondy_set give."""
    _check_scan_row(g_c, horizon, bit_cap)


@settings(max_examples=100, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(1, 10), bit_cap=_CAPS)
@example(g_c=(CUBIC, F(1, 6)), horizon=10, bit_cap=10**4)  # capped at n = 9, past the prefix
@example(g_c=(CUBIC, F(7)), horizon=10, bit_cap=10**4)  # integer c: den(c) = 1
@example(g_c=(CUBIC, F(-1)), horizon=10, bit_cap=64)  # finite: the row ends at the verdict
@example(g_c=(X2DivisiblePoly.parse("2*x^3+x^2"), F(1, 2)), horizon=10, bit_cap=10**4)  # shallow
# 3 | den(c) is shallow at index 1 and deep from entry 3, 2 or 2, before the tail starts
# at the first entry past 64 bits (6, 5 or 4)
@example(g_c=(X2DivisiblePoly.parse("3*x^3+2*x^2"), F(1, 3)), horizon=10, bit_cap=10**4)
@example(g_c=(X2DivisiblePoly.parse("3*x^3+2*x^2"), F(-1, 3)), horizon=10, bit_cap=10**4)
@example(g_c=(X2DivisiblePoly.parse("3*x^3+2*x^2"), F(5, 3)), horizon=10, bit_cap=10**4)
# 2 | den(c) is shallow at index 1 while 3 and 5 are deep: the tail reads 2 off residues
@example(g_c=(X2DivisiblePoly.parse("4*x^3"), F(1, 90)), horizon=6, bit_cap=1000)
@example(g_c=(X2DivisiblePoly.parse("4*x^3"), F(1, 90)), horizon=9, bit_cap=1000)
# 2 | den(c) is shallow at index 1: a tail that takes it for deep misses the cap at 9
@example(g_c=(X2DivisiblePoly.parse("2*x^3+x^2"), F(-1, 6)), horizon=9, bit_cap=10**4)
@example(g_c=(X2DivisiblePoly.parse("6*x^3+x^2"), F(1, 10)), horizon=9, bit_cap=10**4)
# |N_8| lies below the cap while the 64-bit bounds on M_8 straddle it, and M_8 has
# more bits than the cap: the index stays open until the 128-bit rung caps it at 8
@example(g_c=(X2DivisiblePoly.parse("3*x^3+2*x^2"), F(-8, 15)), horizon=8, bit_cap=6812)
# the 2 of den(c) is shallow at the handoff at 4 and its residue runs out of digits a step
# later, so the marks stop there: a ledger that went on by the deep recursion would read
# val_2(M_6) = 4, not 0, and cap the row at 6 under bitlen|N_6| + 1
@example(g_c=(X2DivisiblePoly.parse("4*x^3+x^2"), F(-19, 12)), horizon=6, bit_cap=782)
def test_scan_row_is_the_exact_row(g_c, horizon, bit_cap):
    """The one scan row builder, which reads the window off enclosures from the
    first entry past 64 bits and off its own exact walk before that, gives the cells
    that iterate and zsigmondy_set give."""
    _check_scan_row(g_c, horizon, bit_cap)


def _check_escape_bits(g, c, values):
    """_escape_bits at values[0] gives bounds exactly when |values[0]| >= escape_radius(g, c),
    and then 2^lo < |values[i]| < 2^hi at each i > 0, compared as exact rationals."""
    bits = _escape_bits(g, escape_radius(g, c), values[0].numerator, values[0].denominator)
    assert (bits is not None) == (abs(values[0]) >= escape_radius(g, c))
    for (lo, hi), v in zip(bits or (), values[1:]):
        assert F(2) ** lo < abs(v) < F(2) ** hi


@settings(max_examples=100, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(2, 9))
@example(g_c=(CUBIC, F(7)), horizon=9)  # escapes at entry 2, the scan's fallback example
def test_escape_bits_bound_every_later_entry(g_c, horizon):
    """The whole-bit growth bounds the scan decides escaped tails from hold at every
    exact entry of an infinite orbit and at each later index of its window, and the
    escape-growth lemma holds on the same orbit."""
    g, c = g_c
    orbit = iterate(g, c, horizon=horizon, bit_cap=50_000)
    assume(orbit.decision.verdict is not Verdict.FINITE_ORBIT)
    values = [e.value for e in orbit.entries]
    for i in range(len(values)):
        _check_escape_bits(g, c, values[i:])
    assert check_escape_growth(orbit) == []


@settings(max_examples=100, deadline=None)
@given(g_c=_poly_and_param(), start=st.fractions(-2**12, 2**12, max_denominator=2**8),
       steps=st.integers(1, 3))
@example(g_c=(SQUARE, F(-1000)), start=F(32), steps=1)  # 4 L <= |v| < |c|: g(v) + c = 24
@example(g_c=(SQUARE, F(1)), start=F(2), steps=1)  # 2 L <= |v| < 4 L: inside the radius
@example(g_c=(SQUARE, F(-8)), start=F(257, 31), steps=1)  # just past 2^lo: v^2 + c < 2^(2 lo)
def test_escape_bits_hold_from_any_start(g_c, start, steps):
    """The growth bound is a statement about g + c from any value past the escape
    radius, not only from the critical orbit's: checked against exact steps."""
    g, c = g_c
    values = [start]
    for _ in range(steps):
        values.append(g(values[-1]) + c)
    _check_escape_bits(g, c, values)


@settings(max_examples=80, deadline=None)
@given(g_c=_poly_and_param(), horizon=st.integers(2, 9))
def test_prime_power_residue_is_the_quotient(g_c, horizon):
    """At a prime-power index n = q^k of an all-deep infinite orbit, N_(n/q) divides
    N_n and the residue is their quotient: by rigid divisibility the earlier primes
    of N_n are those of N_(n/q), at the same valuations."""
    orbit = iterate(*g_c, horizon=horizon, bit_cap=50_000)
    assume(orbit.decision.verdict is not Verdict.FINITE_ORBIT)
    assume(set(orbit.den_prime_support) <= set(orbit.entries[0].deep_valuations))
    report = zsigmondy_set(orbit)
    for n in range(2, len(orbit) + 1):
        if len(primes := _primes_of(n)) == 1:
            quotient, rest = divmod(report.nums[n - 1], report.nums[n // primes.pop() - 1])
            assert rest == 0
            assert report.verdicts[n - 1].residue == quotient


def test_size_test_is_audited_on_a_fabricated_window():
    """[2, 4, 3] is not rigidly divisible: 4 > N_1 = 2 keeps index 2 out of zset
    though its residue is 1, and Krieger's check, run on the residues, says FAILS."""
    fake = replace(iterate(CUBIC, 2, horizon=1), entries=tuple(
        OrbitEntry(n, num, 1, {}) for n, num in enumerate([2, 4, 3], start=1)))
    report = zsigmondy_set(fake)
    assert report.zset == ()
    assert report.verdicts[1].residue == 1
    assert report.krieger_checks[1] == (2, KriegerStatus.FAILS)
    # 2 a prime of den(c) that divides N_2 and N_3 but not N_1, as 2 does N_5 and N_8
    # of 2*x^3+x^2 at c = 3/2: N_3 = 12 > N_1 = 3, but 12 without the 2 seen at N_2
    # is 3 <= 3, and only the strip against N_1 * 2 leaves 1
    fake = replace(fake, den_prime_support=(2,), entries=tuple(
        OrbitEntry(n, num, 1, {}) for n, num in enumerate([3, 2, 12], start=1)))
    assert zsigmondy_set(fake).zset == (3,) == zsigmondy_of_values([3, 2, 12])


def test_orbit_routines_never_strip_all_pairs(monkeypatch):
    """zsigmondy_set's verdicts and Krieger checks come from the rigid strip."""
    orbits = [iterate(CUBIC, c, horizon=8) for c in (3, F(-5, 3), F(1, 6))]
    orbits.append(iterate(X2DivisiblePoly.parse("2*x^3+x^2"), F(3, 2), horizon=8))
    expected = [_all_pairs_residues(o) for o in orbits]

    def refuse(*args):
        raise RuntimeError("all-pairs strip on an orbit")

    monkeypatch.setattr(oracle_module, "_strip_index", refuse)
    for orbit, residues in zip(orbits, expected):
        report = zsigmondy_set(orbit)
        assert [v.residue for v in report.verdicts] == residues
        for n, residue in enumerate(residues, start=1):
            assert report.verdicts[n - 1].has_primitive == (residue > 1)
            vacuous = report.krieger_checks[n - 1] == (n, KriegerStatus.VACUOUS)
            assert vacuous == (residue > 1)
    with pytest.raises(RuntimeError, match="all-pairs"):
        primitive_divisor_verdicts([2, 3])


def test_witness_primes_are_really_primitive():
    rng = random.Random(404)
    checked = named = 0
    while checked < 20:
        c = F(rng.randrange(-9, 10), rng.randrange(1, 6))
        if c == 0:
            continue
        orbit = iterate(CUBIC, c, horizon=5, bit_cap=3000)
        nums = [abs(e.num) for e in orbit.entries]
        if any(v == 0 for v in nums):
            continue
        for verdict in primitive_divisor_verdicts(
            [F(e.num, e.den) for e in orbit.entries]
        ):
            if verdict.witness_prime is None:
                continue
            named += 1
            p = verdict.witness_prime
            assert nums[verdict.n - 1] % p == 0
            for k in range(verdict.n - 1):
                assert nums[k] % p != 0
        checked += 1
    assert named > 0, "no witness was named, so nothing was checked"


# ---------------------------------------------------------------- rin + krieger

def test_rin_inequality_frozen():
    sq = zsigmondy_set(iterate(SQUARE, 1, horizon=5)).rin_failures
    assert 4 not in sq  # 26 > N_2 = 2
    assert 1 in sq      # 1 > 1 fails
    cu = zsigmondy_set(iterate(CUBIC, 1, horizon=4)).rin_failures
    assert 2 not in cu  # 3 > 1


def test_rin_matches_direct_product():
    rng = random.Random(31)
    for _ in range(30):
        c = F(rng.randrange(1, 15), rng.randrange(1, 4))
        orbit = iterate(CUBIC, c, horizon=8, bit_cap=40000)
        nums = [abs(e.num) for e in orbit.entries]
        if any(v == 0 for v in nums):
            continue
        rin_failures = zsigmondy_set(orbit).rin_failures
        for n in range(1, len(nums) + 1):
            prod = 1
            for p in sympy.primefactors(n):
                prod *= nums[n // p - 1]
            assert (n not in rin_failures) == (nums[n - 1] > prod)
    # fabricated 40-entry windows reach three index primes (n = 30) and a prime power (32)
    orbit = iterate(CUBIC, 2, horizon=1)  # integer c: no den(c) primes to carry
    rng = random.Random(40)
    outcomes = set()
    for _ in range(20):
        nums = [rng.randint(2, 4 ** rng.randint(1, n)) for n in range(1, 41)]
        fake = replace(orbit, entries=tuple(
            OrbitEntry(n, num, 1, {}) for n, num in enumerate(nums, start=1)))
        rin_failures = zsigmondy_set(fake).rin_failures
        for n in range(1, 41):
            prod = math.prod(nums[n // p - 1] for p in sympy.primefactors(n))
            assert (n in rin_failures) == (nums[n - 1] <= prod), n
        outcomes |= {(n, n in rin_failures) for n in (30, 32)}
    assert outcomes == {(30, True), (30, False), (32, True), (32, False)}


def test_index_prime_table_matches_sympy():
    """Every window length's table lists the primes of each of its indices."""
    expected = [tuple(sympy.primefactors(n)) for n in range(1, 301)]
    for n_max in range(1, 301):
        assert zsigmondy_module._index_primes(n_max) == tuple(expected[:n_max]), n_max


def test_krieger_divisibility_frozen():
    sq = zsigmondy_set(iterate(SQUARE, 1, horizon=5)).krieger_checks
    assert sq[0] == (1, KriegerStatus.HOLDS)
    assert sq[3] == (4, KriegerStatus.VACUOUS)
    cu = zsigmondy_set(iterate(CUBIC, 1, horizon=4)).krieger_checks
    assert cu[0] == (1, KriegerStatus.HOLDS)
    # no orbit drawn so far fails; a fabricated window does: N_2 = 4 has no prime
    # that N_1 = 2 lacks, yet does not divide it
    fake = replace(iterate(CUBIC, 2, horizon=1), entries=tuple(
        OrbitEntry(n, num, 1, {}) for n, num in enumerate([2, 4, 3], start=1)))
    assert zsigmondy_set(fake).krieger_checks == (
        (1, KriegerStatus.VACUOUS), (2, KriegerStatus.FAILS), (3, KriegerStatus.VACUOUS))


def test_zset_implies_rin_failure():
    """No primitive divisor forces divisibility, which kills the inequality."""
    rng = random.Random(88)
    seen_nonempty = 0
    while seen_nonempty < 12:
        c = F(rng.randrange(-12, 13), rng.randrange(1, 6))
        if c == 0:
            continue
        orbit = iterate(SQUARE, c, horizon=8, bit_cap=5000)
        if any(e.num == 0 for e in orbit.entries):
            continue
        report = zsigmondy_set(orbit)
        if report.zset:
            seen_nonempty += 1
        for n in report.zset:
            assert n in report.rin_failures
            assert report.krieger_checks[n - 1] == (n, KriegerStatus.HOLDS)


# ---------------------------------------------------------------- excess parts

def test_ideal_set_frozen():
    assert excess_primes(12, 2) == (frozenset({2, 3}), 12)
    assert excess_primes(2, 2) == (frozenset(), 1)
    assert excess_primes(8, 2) == (frozenset({2}), 8)
    with pytest.raises(ValueError):
        excess_primes(0, 2)


def test_excess_primes_definition_random():
    rng = random.Random(9)
    for _ in range(200):
        a = rng.randrange(1, 10**6)
        lead = rng.randrange(1, 400)
        primes, h = excess_primes(a, lead)
        for p in _primes_of(a) | _primes_of(lead):
            va = sympy.multiplicity(p, a) if a % p == 0 else 0
            vl = sympy.multiplicity(p, lead) if lead % p == 0 else 0
            assert (p in primes) == (va > vl)
            if p in primes:
                assert h % p**va == 0 and h % p ** (va + 1) != 0
        assert excess_bound_ok(a, lead)


# ---------------------------------------------------------------- index lemmas

def test_power_sum_domination_against_literal():
    for d in (2, 3, 5):
        for n in range(30, 320):
            literal = sum(d ** (n // p) for p in sympy.primefactors(n)) ** 5 <= d ** (3 * n)
            assert power_sum_dominated(d, n) == literal, (d, n)


def test_power_sum_domination_holds_from_thirty():
    # the lemma: for every d >= 2 and n >= 30 the fifth power fits
    for d in (2, 3, 4, 7, 10):
        for n in range(30, 2000):
            assert power_sum_dominated(d, n), (d, n)


def test_evertse_bound_frozen():
    assert evertse_bound(1, F(1, 10)) == pytest.approx(90562246551.29185838852762, rel=1e-12)
    assert evertse_bound(2187, F(1, 10)) == pytest.approx(4004038152653.899089341588, rel=1e-12)


def test_evertse_bound_formula_and_domain():
    rng = random.Random(6)
    for _ in range(50):
        r = rng.randrange(1, 10**9)
        delta = F(rng.randrange(1, 99), 100)
        with mpmath.workprec(120):
            d_mp = mpmath.mpf(delta.numerator) / delta.denominator
            want = float(2e7 / d_mp**4
                         * mpmath.log(4 * r) * mpmath.log(mpmath.log(4 * r)))
        assert evertse_bound(r, delta) == pytest.approx(want, rel=1e-11)
    for bad in (0, 1, -2):
        with pytest.raises(ValueError):
            evertse_bound(5, bad)
    # delta is read exactly: 1 - 10^-20 is inside (0, 1), and 10^-70 still fits a float
    for delta in (1 - F(1, 10**20), F(1, 10**70)):
        with mpmath.workprec(120):
            d_mp = mpmath.mpf(delta.numerator) / delta.denominator
            want = float(2e7 / d_mp**4 * mpmath.log(20) * mpmath.log(mpmath.log(20)))
        assert evertse_bound(5, delta) == pytest.approx(want, rel=1e-11)
    for tiny in (F(1, 10**77), F(1, 10**100)):
        with pytest.raises(OverflowError, match="delta"):
            evertse_bound(5, tiny)


def test_bound_N0_frozen_and_defining_inequality():
    expected = {2: 5, 3: 7, 4: 9, 5: 11, 10: 22, 64: 141}
    for d, n0 in expected.items():
        assert index_bound_n0(d) == n0
    for d in range(2, 65):
        n0 = index_bound_n0(d)
        assert 9 * (d - 1) ** (n0 - 1) <= d ** (n0 - 1)
        # minimal: one step earlier the inequality fails
        assert 9 * (d - 1) ** (n0 - 2) > d ** (n0 - 2)


def test_bound_N1_frozen():
    assert index_bound_n1(3) == 12
    assert index_bound_n1(2) == 12
    for d in range(2, 30):
        k = index_bound_n1(d) - index_bound_n0(d)
        assert d**k >= 120 and d ** (k - 1) < 120


def test_bound_N2_definition():
    for d, lead, D in [(3, 1, 4), (2, 1, 2), (3, 2, 7), (5, 6, 11)]:
        m = lead * lead * D + 1
        k = index_bound_n2(d, lead, D) - 2 * index_bound_n0(d)
        target = math.log2(m) ** 3
        assert d**k >= target and (k == 0 or d ** (k - 1) < target)
    assert index_bound_n2(3, 1, 4) == 17


def test_bound_N2_exact_near_powers_of_two():
    # 60 < log2(2^60 + 1) < 61 and 60^3 < 61^3 < 60^4, so k = 4; the float
    # log2(2^60 + 1) rounds to 60.0, whose cube ties d^3
    assert index_bound_n2(60, 1, 2**60) - 2 * index_bound_n0(60) == 4
    # exact oracle: L = bitlen(m) - 1 <= log2 m < L + 1, equal only for m = 2^L,
    # so k is pinned whenever the least d^k past L^3 also reaches (L + 1)^3
    checked = 0
    for d in range(2, 40):
        for a in (1, 2, 3):
            for e in (d**a - 1, d**a, d**a + 1):
                for m in (2**e - 1, 2**e, 2**e + 1):
                    if m < 2:
                        continue
                    L = m.bit_length() - 1
                    power = m == 1 << L
                    k = 0
                    while d**k < L**3 or (d**k == L**3 and not power):
                        k += 1
                    if not power and d**k < (L + 1) ** 3:
                        continue
                    assert index_bound_n2(d, 1, m - 1) - 2 * index_bound_n0(d) == k, (d, m)
                    checked += 1
    assert checked > 100


def test_root_bound_frozen():
    assert root_bound(CUBIC, 2, 1) == 4
    assert root_bound(X2DivisiblePoly.parse("x^3"), 1, 1) == 2
    assert root_bound(CUBIC, 2, 2) == 7
    assert root_bound(CUBIC, 2, 3) == 10
    # monotone in depth
    prev = 0
    for depth in range(1, 7):
        cur = root_bound(CUBIC, 2, depth)
        assert cur >= prev
        prev = cur


def test_root_bound_actually_bounds_preimages():
    """Every rational root of g(x) + c = v with |c| <= L, |v| below the
    previous level bound must land strictly inside D."""
    x = sympy.Symbol("x")
    rng = random.Random(12)
    for g_text, L in [("x^3+x^2", 2), ("x^3", 1), ("2*x^3+x^2", 2)]:
        g = X2DivisiblePoly.parse(g_text)
        D1 = root_bound(g, L, 1)
        D2 = root_bound(g, L, 2)
        gx = sum(co * x**i for i, co in enumerate(g.coeffs))
        for _ in range(25):
            c = F(rng.randrange(-L * 4, L * 4 + 1), rng.randrange(1, 4))
            if abs(c) > L:
                continue
            v = F(rng.randrange(-D1 * 2, D1 * 2 + 1), rng.randrange(1, 3))
            eq = sympy.Eq(gx + sympy.Rational(c.numerator, c.denominator),
                          sympy.Rational(v.numerator, v.denominator))
            for r in sympy.solve(eq, x):
                if r.is_real:
                    bound = D1 if abs(v) <= 1 else D2
                    if abs(v) <= D1:
                        assert abs(float(r)) < D2


# ---------------------------------------------------------------- growth thresholds

def test_threshold_solver_frozen():
    assert growth_threshold(3, 2, 4) == 30
    assert growth_threshold(2, 2**2000, 2) == 32
    assert growth_threshold(2, 10**1000, 2) == 34
    assert growth_threshold(2, 2**1364, 2) == 30
    assert growth_threshold(2, 2**1365, 2) == 31
    assert growth_threshold(2, 2**1366, 2) == 31
    assert growth_threshold(2, 2**2729, 2) == 33
    assert growth_threshold(2, 2**2731, 2) == 33
    # (alpha beta)^3 == beta^4096: both sides equal 2^60 at n = 30, a tie
    assert growth_threshold(2, 2**4093, 8) == 31
    # beta near 1 makes m huge; its power is ruled out by bit length unbuilt
    assert growth_threshold(2, 10**6, 1 + F(1, 10**5)) == 55
    # beta - 1 below one float ulp: the logs come from the exact difference
    # (these hung at k = 20, 30 and raised ZeroDivisionError at k = 400)
    for k, want in ((20, 169), (30, 252), (300, 2495), (400, 3325)):
        assert growth_threshold(2, 2, 1 + F(1, 10**k)) == want, k


def test_threshold_solver_is_least_solution():
    """Output is the least n >= 30 making (d^n/3 - d^0.6n) ln b > d^0.6n ln a."""
    def holds(d, n, a_ln, b_ln):
        with mpmath.workprec(200):
            lhs = (mpmath.mpf(d) ** n / 3 - mpmath.mpf(d) ** (F(3, 5) * n)) * b_ln
            rhs = mpmath.mpf(d) ** (F(3, 5) * n) * a_ln
            return lhs > rhs

    cases = [(3, 2, 4), (2, 2**100, 2), (2, 10**30, 3), (5, 7, 2), (2, 2**1365, 2)]
    for d, alpha, beta in cases:
        with mpmath.workprec(200):
            a_ln = mpmath.log(mpmath.mpmathify(alpha))
            b_ln = mpmath.log(mpmath.mpmathify(beta))
        n = growth_threshold(d, alpha, beta)
        assert holds(d, n, a_ln, b_ln), (d, alpha, beta)
        if n > 30:
            assert not holds(d, n - 1, a_ln, b_ln), (d, alpha, beta)


def test_threshold_solver_monotone_in_alpha():
    values = [growth_threshold(2, 2**k, 2) for k in (1, 600, 1365, 3000, 10000)]
    assert values == sorted(values)
    assert values[0] == 30


def test_threshold_solver_rejects_bad_domain():
    with pytest.raises(ValueError):
        growth_threshold(1, 2, 2)
    with pytest.raises(ValueError):
        growth_threshold(3, 2, 1)
    with pytest.raises(ValueError):
        growth_threshold(3, F(1, 2), 2)


def test_threshold_solver_huge_alpha():
    assert growth_threshold(2, 2 ** (10**6), 2) == 54


# ---------------------------------------------------------------- sandwiches + cross bound

def test_monomial_sandwich_checker():
    for g_text, c in [("x^3", F(1, 5)), ("2*x^4", F(-1, 9)), ("x^2", F(1, 5))]:
        g = X2DivisiblePoly.parse(g_text)
        orbit = iterate(g, c, horizon=6, bit_cap=10**5)
        assert check_monomial_sandwich(orbit) == [], (g_text, c)


def test_monomial_sandwich_preconditions():
    with pytest.raises(ValueError):
        check_monomial_sandwich(iterate(CUBIC, F(1, 5), horizon=3))
    with pytest.raises(ValueError):
        check_monomial_sandwich(iterate(X2DivisiblePoly.parse("x^3"), 2, horizon=3))


def test_monomial_sandwich_reads_integer_pairs(monkeypatch):
    """The envelopes are decided on each entry's num/den: no value is built."""
    def refuse(self):
        raise AssertionError("OrbitEntry.value read")

    monkeypatch.setattr(OrbitEntry, "value", property(refuse))
    for text, c, horizon in (("x^2", F(1, 5), 20), ("x^2", F(-1, 5), 20),
                             ("2*x^3", F(1, 9), 8), ("2*x^3", F(-1, 9), 8)):
        orbit = iterate(X2DivisiblePoly.parse(text), c, horizon=horizon)
        assert check_monomial_sandwich(orbit) == [], (text, c)


def _with_entries(orbit, pairs):
    """orbit with entry n replaced by num/den for each n: (num, den) in pairs."""
    entries = tuple(replace(e, num=pairs[e.n][0], den=pairs[e.n][1]) if e.n in pairs else e
                    for e in orbit.entries)
    return replace(orbit, entries=entries)


def test_monomial_sandwich_reports_fabricated_violations():
    """An entry on an envelope passes and one just past it fails, in each regime."""
    cases = [
        # x^2, c = 1/5: 1/5 <= |v_n| <= 2^(2^(n-1) - 1) / 5, so 128/5 at n = 4
        (SQUARE, F(1, 5), {3: (1, 5), 4: (128, 5)}, {3: (19, 96), 4: (641, 25)},
         "expanding"),
        # 2x^3, c = -1/9 mirrors c = 1/9: 1/9 <= |v_n| <= 3^((3^(n-1) - 1)/2) / 9
        (X2DivisiblePoly.parse("2*x^3"), F(-1, 9), {2: (-1, 9), 3: (-9, 1)},
         {2: (-10, 91), 3: (-82, 9)}, "expanding"),
        # x^2, c = -1/5 contracts: 4/25 <= |v_n| <= 1/5
        (SQUARE, F(-1, 5), {2: (-4, 25), 5: (1, 5)}, {2: (399, 2500), 5: (-201, 1000)},
         "contracting"),
    ]
    for g, c, on_edges, past, regime in cases:
        orbit = iterate(g, c, horizon=6)
        assert check_monomial_sandwich(_with_entries(orbit, on_edges)) == [], (g, c)
        assert check_monomial_sandwich(_with_entries(orbit, past)) == [
            f"{regime} sandwich fails at n={n}" for n in sorted(past)
        ], (g, c)


def test_sandwich_envelopes_by_direct_iteration():
    rng = random.Random(46)
    for _ in range(30):
        d = rng.randrange(2, 5)
        lead = rng.randrange(1, 4)
        g = X2DivisiblePoly.from_coeffs([0] * d + [lead])
        window = F(1, 4 * lead)
        c = F(rng.randrange(1, 50), 50 * 4 * lead)
        if not (0 < c < window):
            continue
        E = lambda n: (d ** (n - 1) - 1) // (d - 1)
        orbit = iterate(g, c, horizon=5, bit_cap=10**5)
        for e in orbit.entries:
            v = abs(F(e.num, e.den))
            assert v >= c
            assert v <= (lead + 1) ** E(e.n) * c


def test_cross_bound_on_synthetic_sequences():
    # geometric ln-growth at rate d matches the lemma's shape
    for d in (2, 3):
        lnv = [0.7 * d**k for k in range(40)]
        assert cross_bound_ok(lnv, d, 5.0, 35)
    # divisor terms past d^(3n/5) * ceiling must be rejected
    flat = [1e7] * 40
    assert not cross_bound_ok(flat, 2, 0.1, 36)
    # numerators of absolute value 1 put nothing on the left
    assert cross_bound_ok([0.0] * 40, 2, 0.1, 36)


def test_check_cross_bound_on_orbits():
    # x^2 - 2 runs -2, 2, 2, ...: bounded values keep every n >= 30 in bounds
    orbit = iterate(SQUARE, -2, horizon=35)
    assert check_cross_bound(orbit) == []
    # N_15 feeds n = 30 (through 30/2); inflating it must break n = 30 only
    e = orbit.entries[14]
    big = replace(e, num=e.num << 800_000)
    tampered = replace(orbit, entries=orbit.entries[:14] + (big,) + orbit.entries[15:])
    assert check_cross_bound(tampered) == ["cross bound fails at n=30"]
    # x^2 - 1 runs -1, 0, -1, ...: ln|N_2| is undefined
    with pytest.raises(ValueError, match="^orbit hits zero; cross bound undefined$"):
        check_cross_bound(iterate(SQUARE, -1, horizon=35))


# ---------------------------------------------------------------- bound report

def test_bound_report_assembly():
    report = bound_report(CUBIC, 2, 1)
    assert report.n0 == 7 and report.n1 == 12
    assert report.root_bound == 4
    assert report.n2 == 17
    assert report.evertse_at_n0 == pytest.approx(4004038152653.899, rel=1e-9)
    assert set(report.region_thresholds) == {"escape", "monomial", "bounded"}
    assert report.max_index_bound() >= max(report.n1, report.n2)


def test_bound_report_defaults_height_to_length():
    report = bound_report(CUBIC)
    assert report.parameter_height == length(CUBIC)
