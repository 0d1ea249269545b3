"""Named end-to-end consistency checks, runnable via the verify subcommand.

Every check is deterministic (seeded RNG where randomness helps) and
returns an empty string on success or a short failure description.  The
suite cross-validates the exact arithmetic against independent routes:
plain-Fraction iteration against the integer-pair recurrence, the
analytic ceilings and floors against computed orbits, divisibility laws
against scan output, and the threshold solver against its defining
inequality.
"""
from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

from .arith import (
    _HELPER_BITS,
    _MUL_BITS,
    _SSA_BITS,
    Record,
    factor_small,
    mul,
    omega,
    prime_quotient_power_sum,
    primes_up_to,
    strip_common_primes,
    val_p,
)
from .enclosure import PRECISIONS
from .harness import ScanConfig, _scan_one, csv_text, grid, run_scan
from .lemmas import (
    check_denominator_lower_bound,
    check_escape_growth,
    check_monomial_sandwich,
    check_upper_bounds,
    check_valuation_recursion,
    cross_bound_ok,
    excess_bound_ok,
    power_sum_dominated,
)
from .oracle import (
    _exact_row,
    brute_force_verdict,
    iterate_rational,
    primitive_divisor_verdicts,
    zsigmondy_of_values,
)
from .orbit import (
    DEFAULT_BIT_CAP,
    OrbitEntry,
    Verdict,
    decide_membership,
    iterate,
)
from .poly import (
    RatPolynomial,
    X2DivisiblePoly,
    critical_points_rational,
    normalize_to_x2_divisible,
)
from .zsigmondy import (
    KriegerStatus,
    growth_threshold,
    index_bound_n0,
    zsigmondy_set,
)


class CheckResult(Record):
    """One check's name and outcome; detail says what failed, "" when it passed."""

    _fields = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


_CHECKS = []


def _check(fn):
    _CHECKS.append(fn)
    return fn


def _random_fraction(rng, num_max, den_max) -> Fraction:
    return Fraction(rng.randint(-num_max, num_max), rng.randint(1, den_max))


def _random_poly(rng, degree) -> X2DivisiblePoly:
    while True:
        coeffs = [0, 0] + [rng.randint(-9, 9) for _ in range(degree - 1)]
        if coeffs[-1] != 0:
            return X2DivisiblePoly(tuple(coeffs))


@_check
def valuation_additivity() -> str:
    if val_p(26, 13) != 1:
        return "val_13(26) != 1"
    rng = random.Random(101)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 13, 101])
        a = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**4))
        if val_p(a * b, p) != val_p(a, p) + val_p(b, p):
            return f"additivity fails for p={p}, a={a}, b={b}"
    return ""


@_check
def omega_under_log2() -> str:
    limit = 20000
    counts = [0] * (limit + 1)
    for p in primes_up_to(limit):
        for m in range(p, limit + 1, p):
            counts[m] += 1
    for n in range(2, limit + 1):
        if 1 << counts[n] > n:
            return f"omega({n}) = {counts[n]} exceeds log2"
    # the factoriser must agree with the count on a seeded sample
    for n in random.Random(102).sample(range(2, limit + 1), 300):
        if omega(n) != counts[n]:
            return f"omega({n}) = {omega(n)}, but {counts[n]} primes divide it"
    if omega(30) != 3:
        return "omega(30) != 3"
    return ""


@_check
def power_sum_fifth_power() -> str:
    for d in (2, 3, 10):
        for n in range(30, 201):
            if prime_quotient_power_sum(d, n) ** 5 > d ** (3 * n):
                return f"literal fifth power fails at d={d}, n={n}"
    rng = random.Random(202)
    sample = [rng.randint(30, 2000) for _ in range(60)]
    for d in (2, 3, 5, 10):
        for n in range(30, 2001):
            if not power_sum_dominated(d, n):
                return f"ladder fails at d={d}, n={n}"
        for n in sample:
            lad = power_sum_dominated(d, n)
            lit = prime_quotient_power_sum(d, n) ** 5 <= d ** (3 * n)
            if lad != lit:
                return f"ladder disagrees with literal at d={d}, n={n}"
    return ""


@_check
def gcd_strip_properties() -> str:
    frozen = [(24, 6, 1), (26, 10, 13), (35, 4, 35)]
    for r, s, want in frozen:
        if strip_common_primes(r, s) != want:
            return f"strip({r},{s}) != {want}"
    rng = random.Random(303)
    for _ in range(300):
        r = rng.randint(1, 10**9)
        s = rng.randint(1, 10**9)
        t = strip_common_primes(r, s)
        if r % t != 0:
            return f"stripped part does not divide: r={r}, s={s}"
        if math.gcd(t, s) != 1:
            return f"stripped part still shares a prime: r={r}, s={s}"
        rest = r // t
        # every prime left in rest must divide s
        while rest > 1:
            g = math.gcd(rest, s)
            if g == 1:
                return f"removed part has a foreign prime: r={r}, s={s}"
            while rest % g == 0:
                rest //= g
    return ""


@_check
def prime_factor_roundtrip() -> str:
    fac = factor_small(52023)
    if fac != ((3, 1), (17341, 1)):
        return f"52023 factored as {fac}"
    rng = random.Random(404)
    for high in (10**12, 10**6 - 1):  # below 10^6 trial division takes the short prime list
        for _ in range(150):
            n = rng.randint(2, high)
            if math.prod(p**e for p, e in factor_small(n)) != n:
                return f"factor_small({n}) does not multiply back"
    return ""


@_check
def multiply_kernel_matches_plain() -> str:
    # the orbit step's multiply against CPython's, on both sides of the cutoff
    # under which it hands a pair to CPython at once: balanced and lopsided
    # pairs (long:short in quarters), mixed signs, powers of two and squares;
    # a square and a 2:1 pair on each side of the cutoff from which mul
    # splits a product with the helper, where one can be forked, and an
    # all-ones square past it, whose split carries; then across the
    # Schönhage-Strassen cutoff: a square on each side, a 2:1 pair, all-ones
    # operands (the largest convolution coefficients) and a negative
    rng = random.Random(454)
    t = _MUL_BITS
    pairs = []
    for short, quarters in ((t - 1, 4), (t, 4), (t, 7), (t, 12)):
        long = short * quarters // 4
        a = -(rng.getrandbits(long) | 1 << (long - 1))
        b = rng.getrandbits(short) | 1 << (short - 1)
        pairs += [(a, b), (a, -b), (a, a), (b, b), (1 << short, a)]
    for short in (_HELPER_BITS - 1, _HELPER_BITS):
        a = rng.getrandbits(2 * short) | 1 << (2 * short - 1)
        b = -(rng.getrandbits(short) | 1 << (short - 1))
        pairs += [(b, b), (a, b)]
    ones = (1 << _HELPER_BITS + 1) - 1
    pairs.append((ones, ones))
    for half in (_SSA_BITS // 2 - 1, _SSA_BITS // 2):
        a = -(rng.getrandbits(half) | 1 << (half - 1))
        pairs.append((a, a))
    third = _SSA_BITS // 3 + 1
    a = rng.getrandbits(2 * third) | 1 << (2 * third - 1)
    b = rng.getrandbits(third) | 1 << (third - 1)
    ones = (1 << _SSA_BITS // 2) - 1
    pairs += [(a, a), (a, b), (-a, b), (ones, ones), (ones >> 1, ones)]
    for x, y in pairs:
        if mul(x, y) != x * y:
            return f"mul differs from * on a {x.bit_length()}-bit by {y.bit_length()}-bit pair"
    return ""


@_check
def normalization_identity() -> str:
    rng = random.Random(505)
    for _ in range(25):
        d = rng.choice([3, 4, 5])
        body = [Fraction(0), Fraction(0)]
        body += [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d - 1)]
        if body[-1] == 0:
            body[-1] = Fraction(1, 2)
        g0 = RatPolynomial.from_coeffs(body)
        u = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        w = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        f = g0.taylor_shift(-u)
        f = RatPolynomial.from_coeffs([f.coeffs[0] + w] + list(f.coeffs[1:]))
        cert = normalize_to_x2_divisible(f, u)
        if not cert.verify():
            return f"certificate identity fails for f={f}, u={u}"
        if cert.shift_constant != w - u:
            return f"shift constant wrong for f={f}, u={u}"
        for _ in range(4):
            c = _random_fraction(rng, 30, 8)
            cp = cert.param_map(c)
            x, y = u, Fraction(0)
            for _ in range(4):
                x = f(x) + c
                y = cert.target(y) + cp
                if x - u != cert.scale * y:
                    return f"orbit transfer fails for f={f}, u={u}, c={c}"
    return ""


@_check
def normalization_distortion() -> str:
    g = X2DivisiblePoly.parse("x^3+x^2")
    base = iterate_rational(g, 1, 0, 10)[1:]
    count_base = len(zsigmondy_of_values(base))
    for t in (Fraction(2), Fraction(3), Fraction(6), Fraction(1, 2), Fraction(5, 3)):
        h = RatPolynomial.from_coeffs(
            [g.coeffs[i] * t ** (i - 1) if i >= 1 else Fraction(0) for i in range(g.degree + 1)]
        )
        hv = iterate_rational(h, Fraction(1) / t, 0, 10)[1:]
        for k in range(10):
            if hv[k] * t != base[k]:
                return f"rescaled orbit mismatch at t={t}, n={k + 1}"
        count_h = len(zsigmondy_of_values(hv))
        allowed = omega(t.numerator) + omega(t.denominator)
        if abs(count_h - count_base) > allowed:
            return f"window distortion {abs(count_h - count_base)} exceeds {allowed} at t={t}"
    return ""


@_check
def critical_point_search() -> str:
    f = RatPolynomial.parse("x^3-3*x")
    if critical_points_rational(f) != (Fraction(-1), Fraction(1)):
        return "x^3-3x critical points wrong"
    rng = random.Random(707)
    for _ in range(20):
        d = rng.choice([3, 4])
        body = [Fraction(0), Fraction(0)]
        body += [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d - 1)]
        if body[-1] == 0:
            body[-1] = Fraction(2, 3)
        g0 = RatPolynomial.from_coeffs(body)
        u = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        f = g0.taylor_shift(-u)
        if u not in critical_points_rational(f):
            return f"constructed critical point {u} missed for f={f}"
    return ""


@_check
def orbit_recurrence_agreement() -> str:
    rng = random.Random(808)
    for _ in range(40):
        g = _random_poly(rng, rng.choice([2, 3, 4]))
        c = _random_fraction(rng, 20, 8)
        horizon = 6 if g.degree == 2 else 5
        rec = iterate(g, c, horizon, bit_cap=10**6)
        plain = iterate_rational(g, c, 0, len(rec.entries))
        for e in rec.entries:
            if e.value != plain[e.n]:
                return f"recurrence mismatch for g={g}, c={c}, n={e.n}"
    return ""


def _sample_orbits(seed, draws, degrees, draw_c, checker, verdict=None, min_hits=0) -> str:
    """Run checker on iterate(g, c, 5) for seeded draws of g, then c = draw_c(rng).

    Skips c = 0 and, when verdict is given, every c with another verdict.
    Fails on the first violation or when fewer than min_hits draws are checked.
    """
    rng = random.Random(seed)
    hits = 0
    for _ in range(draws):
        g = _random_poly(rng, rng.choice(degrees))
        c = draw_c(rng)
        orbit = None if c == 0 else iterate(g, c, 5, bit_cap=10**6)
        if orbit is None or (verdict is not None and orbit.decision.verdict is not verdict):
            continue
        hits += 1
        bad = checker(orbit)
        if bad:
            return f"g={g}, c={c}: {bad[0]}"
    if hits < min_hits:
        return f"only {hits} cases sampled"
    return ""


@_check
def orbit_upper_bounds() -> str:
    return _sample_orbits(909, 40, (2, 3, 4), lambda rng: _random_fraction(rng, 20, 8),
                          check_upper_bounds)


@_check
def valuation_recursion_persistence() -> str:
    return _sample_orbits(1010, 120, (3, 4), lambda rng: _random_fraction(rng, 12, 12),
                          check_valuation_recursion, Verdict.INFINITE_DENOMINATOR, 10)


@_check
def denominator_lower_bound() -> str:
    return _sample_orbits(1111, 100, (3, 4), lambda rng: _random_fraction(rng, 12, 12),
                          check_denominator_lower_bound, Verdict.INFINITE_DENOMINATOR, 10)


def _escape_parameter(rng) -> Fraction:
    c = Fraction(rng.randint(10, 60), rng.choice([1, 1, 2]))
    return -c if rng.random() < 0.5 else c


@_check
def escape_growth_floor() -> str:
    return _sample_orbits(1212, 60, (2, 3), _escape_parameter,
                          check_escape_growth, Verdict.INFINITE_ESCAPE, 20)


@_check
def membership_matches_brute_force() -> str:
    for text in ("x^3+x^2", "2x^3+x^2"):
        g = X2DivisiblePoly.parse(text)
        for c in grid(ScanConfig(g, 3, 2)):
            dec = decide_membership(g, c)
            brute = brute_force_verdict(g, c, steps=300, bit_cap=20000)
            if dec.verdict is Verdict.FINITE_ORBIT:
                if brute != ("finite", dec.tail, dec.cycle):
                    return f"finite disagreement at g={g}, c={c}: {brute} vs {dec}"
            elif brute is not None:
                return f"brute found a repeat on an infinite verdict: g={g}, c={c}"
    return ""


@_check
def excess_part_inequality() -> str:
    rng = random.Random(1313)
    for _ in range(300):
        a = rng.randint(1, 10**9)
        lead = rng.randint(1, 5000)
        if not excess_bound_ok(a, lead):
            return f"excess inequality fails for a={a}, lead={lead}"
    return ""


@functools.lru_cache(maxsize=1)
def _scan_zsigmondy_cases():
    """Infinite-orbit (orbit, report) pairs on two small grids, computed once."""
    cases = []
    for text, A, B in (("x^3+x^2", 8, 3), ("2x^3+x^2", 6, 4)):
        g = X2DivisiblePoly.parse(text)
        for c in grid(ScanConfig(g, A, B)):
            orbit = iterate(g, c, 6)
            if orbit.decision.verdict is not Verdict.FINITE_ORBIT:
                cases.append((orbit, zsigmondy_set(orbit)))
    return tuple(cases)


@_check
def krieger_holds_on_zsigmondy_indices() -> str:
    seen = 0
    for orbit, report in _scan_zsigmondy_cases():
        for n in report.zset:
            seen += 1
            if report.krieger_checks[n - 1][1] is not KriegerStatus.HOLDS:
                return f"divisibility fails at g={orbit.poly}, c={orbit.c}, n={n}"
    if seen < 3:
        return f"only {seen} Zsigmondy indices seen"
    return ""


@_check
def rin_fails_on_zsigmondy_indices() -> str:
    for orbit, report in _scan_zsigmondy_cases():
        for n in report.zset:
            if n not in report.rin_failures:
                return (
                    "strict product inequality held inside the set: "
                    f"g={orbit.poly}, c={orbit.c}, n={n}"
                )
    return ""


@_check
def rigid_strip_matches_all_pairs() -> str:
    # a small grid plus two parameters where a prime of den(c) divides N_5
    # and N_8, which only the den(c) pass of the rigid strip catches; the
    # size-decided Zsigmondy set must be where the all-pairs strip leaves 1
    cases = [(X2DivisiblePoly.parse("2x^3+x^2"), Fraction(3, 2)),
             (X2DivisiblePoly.parse("6x^3+3x^2"), Fraction(-5, 2))]
    for text in ("x^3+x^2", "2x^3+x^2"):
        g = X2DivisiblePoly.parse(text)
        cases += [(g, c) for c in grid(ScanConfig(g, 4, 3))]
    checked = 0
    for g, c in cases:
        orbit = iterate(g, c, 8)
        if any(e.num == 0 for e in orbit.entries):
            continue
        checked += 1
        report = zsigmondy_set(orbit)
        all_pairs = primitive_divisor_verdicts(e.num for e in orbit.entries)
        if report.zset != tuple(w.n for w in all_pairs if not w.has_primitive):
            return f"size-decided Zsigmondy set differs at g={g}, c={c}"
        for v, w in zip(report.verdicts, all_pairs):
            if v.residue != w.residue:
                return f"residues differ at g={g}, c={c}, n={v.n}"
    if checked < 30:
        return f"only {checked} orbits compared"
    # pairwise coprime: N_6 = 2 <= N_3 * N_2 = 35, yet 2 is primitive, so only the
    # strip keeps 6 out of the size-decided set
    values = [3, 5, 7, 11, 13, 2]
    fake = iterate(X2DivisiblePoly.parse("x^3+x^2"), 2, 1)._replace(entries=tuple(
        OrbitEntry(n, num, 1, {}) for n, num in enumerate(values, start=1)))
    if zsigmondy_set(fake).zset != zsigmondy_of_values(values):
        return f"size-decided Zsigmondy set differs on the window {values}"
    return ""


@_check
def monomial_sandwich_envelopes() -> str:
    rng = random.Random(1414)
    for text in ("x^2", "2x^3", "x^4", "3x^5"):
        g = X2DivisiblePoly.parse(text)
        for _ in range(10):
            den = rng.randint(4 * g.lead + 1, 40 * g.lead)
            c = Fraction(rng.choice([-1, 1]), den)
            bad = check_monomial_sandwich(iterate(g, c, 7))
            if bad:
                return f"g={g}, c={c}: {bad[0]}"
    return ""


@_check
def cross_bound_synthetic_growth() -> str:
    # ln|N_k| = G' * d^k with G' <= ceiling: the bound must hold at every n
    for d in (2, 3):
        gp = 2.5
        lnvals = [gp * float(d) ** k for k in range(1, 601)]
        for n in range(30, 601):
            if not cross_bound_ok(lnvals, d, 3.0, n):
                return f"synthetic bound fails at d={d}, n={n}"
    # and the checker must be able to fail: flat huge values, tiny ceiling
    flat = [1e280] * 60
    if cross_bound_ok(flat, 2, 1e-3, 30):
        return "checker accepted an impossible sequence"
    return ""


@_check
def stabilization_index_exact() -> str:
    frozen = {2: 5, 3: 7, 4: 9, 5: 11, 10: 22, 64: 141}
    for d, want in frozen.items():
        if index_bound_n0(d) != want:
            return f"index bound at d={d}: {index_bound_n0(d)} != {want}"
    for d in range(2, 65):
        walk = index_bound_n0(d)
        approx = math.ceil(math.log(9) / math.log(d / (d - 1))) + 1
        if walk != approx:
            return f"walk and closed form disagree at d={d}: {walk} vs {approx}"
    return ""


@_check
def growth_threshold_boundary() -> str:
    if growth_threshold(2, 2**1364, 2) != 30:
        return "threshold below the flip is not 30"
    if growth_threshold(2, 2**1365, 2) != 31:
        return "threshold above the flip is not 31"
    ladder = [2, 10**6, 10**40, 2**2000, 10**1000]
    values = [growth_threshold(2, a, 2) for a in ladder]
    if values != sorted(values):
        return f"thresholds not monotone in alpha: {values}"
    if values[0] != 30 or values[-1] != 34:
        return f"ladder endpoints moved: {values}"
    return ""


@_check
def scan_grid_and_determinism() -> str:
    g = X2DivisiblePoly.parse("x^3+x^2")
    for A, B, want in ((10, 4, 55), (20, 6, 155), (3, 2, 11), (5, 3, 25)):
        pts = grid(ScanConfig(g, A, B))
        direct = {
            Fraction(a, b)
            for b in range(1, B + 1)
            for a in range(-A, A + 1)
        }
        if len(pts) != want or len(pts) != len(set(pts)) or set(pts) != direct:
            return f"grid ({A},{B}) has {len(pts)} rows, want {want}"
    one = csv_text(run_scan(ScanConfig(g, 3, 2, horizon=6, parallelism=1)))
    two = csv_text(run_scan(ScanConfig(g, 3, 2, horizon=6, parallelism=2)))
    if one != two:
        return "csv bytes differ between one and two workers"
    return ""


@_check
def value_free_scan_matches_exact() -> str:
    # every scan row, off enclosures from its first entry past 64 bits, must be the
    # row of iterate and zsigmondy_set; at least 50 rows hand off there, and some with
    # a shallow den(c) prime, read off residues.  A 64-bit cap stops rows in the exact
    # prefix, a 1000-bit one in the enclosed tail, the default none
    handoffs = shallow = 0
    for text in ("x^3+x^2", "2x^3+x^2", "3x^3+2x^2"):
        g = X2DivisiblePoly.parse(text)
        for c in grid(ScanConfig(g, 6, 4)):
            o = iterate(g, c, 8)
            past = [e for e in o.entries[o.decision.steps_used - 1:]
                    if max(e.num.bit_length(), e.den.bit_length()) > PRECISIONS[0]]
            if past and o.decision.verdict is not Verdict.FINITE_ORBIT:
                handoffs += 1
                shallow += len(past[0].deep_valuations) < len(o.den_prime_support)
            for cap in (64, 1000, DEFAULT_BIT_CAP):
                if _scan_one((g, c, 9, cap)) != _exact_row(g, c, 9, cap):
                    return f"rows differ at g={g}, c={c}, bit_cap={cap}"
    if handoffs < 50 or shallow < 1:
        return f"only {handoffs} value-free parameters, {shallow} with a shallow den(c) prime"
    return ""


def run_all(names=None) -> list[CheckResult]:
    if not names:
        picked = _CHECKS
    else:
        wanted = set(names)
        unknown = wanted - {f.__name__ for f in _CHECKS}
        if unknown:
            raise ValueError(f"unknown checks: {', '.join(sorted(unknown))}")
        picked = [f for f in _CHECKS if f.__name__ in wanted]
    results = []
    for fn in picked:
        try:
            detail = fn()
            results.append(CheckResult(fn.__name__, detail == "", detail))
        except Exception as exc:  # a crashing check is a failing check
            results.append(CheckResult(fn.__name__, False, f"raised {exc!r}"))
    return results


def check_names() -> list[str]:
    return [fn.__name__ for fn in _CHECKS]
