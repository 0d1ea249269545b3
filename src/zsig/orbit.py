"""Critical orbits of g + c and the membership decision procedure.

Entries are 1-indexed: value(1) = g_c(0) = c, value(n+1) = g(value(n)) + c.
Everything is exact integer arithmetic on reduced numerator/denominator
pairs; floats appear only in ln |value|, which the analytic bound checkers
read and which an entry works out on first read.

A reduced denominator M_n can only contain primes dividing den(c), so the
support is factored once up front.  The "deep" part of a denominator,
the primes whose valuation exceeds their valuation in the leading
coefficient, is what triggers the InfiniteDenominator verdict: once
val_p(M_n) > val_p(u_d) the recursion val_p(M_{n+1}) =
d*val_p(M_n) - val_p(u_d) forces strict growth forever.

The same support reduces each step.  With c = A/B and entry a/M, the raw
step (P*B + A*M^d) / (M^d*B) can only share primes of B with itself, so
it is divided by p^k over those primes, with k read off a small ledger of
val_p(M) rather than found by a gcd of the million-bit raw pair.  Each
entry's depth is read off that ledger; check_valuation_recursion is its oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from fractions import Fraction
from typing import Optional

from .arith import factor_small, ln_abs_int, ln_abs_ratio, val_p
from .poly import RatPolynomial, X2DivisiblePoly, length

# entries past this many bits stop an orbit (iterate, scans and the CLI share it)
DEFAULT_BIT_CAP = 2_000_000


@dataclass(frozen=True)
class OrbitEntry:
    """One orbit value as a reduced fraction num/den, den > 0.

    deep_valuations is val_p(den) at the primes where it exceeds val_p(lead),
    as the step ledger recorded it; ln_abs is worked out on first read.
    """

    n: int
    num: int
    den: int
    deep_valuations: dict[int, int] = field(repr=False, compare=False)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @cached_property
    def ln_abs(self) -> float:
        return ln_abs_ratio(self.num, self.den)


@dataclass(frozen=True)
class OrbitRecord:
    poly: X2DivisiblePoly
    c: Fraction
    bit_cap: int
    entries: tuple[OrbitEntry, ...]
    capped_at: Optional[int]
    den_prime_support: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, n: int) -> OrbitEntry:
        if not 1 <= n <= len(self.entries):
            raise IndexError(f"orbit entry {n} not computed (have 1..{len(self.entries)})")
        return self.entries[n - 1]

    def value(self, n: int) -> Fraction:
        return self.entry(n).value


def _den_support(g: X2DivisiblePoly, c: Fraction) -> tuple[tuple[int, int, int], ...]:
    """(p, val_p(den(c)), val_p(lead)) for each prime p of den(c), ascending in p."""
    if c.denominator == 1:
        return ()
    return tuple((p, b, val_p(g.lead, p) if g.lead % p == 0 else 0)
                 for p, b in factor_small(c.denominator))


def _deep_valuations(den: int, lead_vals: dict[int, int]) -> dict[int, int]:
    """val_p(den) at the support primes where it exceeds val_p(lead)."""
    vals = {p: val_p(den, p) for p in lead_vals if den % p == 0}
    return {p: e for p, e in vals.items() if e > lead_vals[p]}


def _orbit_pairs(g: X2DivisiblePoly, c: Fraction, support: tuple[tuple[int, int, int], ...]):
    """Reduced (num, den, deep) of entries 1, 2, 3, ...; each step runs on demand.

    support is _den_support(g, c); deep maps each p with m = val_p(den) >
    val_p(u_d) to m.  The raw step shares p^k with its denominator at each
    p | den(c).  With b = val_p(den(c)), a deep p has k = val_p(u_d) + b:
    u_d*a^d is the term of P with least valuation, and a deep m is at least
    b, so d*m exceeds val_p(u_d) + b.  A shallow p has k <= d*m + b =
    val_p(M^d*B), found by exact division tests.  Integer c has no support
    and no reduction work.
    """
    d = g.degree
    c_num, c_den = c.numerator, c.denominator
    ledger = {p: b for p, b, _ in support}  # val_p of the current denominator
    num, den = c_num, c_den
    while True:
        deep = {p: ledger[p] for p, _, lead_val in support if ledger[p] > lead_val}
        yield num, den, deep
        p_raw, q_raw = g.eval_int_pair(num, den)
        num = p_raw * c_den + c_num * q_raw
        den = q_raw * c_den
        shrink = 1
        for p, b, lead_val in support:
            m = ledger[p]
            if p in deep:
                k = lead_val + b
            else:
                k, top = 0, d * m + b
                while k < top and num % p ** (k + 1) == 0:
                    k += 1
            ledger[p] = d * m + b - k
            shrink *= p**k
        if shrink > 1:
            num //= shrink
            den //= shrink


def iterate(g: X2DivisiblePoly, c, horizon: int, bit_cap: int = DEFAULT_BIT_CAP) -> OrbitRecord:
    """Compute orbit entries 1..horizon, stopping early at the bit cap.

    If an entry's numerator or denominator exceeds bit_cap bits it is still
    recorded (so callers can see the crossing value) and capped_at marks it.
    """
    c = Fraction(c)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if bit_cap < 1:
        raise ValueError("bit_cap must be at least 1")
    support = _den_support(g, c)

    entries: list[OrbitEntry] = []
    capped_at = None
    for n, (num, den, deep) in zip(range(1, horizon + 1), _orbit_pairs(g, c, support)):
        entries.append(OrbitEntry(n, num, den, deep))
        if max(num.bit_length(), den.bit_length()) > bit_cap:
            capped_at = n
            break
    return OrbitRecord(
        poly=g,
        c=c,
        bit_cap=bit_cap,
        entries=tuple(entries),
        capped_at=capped_at,
        den_prime_support=tuple(p for p, _, _ in support),
    )


def escape_radius(g: X2DivisiblePoly, c: Fraction) -> Fraction:
    """max(4 * length(g), |c|): beyond this the orbit grows forever."""
    return max(4 * length(g), abs(Fraction(c)))


def escape_check(orbit: OrbitRecord) -> Optional[int]:
    """Least k >= 0 with |value(k+1)| >= escape_radius, or None.

    Exact cross-multiplied comparison; the index is in the k-convention
    counting applications of g_c to the starting value c.
    """
    r = escape_radius(orbit.poly, orbit.c)
    for e in orbit.entries:
        if abs(e.num) * r.denominator >= r.numerator * e.den:
            return e.n - 1
    return None


class Verdict(str, Enum):
    FINITE_ORBIT = "finite"
    INFINITE_ESCAPE = "escape"
    INFINITE_DENOMINATOR = "denominator"


@dataclass(frozen=True)
class MembershipDecision:
    """Outcome of the finiteness test for one parameter.

    For FINITE_ORBIT, tail is the least index n >= 1 whose value lies on
    the cycle and cycle is the cycle length.  For INFINITE_ESCAPE,
    escape_index is the least k >= 0 with |g_c^k(c)| past the escape
    radius.  For INFINITE_DENOMINATOR, trigger_index is the first entry
    whose denominator is deep at trigger_prime (the smallest such prime).
    Both infinite verdicts certify the orbit never hits zero: a zero
    would force periodicity, which the repeat check catches first, and
    neither denominator depth nor escape growth can be undone.
    """

    verdict: Verdict
    steps_used: int
    tail: Optional[int] = None
    cycle: Optional[int] = None
    escape_index: Optional[int] = None
    trigger_index: Optional[int] = None
    trigger_prime: Optional[int] = None

    def witness_text(self) -> str:
        if self.verdict is Verdict.FINITE_ORBIT:
            return f"tail={self.tail};cycle={self.cycle}"
        if self.verdict is Verdict.INFINITE_ESCAPE:
            return f"n={self.escape_index}"
        return f"n={self.trigger_index};p={self.trigger_prime}"


def _state_space_bound(g: X2DivisiblePoly, radius: Fraction) -> int:
    """Upper bound on how long a non-escaping, shallow-denominator orbit can run.

    Such values a/b satisfy |a/b| < radius and b | |lead|, so counting
    reduced fractions with each divisor of |lead| as denominator bounds
    the reachable states; two extra steps cover the start and the repeat.
    """
    return sum(2 * int(radius * m) + 1 for m in g._lead_divisors) + 2


def decide_membership(g: X2DivisiblePoly, c) -> MembershipDecision:
    """Classify the critical orbit of g + c: finite, or infinite with reason.

    Per step, in order: repeated value (finite orbit), escape-radius
    crossing, deep denominator.  The procedure always terminates: an orbit
    that never triggers either infinite verdict lives in a finite state
    space and must repeat within the state-space bound.
    """
    c = Fraction(c)
    radius = escape_radius(g, c)
    # _state_space_bound is at least 2*floor(radius) + 3 (its m = 1 term plus 2)
    # and nearly every walk ends sooner, so it is worked out only past that floor;
    # for |lead| = 1 it equals the floor, so the step that works it out checks again
    limit = 2 * int(radius) + 3

    seen: dict[tuple[int, int], int] = {}
    for n, (num, den, deep) in enumerate(_orbit_pairs(g, c, _den_support(g, c)), start=1):
        if n > limit:
            limit = _state_space_bound(g, radius)
            if n > limit:
                raise ArithmeticError(
                    f"no verdict after {limit} steps; state-space bound violated"
                )
        if (num, den) in seen:
            first = seen[num, den]
            return MembershipDecision(Verdict.FINITE_ORBIT, n, tail=first, cycle=n - first)
        if abs(num) * radius.denominator >= radius.numerator * den:
            return MembershipDecision(Verdict.INFINITE_ESCAPE, n, escape_index=n - 1)
        if deep:
            return MembershipDecision(Verdict.INFINITE_DENOMINATOR, n,
                                      trigger_index=n, trigger_prime=min(deep))
        seen[num, den] = n


def brute_force_verdict(g: X2DivisiblePoly, c, steps: int = 500,
                        bit_cap: int = 10**6) -> Optional[tuple[str, int, int]]:
    """Independent repeat detector on plain Fractions, for cross-checking.

    Returns ("finite", tail, cycle) when a repeat shows up within the
    step and size limits, None when nothing can be concluded.
    """
    c = Fraction(c)
    rp = g.as_rational()
    seen: dict[Fraction, int] = {}
    x = c
    for n in range(1, steps + 1):
        if x in seen:
            return ("finite", seen[x], n - seen[x])
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > bit_cap:
            return None
        seen[x] = n
        x = rp(x) + c
    return None


def iterate_rational(f: RatPolynomial, c, start, horizon: int) -> list[Fraction]:
    """[x, f_c(x), ..., f_c^horizon(x)] for an arbitrary rational map f + c."""
    c = Fraction(c)
    x = Fraction(start)
    out = [x]
    for _ in range(horizon):
        x = f(x) + c
        out.append(x)
    return out


def _approx_le(a: float, b: float) -> bool:
    """a <= b up to a relative float slack of 1e-9."""
    return a <= b + 1e-9 * max(1.0, abs(a), abs(b))


def check_upper_bounds(orbit: OrbitRecord) -> list[str]:
    """Violations of the growth ceilings; empty when the orbit obeys them.

    Denominators: ln M_n <= d^(n-1) ln M_1.  Values: ln |value(n)| <=
    d^(n-1) ln(2 |u_d| max(|c|, 4 L)).  Zero values are skipped.
    """
    g = orbit.poly
    d = g.degree
    bad: list[str] = []
    ln_m1 = ln_abs_int(orbit.entries[0].den) if orbit.entries else 0.0
    ceiling = 2 * abs(g.lead) * escape_radius(g, orbit.c)
    ln_ceiling = ln_abs_ratio(ceiling.numerator, ceiling.denominator)
    for e in orbit.entries:
        scale = float(d) ** (e.n - 1)
        if not _approx_le(ln_abs_int(e.den), scale * ln_m1):
            bad.append(f"denominator bound fails at n={e.n}")
        if e.num != 0 and not _approx_le(e.ln_abs, scale * ln_ceiling):
            bad.append(f"value bound fails at n={e.n}")
    return bad


def check_valuation_recursion(orbit: OrbitRecord) -> list[str]:
    """Exact oracle for the step ledger's denominator depths.

    Depth is derived afresh from each stored denominator and must equal the
    entry's deep_valuations.  For p deep at entry n: val_p(M_{n+1}) =
    d * val_p(M_n) - val_p(u_d), and the new valuation must stay deep (persistence).
    """
    g = orbit.poly
    lead_vals = {p: val_p(g.lead, p) for p in orbit.den_prime_support}
    bad: list[str] = []
    prev: dict[int, int] = {}  # depth of the entry before e
    for e in orbit.entries:
        deep = _deep_valuations(e.den, lead_vals)
        if e.deep_valuations != deep:
            bad.append(f"n={e.n}: ledger depth {e.deep_valuations}, denominator depth {deep}")
        for p, m in prev.items():
            expected = g.degree * m - lead_vals[p]
            if p not in deep:
                bad.append(f"p={p} deep at n={e.n - 1} but not at n={e.n}")
            elif deep[p] != expected:
                bad.append(f"p={p} at n={e.n}: val {deep[p]}, expected {expected}")
        prev = deep
    return bad


def check_denominator_lower_bound(orbit: OrbitRecord) -> list[str]:
    """ln M_n >= (d^(n-n') / 3) ln(deep part of M_n') for degree >= 3.

    n' is the first entry with a deep denominator; the deep part is the
    product of p^val_p over deep primes, handled in logs so the hatted
    integer is never built.
    """
    g = orbit.poly
    d = g.degree
    if d < 3:
        raise ValueError("denominator lower bound needs degree >= 3")
    first = None
    for e in orbit.entries:
        if e.deep_valuations:
            first = e
            break
    if first is None:
        return []
    ln_hat = sum(e * math.log(p) for p, e in first.deep_valuations.items())
    bad = []
    for e in orbit.entries[first.n - 1:]:
        need = (float(d) ** (e.n - first.n) / 3.0) * ln_hat
        if not _approx_le(need, ln_abs_int(e.den)):
            bad.append(f"denominator lower bound fails at n={e.n}")
    return bad


def check_escape_growth(orbit: OrbitRecord) -> list[str]:
    """ln |value(k+1)| >= d^(k-k0) ln(|value(k0+1)| / 2) past the escape index k0."""
    g = orbit.poly
    d = g.degree
    k0 = escape_check(orbit)
    if k0 is None:
        return []
    base = orbit.entry(k0 + 1)
    ln_floor = base.ln_abs - math.log(2.0)
    bad = []
    for e in orbit.entries[k0:]:
        need = float(d) ** (e.n - 1 - k0) * ln_floor
        if not _approx_le(need, e.ln_abs):
            bad.append(f"escape growth fails at n={e.n}")
    return bad
