"""Critical orbits of g + c and the membership decision, read off one walk.

Entries are 1-indexed: value(1) = g_c(0) = c, value(n+1) = g(value(n)) + c.
Everything is exact integer arithmetic on reduced numerator/denominator
pairs; the one float is ln |value|, which `zsig orbit` prints.  The growth
lemmas these orbits obey are checked in zsig.lemmas.

A reduced denominator M_n can only contain primes dividing den(c), so the
support is factored once per (lead, den(c)) pair and kept.  The "deep"
part of a denominator, the primes whose valuation exceeds their valuation
in the leading coefficient, is what triggers the InfiniteDenominator
verdict: once val_p(M_n) > val_p(u_d) the recursion val_p(M_{n+1}) =
d*val_p(M_n) - val_p(u_d) forces strict growth forever.

The same support reduces each step.  With c = A/B and entry a/M, the raw
step (P*B + A*M^d) / (M^d*B) can only share primes of B with itself, so
it is divided by p^k over those primes, with k read off a small ledger of
val_p(M) rather than found by a gcd of the million-bit raw pair.  Each
entry's depth is read off that ledger; lemmas.check_valuation_recursion
is its oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from fractions import Fraction
from itertools import count
from typing import Optional

from .arith import divisors, factor_small, ln_abs_ratio, val_p
from .poly import X2DivisiblePoly

# entries past this many bits stop an orbit (iterate, scans and the CLI share it)
DEFAULT_BIT_CAP = 2_000_000


@dataclass(slots=True)
class OrbitEntry:
    """One orbit value as a reduced fraction num/den, den > 0.

    deep_valuations is val_p(den) at the primes where it exceeds val_p(lead),
    as the step ledger recorded it; ln_abs is worked out on each read.
    Entries are slotted records, not frozen ones (a frozen __init__ costs
    several times as much, and a scan builds thousands): treat them as
    read-only, and use dataclasses.replace for a changed copy.
    """

    n: int
    num: int
    den: int
    deep_valuations: dict[int, int] = field(repr=False, compare=False)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
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
    decision: MembershipDecision

    def __len__(self) -> int:
        return len(self.entries)

    def entry(self, n: int) -> OrbitEntry:
        if not 1 <= n <= len(self.entries):
            raise IndexError(f"orbit entry {n} not computed (have 1..{len(self.entries)})")
        return self.entries[n - 1]

    def value(self, n: int) -> Fraction:
        return self.entry(n).value


@lru_cache(maxsize=64)
def _den_support(lead: int, den: int) -> tuple[tuple[int, int, int], ...]:
    """(p, val_p(den), val_p(lead)) for each prime p of den = den(c), ascending in p.

    Kept per (lead, den) pair: a scan meets a few denominators over its whole
    grid, and each parameter's walk reads its support.
    """
    if den == 1:
        return ()
    return tuple((p, b, val_p(lead, p)) for p, b in factor_small(den))


def escape_radius(g: X2DivisiblePoly, c: Fraction) -> Fraction:
    """max(4 * length(g), |c|): beyond this the orbit grows forever.

    The two are compared in integers, so no Fraction is built unless |c| wins.
    """
    c = c if isinstance(c, Fraction) else Fraction(c)
    floor = g._escape_floor
    if abs(c.numerator) * floor.denominator > floor.numerator * c.denominator:
        return abs(c)
    return floor


def _past_radius(num: int, den: int, r_num: int, r_den: int) -> bool:
    """|num/den| >= r_num/r_den, the escape radius, cross-multiplied in integers."""
    return abs(num) * r_den >= r_num * den


def escape_check(orbit: OrbitRecord) -> Optional[int]:
    """Least k >= 0 with |value(k+1)| >= escape_radius, or None.

    Exact cross-multiplied comparison; the index is in the k-convention
    counting applications of g_c to the starting value c.
    """
    r = escape_radius(orbit.poly, orbit.c)
    for e in orbit.entries:
        if _past_radius(e.num, e.den, r.numerator, r.denominator):
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


def _state_space_bound(radius: Fraction, support: tuple[tuple[int, int, int], ...]) -> int:
    """Upper bound on how long a non-escaping, shallow-denominator orbit can run.

    Such values a/b satisfy |a/b| < radius and b | D, the product of
    p^val_p(lead) over the support primes of den(c): b has no other primes
    and none above its valuation in the lead.  Counting fractions with each
    divisor of D as denominator bounds the reachable states; two extra
    steps cover the start and the repeat.  Nothing is factored.  The
    divisor 1 counts at least one state, so the bound is at least 3.
    """
    denominators = divisors((p, lead_val) for p, _, lead_val in support)
    r, s = radius.numerator, radius.denominator
    return sum(2 * (r * m // s) + 1 for m in denominators) + 2


def _decided_pairs(g: X2DivisiblePoly, c: Fraction, support: tuple, radius: Fraction):
    """(n, num, den, deep, decision) of entries 1, 2, 3, ...: the walk and its verdict checks.

    Each step runs on demand.  deep maps each p of support = _den_support(g.lead,
    den(c)) with m = val_p(den) > val_p(u_d) to m.  With b = val_p(den(c)),
    the raw step shares p^k with its denominator: k = val_p(u_d) + b at a
    deep p, since u_d*a^d is the term of P with least valuation and d*m
    exceeds val_p(u_d) + b, and k <= d*m + b = val_p(M^d*B), found by exact
    division tests, at a shallow p.

    decision is None until the membership verdict and that verdict from then
    on.  Per step until the verdict, in order: the state-space guard, a
    repeated value (finite orbit), an escape-radius crossing, a deep
    denominator.  An orbit that triggers neither infinite verdict lives in a
    finite state space, read off the support, and repeats within its bound.
    Every reader of a verdict walks through here; radius = escape_radius(g, c).
    """
    d, c_num, c_den = g.degree, c.numerator, c.denominator
    r_num, r_den = radius.numerator, radius.denominator
    ledger = {p: b for p, b, _ in support}  # val_p of the current denominator
    num, den = c_num, c_den
    decision = None
    # _state_space_bound is at least 3, so it is built only when a walk passes n = 3
    limit = 3
    seen: dict[tuple[int, int], int] = {}
    for n in count(1):
        deep = {p: ledger[p] for p, _, lead_val in support if ledger[p] > lead_val}
        if decision is None:
            if n > limit:
                if n == 4:
                    limit = _state_space_bound(radius, support)
                if n > limit:
                    raise ArithmeticError(
                        f"no verdict after {limit} steps; state-space bound violated")
            if (num, den) in seen:
                first = seen[num, den]
                decision = MembershipDecision(Verdict.FINITE_ORBIT, n, tail=first, cycle=n - first)
            elif _past_radius(num, den, r_num, r_den):
                decision = MembershipDecision(Verdict.INFINITE_ESCAPE, n, escape_index=n - 1)
            elif deep:
                decision = MembershipDecision(Verdict.INFINITE_DENOMINATOR, n,
                                              trigger_index=n, trigger_prime=min(deep))
            else:
                seen[num, den] = n
        yield n, num, den, deep, decision
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


def _walk(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int) -> OrbitRecord:
    """Step the critical orbit until it has both its membership verdict and its window.

    The window keeps entries 1..horizon, up to the first one past bit_cap.
    """
    support = _den_support(g.lead, c.denominator)
    entries: list[OrbitEntry] = []
    capped_at = None
    for n, num, den, deep, decision in _decided_pairs(g, c, support, escape_radius(g, c)):
        if n <= horizon and capped_at is None:
            entries.append(OrbitEntry(n, num, den, deep))
            if max(num.bit_length(), den.bit_length()) > bit_cap:
                capped_at = n
        if decision is not None and (n >= horizon or capped_at is not None):
            return OrbitRecord(g, c, bit_cap, tuple(entries), capped_at,
                               tuple(p for p, _, _ in support), decision)


def iterate(g: X2DivisiblePoly, c, horizon: int, bit_cap: int = DEFAULT_BIT_CAP) -> OrbitRecord:
    """Compute orbit entries 1..horizon, stopping early at the bit cap, and the verdict.

    If an entry's numerator or denominator exceeds bit_cap bits it is still
    recorded (so callers can see the crossing value) and capped_at marks it.
    decision is the membership verdict of the same walk, which may step past the window.
    """
    c = c if isinstance(c, Fraction) else Fraction(c)
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if bit_cap < 1:
        raise ValueError("bit_cap must be at least 1")
    return _walk(g, c, horizon, bit_cap)


def decide_membership(g: X2DivisiblePoly, c) -> MembershipDecision:
    """Classify the critical orbit of g + c: iterate's verdict, walked with no window."""
    return _walk(g, c if isinstance(c, Fraction) else Fraction(c), 0, DEFAULT_BIT_CAP).decision
