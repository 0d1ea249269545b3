"""Primitive prime divisors along an orbit and the finiteness machinery.

A prime p is primitive at index n when it divides the n-th numerator but
no earlier one (earlier values are p-integral, so this is the right
rational notion on reduced fractions).  The indices with no primitive
prime form the Zsigmondy set of the orbit; everything here exists to
compute that set exactly on a window and to evaluate the explicit bounds
that make it finite for the non-preperiodic parameters.

Primitivity is decided by gcd-stripping, never by factoring orbit values:
the n-th numerator loses every prime it shares with an earlier numerator,
and whatever is left (if anything) is a product of primitive primes.
Factoring only happens on that residue, and only when a caller reads
the witness prime.

On an orbit the strip needs no earlier numerator but N_(n/q) for the
primes q | n.  For a prime p not dividing den(c) the critical orbit is
rigidly divisible: p | N_n exactly when m_p | n, m_p the first index p
divides (Rice 2007, Krieger 2013).  So any earlier prime of N_n divides
some N_(n/q), and only the few primes of den(c) are tested against the
earlier numerators one by one.  Generic value sequences have no such
structure and are stripped against every earlier numerator.  The primes
q of each index come from one smallest-prime-factor sieve per orbit, so
an orbit's indices are never factored one by one.

zsigmondy_set answers every per-index question in one report: the
verdict, Krieger's divisibility status and the strict numerator-product
inequality at each index of the orbit it is given.  Index n reads only
entries 1..n, so the report of a shorter orbit, iterate(g, c, k), is the
first k rows of a longer one's; the window is the orbit passed in.

mpmath is imported only by the growth-threshold comparison that needs
it, so scans and single orbits never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .arith import (
    _sieve_primes,
    distinct_prime_factors,
    factor_small,
    is_probable_prime,
    ln_abs_int,
    ln_abs_ratio,
    prime_quotient_power_sum,
    primes_up_to,
    smallest_prime_factor_sieve,
    strip_common_primes,
    val_p,
)
from .orbit import OrbitRecord, _approx_le, _deep_valuations, escape_radius
from .poly import X2DivisiblePoly, length


@dataclass(frozen=True)
class PrimitiveDivisorVerdict:
    """Outcome of the primitivity test at one index.

    residue is N_n stripped of every prime it shares with an earlier
    numerator, so it is 1 exactly when no primitive prime exists.
    witness_prime, the smallest identifiable prime of the residue, is named
    on its first read and never before: scans never name one.  It can be
    None even when a primitive prime exists, if the residue resists
    factoring or is too large for naming to be worth the cost.
    """

    n: int
    residue: int = field(repr=False)

    @property
    def has_primitive(self) -> bool:
        return self.residue > 1

    @property
    def stripped_remainder_bits(self) -> int:
        return self.residue.bit_length() if self.has_primitive else 0

    @cached_property
    def witness_prime(self) -> Optional[int]:
        bits = self.stripped_remainder_bits
        return _bounded_witness(self.residue) if 0 < bits <= _WITNESS_BIT_LIMIT else None


# residues above this size keep has_primitive but skip witness naming
_WITNESS_BIT_LIMIT = 4096


def _abs_numerators(values: Iterable) -> list[int]:
    nums = []
    for i, v in enumerate(values, start=1):
        a = Fraction(v).numerator if not isinstance(v, int) else v
        if a == 0:
            raise ValueError(f"value at index {i} is zero; orbit is preperiodic")
        nums.append(abs(a))
    return nums


def _bounded_witness(residue: int) -> Optional[int]:
    """Smallest prime of the residue findable with bounded effort.

    Trial division to the sieve limit, then a probable-prime test on what
    is left.  A composite of primes all past the limit stays anonymous;
    rho-splitting residues this size loses far more often than it wins.
    """
    for p in primes_up_to(10**5):
        if residue % p == 0:
            return p
        if p * p > residue:
            return residue
    return residue if is_probable_prime(residue) else None


def _strip_index(nums: Sequence[int], n: int) -> int:
    """N_n without the primes it shares with N_1 .. N_(n-1); 1 if none is left."""
    residue = nums[n - 1]
    for k in range(n - 1):
        if residue == 1:
            break
        residue = strip_common_primes(residue, nums[k])
    return residue


def _orbit_residue(nums: Sequence[int], n: int, prod: int, den_primes: Sequence[int]) -> int:
    """_strip_index for orbit numerators, by rigid divisibility.

    prod is _quotient_product(nums, n); den_primes are the primes of
    den(c), the only ones that can divide N_n and an earlier numerator
    without dividing prod.
    """
    residue = strip_common_primes(nums[n - 1], prod)
    for p in den_primes:
        if residue % p == 0 and any(nums[k] % p == 0 for k in range(n - 1)):
            while residue % p == 0:
                residue //= p
    return residue


def primitive_divisor_verdicts(values: Iterable) -> tuple[PrimitiveDivisorVerdict, ...]:
    """Primitivity verdicts for a generic value sequence (1-indexed)."""
    nums = _abs_numerators(values)
    return tuple(PrimitiveDivisorVerdict(n, _strip_index(nums, n))
                 for n in range(1, len(nums) + 1))


def zsigmondy_of_values(values: Iterable) -> tuple[int, ...]:
    """Indices of the sequence with no primitive prime."""
    return tuple(v.n for v in primitive_divisor_verdicts(values) if not v.has_primitive)


class KriegerStatus(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    VACUOUS = "vacuous"


def _quotient_product(nums: Sequence[int], n: int, primes: Sequence[int]) -> int:
    """Product of N_(n/p) over the primes p of n (the empty product is 1)."""
    prod = 1
    for p in primes:
        prod *= nums[n // p - 1]
    return prod


def _krieger_status(num: int, prod: int, has_primitive: bool) -> KriegerStatus:
    """At a primitive-free index |N_n| must divide prod; vacuous otherwise."""
    if has_primitive:
        return KriegerStatus.VACUOUS
    return KriegerStatus.HOLDS if prod % num == 0 else KriegerStatus.FAILS


@dataclass(frozen=True)
class ZsigmondyReport:
    verdicts: tuple[PrimitiveDivisorVerdict, ...]
    zset: tuple[int, ...]
    rin_failures: tuple[int, ...]
    krieger_checks: tuple[tuple[int, KriegerStatus], ...]


def zsigmondy_set(orbit: OrbitRecord) -> ZsigmondyReport:
    """Zsigmondy set of the orbit on all its entries, with side checks.

    Refuses orbits that hit zero (preperiodic parameters have no
    interesting Zsigmondy window; periodic orbits through nonzero values
    are fine and typically put every index in the set).  rin_failures
    lists indices where the strict numerator-product inequality fails;
    krieger_checks records the divisibility status at every index.
    """
    n_max = len(orbit.entries)
    if n_max < 1:
        raise ValueError("empty window")
    nums = _abs_numerators(e.num for e in orbit.entries)
    spf = smallest_prime_factor_sieve(n_max)
    verdicts, rin_failures, krieger = [], [], []
    for n, num in enumerate(nums, start=1):
        prod = _quotient_product(nums, n, _sieve_primes(spf, n))
        v = PrimitiveDivisorVerdict(n, _orbit_residue(nums, n, prod, orbit.den_prime_support))
        verdicts.append(v)
        if num <= prod:
            rin_failures.append(n)
        krieger.append((n, _krieger_status(num, prod, v.has_primitive)))
    zset = tuple(v.n for v in verdicts if not v.has_primitive)
    return ZsigmondyReport(verdicts=tuple(verdicts), zset=zset,
                           rin_failures=tuple(rin_failures), krieger_checks=tuple(krieger))


def excess_primes(a: int, lead: int) -> tuple[frozenset, int]:
    """Primes of a with valuation above their valuation in lead, plus their part.

    Returns (I, I_hat) where I = {p : val_p(a) > val_p(lead)} and I_hat is
    the product of p^val_p(a) over I.  a is factored completely.
    """
    a = abs(a)
    if a == 0:
        raise ValueError("excess primes of zero are undefined")
    lead_vals = {p: val_p(lead, p) if lead % p == 0 else 0 for p, _ in factor_small(a)}
    deep = _deep_valuations(a, lead_vals)
    return frozenset(deep), math.prod(p**e for p, e in deep.items())


def excess_bound_ok(a: int, lead: int) -> bool:
    """|a| <= |lead| * (excess part of a): shallow primes cannot beat the lead."""
    _, part = excess_primes(a, lead)
    return abs(a) <= abs(lead) * part


def power_sum_dominated(d: int, n: int) -> bool:
    """Exact check that (sum of d^(n/p) over primes p | n)^5 <= d^(3n).

    Two-step ladder, every step an exact integer statement: each term is
    at most d^floor(n/2), so the sum is at most omega(n) * d^ceil(n/2),
    and omega(n) <= floor(log2 n) <= d^(floor(3n/5) - ceil(n/2)) closes
    it since 5 * floor(3n/5) <= 3n.  The ladder factors nothing; when its
    gap is inconclusive the sum is built literally and fifth-powered.
    """
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    w = n.bit_length() - 1  # n is at least the product of its omega(n) primes
    gap = (3 * n) // 5 - (n + 1) // 2
    if gap >= 0 and (gap >= w.bit_length() or w <= d**gap):
        return True
    s = prime_quotient_power_sum(d, n)
    return s**5 <= d ** (3 * n)


def mahler_measure(x) -> int:
    """Measure of a rational as a degree-one algebraic number: max(|num|, den)."""
    x = Fraction(x)
    if x == 0:
        return 1
    return max(abs(x.numerator), x.denominator)


def evertse_bound(r: int, delta) -> float:
    """2e7 * delta^-4 * ln(4r) * ln(ln(4r)): unit-equation solution count cap."""
    if r < 1:
        raise ValueError("r must be a positive integer")
    dl = float(delta)
    if not 0.0 < dl < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    outer = ln_abs_int(4 * r)
    return 2e7 / dl**4 * outer * math.log(outer)


def index_bound_n0(d: int) -> int:
    """One past the least k with 9 (d-1)^k <= d^k (exact integer walk)."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    k = 0
    while 9 * (d - 1) ** k > d**k:
        k += 1
    return k + 1


def index_bound_n1(d: int) -> int:
    """index_bound_n0 plus the least k with d^k >= 120."""
    k = 0
    while d**k < 120:
        k += 1
    return k + index_bound_n0(d)


def index_bound_n2(d: int, lead: int, root_bound_value: int) -> int:
    """ceil(3 log_d log2(lead^2 * D + 1)) + 2 * index_bound_n0(d)."""
    if root_bound_value < 1:
        raise ValueError("root bound must be positive")
    m = lead * lead * root_bound_value + 1
    target = math.log2(m) ** 3
    k = 0
    while d**k < target:
        k += 1
    return k + 2 * index_bound_n0(d)


def root_bound(g: X2DivisiblePoly, c_height, depth: int) -> int:
    """Integer bound on preimage-tree roots up to the given depth.

    V_0 = 0, V_k = max(1, (length - 1) + (c_height + V_(k-1)) / |lead|),
    exactly in rationals; the bound is floor(V_depth) + 1.
    """
    c_height = Fraction(c_height)
    if c_height <= 0:
        raise ValueError("parameter height must be positive")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    lg = length(g)
    lead = abs(g.lead)
    v = Fraction(0)
    for _ in range(depth):
        v = max(Fraction(1), (lg - 1) + (c_height + v) / lead)
    return math.floor(v) + 1


def _exact_log_ratio(ab: Fraction, beta: Fraction) -> Optional[int]:
    """m = 3 ln(ab) / ln(beta) when it is an integer, i.e. ab^3 == beta^m, else None.

    Only then can d^(2n) (ln beta)^5 = 243 (ln ab)^5 tie: the ratio is
    rational or transcendental, and a rational d^(2n/5) is an integer.  An
    m whose power beta^m would have more bits than ab^3 is ruled out before
    the power is formed.
    """
    ln_ab = ln_abs_ratio(ab.numerator, ab.denominator)
    ln_b = ln_abs_ratio(beta.numerator, beta.denominator)
    guess = 3 * ln_ab / ln_b
    for m in {math.floor(guess), math.ceil(guess)}:
        if m < 1 or m * (beta.numerator.bit_length() - 1) >= 3 * ab.numerator.bit_length():
            continue
        if ab**3 == beta**m:
            return m
    return None


def _growth_exceeds(d: int, n: int, alpha: Fraction, beta: Fraction,
                    exact_m: Optional[int]) -> bool:
    """Certified comparison d^(2n) (ln beta)^5 > 243 (ln(alpha beta))^5."""
    if exact_m is not None:
        return d ** (2 * n) > exact_m**5
    from mpmath import mp, mpf  # only the bound solvers need it; scans never load it

    ab = alpha * beta
    prec = 64
    while prec <= 1 << 17:
        with mp.workprec(prec):
            ln_b = mp.log(mpf(beta.numerator)) - mp.log(mpf(beta.denominator))
            ln_ab = mp.log(mpf(ab.numerator)) - mp.log(mpf(ab.denominator))
            lhs = mpf(d) ** (2 * n) * ln_b**5
            rhs = 243 * ln_ab**5
            scale = max(abs(lhs), abs(rhs))
            if scale > 0 and abs(lhs - rhs) > scale * mpf(2) ** (20 - prec):
                return bool(lhs > rhs)
        prec *= 2
    raise ArithmeticError("growth threshold comparison could not be certified")


def growth_threshold(d: int, alpha, beta) -> int:
    """Least n >= 30 with (d^n / 3 - d^(3n/5)) ln(beta) > d^(3n/5) ln(alpha).

    For n >= 30 the condition is equivalent to d^(2n) > R^5 with
    R = 3 ln(alpha beta) / ln(beta), which is monotone in n.  The search
    walks up from n = 30 and every comparison is certified exactly: in
    integers when R is an integer (the only case that can tie), otherwise
    by escalating-precision interval arithmetic.
    """
    if d < 2:
        raise ValueError("degree must be at least 2")
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    if beta <= 1:
        raise ValueError("beta must exceed 1")
    exact_m = _exact_log_ratio(alpha * beta, beta)
    n = 30
    while not _growth_exceeds(d, n, alpha, beta, exact_m):
        n += 1
    return n


def ln_value_ceiling(orbit: OrbitRecord) -> float:
    """ln of 2 |u_d|^2 B_hat max(|c|, 4L): the per-step numerator growth base.

    B_hat is the deep part of the first denominator, taken from the
    recorded valuations so the integer itself is never built.
    """
    g = orbit.poly
    base = 2 * g.lead * g.lead * escape_radius(g, orbit.c)
    ln_base = ln_abs_ratio(base.numerator, base.denominator)
    first = orbit.entries[0]
    ln_hat = sum(e * math.log(p) for p, e in first.deep_valuations.items())
    return ln_base + ln_hat


def cross_bound_ok(ln_values: Sequence[float], d: int, ln_ceiling: float, n: int) -> bool:
    """sum of ln|N_(n/p)| over primes p | n stays under d^(3n/5) * ln_ceiling.

    Compared in the log domain so the d^(3n/5) factor never overflows;
    ln_values is 1-indexed via ln_values[k-1].
    """
    if ln_ceiling <= 0:
        raise ValueError("ceiling must exceed 1 in the log domain")
    if n < 30:
        raise ValueError("cross bound only applies for n >= 30")
    lhs = sum(ln_values[n // p - 1] for p in distinct_prime_factors(n))
    if lhs <= 0:
        return True
    log_lhs = math.log(lhs)
    log_rhs = (3 * n / 5) * math.log(d) + math.log(ln_ceiling)
    return _approx_le(log_lhs, log_rhs)


def check_cross_bound(orbit: OrbitRecord) -> list[str]:
    """Violations of the cross bound at every computed index n >= 30."""
    lns = [ln_abs_int(abs(e.num)) if e.num != 0 else float("-inf") for e in orbit.entries]
    if any(x == float("-inf") for x in lns):
        raise ValueError("orbit hits zero; cross bound undefined")
    ceiling = ln_value_ceiling(orbit)
    d = orbit.poly.degree
    bad = []
    for n in range(30, len(lns) + 1):
        if not cross_bound_ok(lns, d, ceiling, n):
            bad.append(f"cross bound fails at n={n}")
    return bad


def check_monomial_sandwich(orbit: OrbitRecord) -> list[str]:
    """Exact two-sided envelopes for monomials with small parameter.

    Needs a monomial with positive leading coefficient and
    0 < |c| < 1/(4 u_d).  Positive c (or negative c in odd degree, whose
    orbit is the mirror image) obeys |c| <= |v_n| <= (u_d+1)^E |c| with
    E = (d^(n-1) - 1)/(d - 1); negative c in even degree contracts:
    |c| (1 - u_d |c|^(d-1)) <= |v_n| <= |c|.
    """
    g = orbit.poly
    if not g.is_monomial or g.lead <= 0:
        raise ValueError("sandwich needs a monomial with positive leading coefficient")
    c = orbit.c
    if c == 0 or 4 * g.lead * abs(c) >= 1:
        raise ValueError("parameter outside the window 0 < |c| < 1/(4 u_d)")
    d = g.degree
    bad: list[str] = []
    if c > 0 or d % 2 == 1:
        base = g.lead + 1
        for e in orbit.entries:
            expo = (d ** (e.n - 1) - 1) // (d - 1)
            v = abs(e.value)
            if v < abs(c) or v > base**expo * abs(c):
                bad.append(f"expanding sandwich fails at n={e.n}")
    else:
        lower = abs(c) * (1 - g.lead * abs(c) ** (d - 1))
        for e in orbit.entries:
            v = abs(e.value)
            if v < lower or v > abs(c):
                bad.append(f"contracting sandwich fails at n={e.n}")
    return bad


@dataclass(frozen=True)
class BoundReport:
    """Everything the finiteness argument instantiates for one polynomial."""

    degree: int
    lead: int
    coefficient_length: Fraction
    parameter_height: Fraction
    preimage_depth: int
    root_bound: int
    n0: int
    n1: int
    n2: int
    evertse_at_n0: float
    region_thresholds: dict

    def max_index_bound(self) -> int:
        return max(self.n1, self.n2, *self.region_thresholds.values())


def bound_report(g: X2DivisiblePoly, parameter_height=None, preimage_depth: int = 3
                 ) -> BoundReport:
    """Assemble the explicit bounds for g: index cutoffs, root box, thresholds.

    region_thresholds gives the growth threshold in the three parameter
    regimes: "escape" (orbit past the escape radius), "monomial" (small
    parameter under a monomial), "bounded" (parameter inside the radius).
    """
    d = g.degree
    lg = length(g)
    height = lg if parameter_height is None else Fraction(parameter_height)
    rb = root_bound(g, height, preimage_depth)
    n0 = index_bound_n0(d)
    lead = abs(g.lead)
    thresholds = {
        "escape": growth_threshold(d, 2 * lead * lead, 4 * lg),
        "monomial": growth_threshold(d, (lead + 1) * lead, 2),
        "bounded": growth_threshold(d, 10 * lg * lead * lead, 2),
    }
    return BoundReport(
        degree=d,
        lead=g.lead,
        coefficient_length=lg,
        parameter_height=height,
        preimage_depth=preimage_depth,
        root_bound=rb,
        n0=n0,
        n1=index_bound_n1(d),
        n2=index_bound_n2(d, lead, rb),
        evertse_at_n0=evertse_bound(d**n0, Fraction(1, 10)),
        region_thresholds=thresholds,
    )
