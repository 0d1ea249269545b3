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
divides, and v_p(N_(kn)) = v_p(N_n), because x^2 | g gives N_(n+m) == N_m
(mod N_n^2) at p (Rice 2007, Krieger 2013).  So each such earlier prime p
of N_n has p^v_p(N_n) dividing some N_(n/q).  The few primes of den(c)
fall outside that argument; a running product, seen, keeps those that
divided an earlier numerator (one deep at index 1 never does, and is
not tracked).  The primes q of each index are read off one table per
window length, built from the primes up to that length and kept, so an
orbit's indices are never factored.

That makes membership a size test.  With prod the product of the
N_(n/q) and rest |N_n| without the primes of seen, the residue is at
least rest / prod, so rest > prod means a primitive prime and no strip
runs.  Only where rest <= prod is N_n stripped, once, against prod *
seen, and n is in the Zsigmondy set when nothing is left: 23 strips on
the survey grid, where stripping every index took 2448.

zsigmondy_set answers every per-index question in one report: the
verdict, Krieger's divisibility status and the strict numerator-product
inequality at each index of the orbit it is given.  Its one walk,
_index_columns, which every scan row runs too, decides the Zsigmondy set
and the inequality failures and keeps, at each index, |N_n|, prod and
seen.  The verdicts (one exact strip per index) and the Krieger statuses
are built from those stored columns on first read, so a scan, which
reads neither, builds neither, and no view walks the orbit again.
Krieger's check runs at every index whose exact residue is 1, so on a
fabricated window that is not rigidly divisible it reports FAILS where
the size test's premise breaks.  Index n reads only entries 1..n, so the
report of a shorter orbit, iterate(g, c, k), is the first k rows of a
longer one's; the window is the orbit passed in.

The bound solvers compare logs through zsig.enclosure, imported when they
run, so scans and single orbits never load it.  The naive all-pairs strip
is in zsig.oracle and the growth lemmas are checked in zsig.lemmas.
"""
from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Optional, Sequence

from .arith import (
    Record,
    distinct_prime_factors,  # unused here; perfbench --trace 1 patches it until ROADMAP item 2d
    is_probable_prime,
    ln_abs_ratio,
    primes_up_to,
    strip_common_primes,
    trial_primes,
)
from .orbit import OrbitRecord
from .poly import X2DivisiblePoly, length


class PrimitiveDivisorVerdict(Record):
    """Outcome of the primitivity test at one index.

    residue is N_n stripped of every prime it shares with an earlier
    numerator, so it is 1 exactly when no primitive prime exists.
    witness_prime, the smallest identifiable prime of the residue, is named
    on its first read and never before: scans never name one.  It can be
    None even when a primitive prime exists, if the residue resists
    factoring or is too large for naming to be worth the cost.  Read-only
    by convention; the repr leaves the residue out.
    """

    _fields = ("n", "residue")
    _hidden = ("residue",)

    def __init__(self, n: int, residue: int):
        self.n = n
        self.residue = residue

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


def _bounded_witness(residue: int) -> Optional[int]:
    """Smallest prime of the residue findable with bounded effort.

    Trial division by arith.trial_primes(residue), the list factor_small
    divides by too, then a probable-prime test on what is left.  A
    composite of primes all past the list stays anonymous; rho-splitting
    residues this size loses far more often than it wins.
    """
    for p in trial_primes(residue):
        if residue % p == 0:
            return p
        if p * p > residue:
            return residue
    return residue if is_probable_prime(residue) else None


class KriegerStatus(str, Enum):
    HOLDS = "holds"
    FAILS = "fails"
    VACUOUS = "vacuous"


@lru_cache(maxsize=8)
def _index_primes(n_max: int) -> tuple[tuple[int, ...], ...]:
    """The primes of each index 1..n_max, ascending: entry n - 1 lists those of n.

    Kept per window length, as primes_up_to keeps its list: a scan asks
    for the same few lengths once per parameter.
    """
    table: list[list[int]] = [[] for _ in range(n_max)]
    for p in primes_up_to(n_max):
        for m in range(p, n_max + 1, p):
            table[m - 1].append(p)
    return tuple(map(tuple, table))


def _tracked_primes(den_primes: Iterable[int], deep: Mapping[int, int]) -> tuple[int, ...]:
    """The den(c) primes a window tracks in seen, given entry 1's deep valuations.

    A den(c) prime deep at index 1 stays deep (val_p(M_(n+1)) = d val_p(M_n) -
    val_p(u_d) exceeds val_p(M_n)), so it divides every denominator and no
    reduced numerator: it is not tracked.
    """
    return tuple(p for p in den_primes if p not in deep)


def _index_columns(nums: Sequence[int], tracked: Sequence[int]):
    """(prods, seens, zset, rin_failures) of the window |N_1|, ..., |N_k| = nums.

    At index n, prod is the product of the N_(n/q) over the primes q | n and
    seen the product of the tracked primes that divide an earlier numerator;
    n fails the inequality when |N_n| <= prod.  Membership is decided by
    size: rest, |N_n| without the tracked primes that divide seen, exceeding
    prod certifies a primitive prime, because every other earlier prime p of
    N_n has p^v_p(N_n) | prod, so the residue is at least rest / prod.  Only
    otherwise does one strip against prod * seen decide.  Index n reads only
    nums[:n]; no num may be 0.
    """
    index_primes = _index_primes(len(nums))
    prods, seens, zset, rin_failures = [], [], [], []
    seen = 1
    for n, num in enumerate(nums, start=1):
        prod = 1
        for q in index_primes[n - 1]:
            prod *= nums[n // q - 1]
        prods.append(prod)
        seens.append(seen)
        if num <= prod:
            rin_failures.append(n)
        rest = num
        for p in tracked:
            while seen % p == 0 and rest % p == 0:
                rest //= p
        if rest <= prod and strip_common_primes(num, prod * seen) == 1:
            zset.append(n)
        for p in tracked:
            if seen % p and num % p == 0:
                seen *= p
    return prods, seens, zset, rin_failures


class ZsigmondyReport(Record):
    """Every per-index answer of zsigmondy_set on one orbit.

    zset and rin_failures are decided by the walk that makes the report,
    which keeps, at index n, nums[n - 1] = |N_n|, prods[n - 1], the
    product of the N_(n/q) over the primes q | n, and seens[n - 1], the
    product of the den(c) primes that divide an earlier numerator.
    verdicts strips each index once, N_n against prod * seen, on first
    read; krieger_checks (vacuous wherever the residue exceeds 1) is
    built from the verdicts and prods, also on first read; both are
    kept.  Krieger's check runs at every index whose residue is 1, so on
    a window that is not rigidly divisible it shows where the size test
    behind zset does not apply.  Read-only by convention; the repr shows
    zset and rin_failures only.
    """

    _fields = ("nums", "prods", "seens", "zset", "rin_failures")
    _hidden = ("nums", "prods", "seens")

    def __init__(self, nums: tuple[int, ...], prods: tuple[int, ...], seens: tuple[int, ...],
                 zset: tuple[int, ...], rin_failures: tuple[int, ...]):
        self.nums = nums
        self.prods = prods
        self.seens = seens
        self.zset = zset
        self.rin_failures = rin_failures

    @cached_property
    def verdicts(self) -> tuple[PrimitiveDivisorVerdict, ...]:
        return tuple(PrimitiveDivisorVerdict(n, strip_common_primes(num, prod * seen))
                     for n, (num, prod, seen)
                     in enumerate(zip(self.nums, self.prods, self.seens), start=1))

    @cached_property
    def krieger_checks(self) -> tuple[tuple[int, KriegerStatus], ...]:
        # at a primitive-free index |N_n| must divide prod
        return tuple((v.n, KriegerStatus.VACUOUS if v.has_primitive
                      else KriegerStatus.HOLDS if prod % num == 0 else KriegerStatus.FAILS)
                     for v, num, prod in zip(self.verdicts, self.nums, self.prods))


def zsigmondy_set(orbit: OrbitRecord) -> ZsigmondyReport:
    """Zsigmondy set of the orbit on all its entries, with side checks.

    Refuses orbits that hit zero (preperiodic parameters have no
    interesting Zsigmondy window; periodic orbits through nonzero values
    are fine and typically put every index in the set).  rin_failures
    lists indices where the strict numerator-product inequality fails.
    Both come from _index_columns, the per-index rule every scan row runs
    too, which keeps |N_n|, prod and seen at each index; verdicts and
    krieger_checks are built from those on first read.

    At a prime power n = q^k of an all-deep orbit (every den(c) prime deep
    at index 1, so none is tracked) the residue is |N_n| / N_(n/q) exactly.
    A prime p of N_n with a rank of apparition m_p < n has m_p | n = q^k,
    so m_p | n/q; v_p is constant on multiples of m_p, so p^v_p(N_n)
    divides N_(n/q), and each prime of N_(n/q) divides N_n as often.
    """
    entries = orbit.entries
    if not entries:
        raise ValueError("empty window")
    nums = [abs(e.num) for e in entries]
    if 0 in nums:
        raise ValueError(f"value at index {nums.index(0) + 1} is zero; orbit is preperiodic")
    tracked = _tracked_primes(orbit.den_prime_support, entries[0].deep_valuations)
    prods, seens, zset, rin_failures = _index_columns(nums, tracked)
    return ZsigmondyReport(nums=tuple(nums), prods=tuple(prods), seens=tuple(seens),
                           zset=tuple(zset), rin_failures=tuple(rin_failures))


def evertse_bound(r: int, delta) -> float:
    """2e7 * delta^-4 * ln(4r) * ln(ln(4r)): unit-equation solution count cap.

    delta is checked and divided by exactly, so it may lie as close to 0 or 1
    as a Fraction can; OverflowError when the bound exceeds every float.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    delta = Fraction(delta)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    outer = math.log(4 * r)
    try:
        return float(Fraction(2e7 * outer * math.log(outer)) / delta**4)
    except OverflowError:
        raise OverflowError(f"evertse bound at delta = {delta} exceeds the float range") from None


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
    """ceil(3 log_d log2(lead^2 * D + 1)) + 2 * index_bound_n0(d).

    d^k meets log2(m)^3, m = lead^2 D + 1, in integers outside (L^3, (L + 1)^3).
    """
    if root_bound_value < 1:
        raise ValueError("root bound must be positive")
    m = lead * lead * root_bound_value + 1
    L = m.bit_length() - 1  # L <= log2 m < L + 1, and log2 m = L only for m = 2^L
    k = 0
    while d**k < L**3 or (d**k == L**3 and m != 1 << L):
        k += 1
    from .enclosure import ln, sign  # only the bound solvers need it

    # short of (L + 1)^3 the logs decide; log2 m is irrational, so only the cap gives 0
    while m != 1 << L and d**k < (L + 1) ** 3 and (
            s := sign(lambda prec: ln(m, prec) ** 3 - ln(2, prec) ** 3 * d**k)) >= 0:
        if s == 0:
            raise ArithmeticError("index bound n2 could not be certified")
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
    if ln_b == 0 or not math.isfinite(guess := 3 * ln_ab / ln_b):
        return None  # beta is so close to 1 that no m passes the bit-length rule
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
    from .enclosure import ln, sign  # only the bound solvers need it; scans never load it

    ab = alpha * beta
    s = sign(lambda prec: ln(beta, prec) ** 5 * d ** (2 * n) - ln(ab, prec) ** 5 * 243)
    if s == 0:
        raise ArithmeticError("growth threshold comparison could not be certified")
    return s > 0


def growth_threshold(d: int, alpha, beta) -> int:
    """Least n >= 30 with (d^n / 3 - d^(3n/5)) ln(beta) > d^(3n/5) ln(alpha).

    For n >= 30 the condition is equivalent to d^(2n) > R^5 with
    R = 3 ln(alpha beta) / ln(beta), which is monotone in n.  The search
    walks up from n = 30 and every comparison is certified exactly: in
    integers when R is an integer (the only case that can tie), otherwise
    by the sign of a zsig.enclosure difference.
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


class BoundReport(Record):
    """Everything the finiteness argument instantiates for one polynomial.

    Read-only by convention.
    """

    _fields = ("degree", "lead", "coefficient_length", "parameter_height", "preimage_depth",
               "root_bound", "n0", "n1", "n2", "evertse_at_n0", "region_thresholds")

    def __init__(self, degree: int, lead: int, coefficient_length: Fraction,
                 parameter_height: Fraction, preimage_depth: int, root_bound: int, n0: int,
                 n1: int, n2: int, evertse_at_n0: float, region_thresholds: dict):
        self.degree = degree
        self.lead = lead
        self.coefficient_length = coefficient_length
        self.parameter_height = parameter_height
        self.preimage_depth = preimage_depth
        self.root_bound = root_bound
        self.n0 = n0
        self.n1 = n1
        self.n2 = n2
        self.evertse_at_n0 = evertse_at_n0
        self.region_thresholds = region_thresholds

    def max_index_bound(self) -> int:
        """The largest of n1, n2 and the growth thresholds.

        Each threshold is at least 30, the floor its search starts from, so
        30 here says only that no threshold lies past that floor.
        """
        return max(self.n1, self.n2, *self.region_thresholds.values())


def bound_report(g: X2DivisiblePoly, parameter_height=None, preimage_depth: int = 3
                 ) -> BoundReport:
    """Assemble the explicit bounds for g: index cutoffs, root box, thresholds.

    region_thresholds gives the growth threshold in the three parameter
    regimes: "escape" (orbit past the escape radius), "monomial" (small
    parameter under a monomial), "bounded" (parameter inside the radius).
    growth_threshold searches from n = 30 up, so a threshold of 30 is that
    search floor, not a crossing the search found.
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
