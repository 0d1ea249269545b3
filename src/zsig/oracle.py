"""Naive routes kept as oracles for the fast path.

brute_force_verdict detects a repeat on plain Fractions, against
decide_membership; iterate_rational applies any rational map to plain
Fractions, against iterate.  Generic value sequences have no rigid
divisibility and are stripped against every earlier numerator:
primitive_divisor_verdicts does that, against zsigmondy_set.  zsig verify
and the tests read this module; no scan or single orbit imports it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .arith import strip_common_primes
from .poly import RatPolynomial, X2DivisiblePoly
from .zsigmondy import PrimitiveDivisorVerdict


def brute_force_verdict(g: X2DivisiblePoly, c, steps: int = 500,
                        bit_cap: int = 10**6) -> Optional[tuple[str, int, int]]:
    """Independent repeat detector on plain Fractions, for cross-checking.

    Returns ("finite", tail, cycle) when a repeat shows up within the
    step and size limits, None when nothing can be concluded.
    """
    c = Fraction(c)
    seen: dict[Fraction, int] = {}
    x = c
    for n in range(1, steps + 1):
        if x in seen:
            return ("finite", seen[x], n - seen[x])
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > bit_cap:
            return None
        seen[x] = n
        x = g(x) + c
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


def _abs_numerators(values: Iterable) -> list[int]:
    nums = []
    for i, v in enumerate(values, start=1):
        a = Fraction(v).numerator if not isinstance(v, int) else v
        if a == 0:
            raise ValueError(f"value at index {i} is zero; orbit is preperiodic")
        nums.append(abs(a))
    return nums


def _strip_index(nums: Sequence[int], n: int) -> int:
    """N_n without the primes it shares with N_1 .. N_(n-1); 1 if none is left."""
    residue = nums[n - 1]
    for k in range(n - 1):
        if residue == 1:
            break
        residue = strip_common_primes(residue, nums[k])
    return residue


def primitive_divisor_verdicts(values: Iterable) -> tuple[PrimitiveDivisorVerdict, ...]:
    """Primitivity verdicts for a generic value sequence (1-indexed)."""
    nums = _abs_numerators(values)
    return tuple(PrimitiveDivisorVerdict(n, _strip_index(nums, n))
                 for n in range(1, len(nums) + 1))


def zsigmondy_of_values(values: Iterable) -> tuple[int, ...]:
    """Indices of the sequence with no primitive prime."""
    return tuple(v.n for v in primitive_divisor_verdicts(values) if not v.has_primitive)
