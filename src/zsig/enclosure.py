"""Outward-rounded enclosures, the one way zsig compares logarithms.

Enclosure(lo, hi, exp) is the real interval [lo * 2^exp, hi * 2^exp], lo <= hi.
Sums and products are exact; ln rounds its result outward (lo down, hi up).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

# the precisions sign tries in turn; past the last it reports the sides inseparable
PRECISIONS = tuple(64 << i for i in range(9))


@dataclass(frozen=True)
class Enclosure:
    lo: int
    hi: int
    exp: int = 0

    def __add__(self, other: Enclosure) -> Enclosure:
        e = min(self.exp, other.exp)
        s, o = self.exp - e, other.exp - e
        return Enclosure((self.lo << s) + (other.lo << o), (self.hi << s) + (other.hi << o), e)

    def __sub__(self, other: Enclosure) -> Enclosure:
        return self + Enclosure(-other.hi, -other.lo, other.exp)

    def __mul__(self, other: Enclosure | int) -> Enclosure:
        other = other if isinstance(other, Enclosure) else Enclosure(other, other)
        ends = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Enclosure(min(ends), max(ends), self.exp + other.exp)

    def __pow__(self, k: int) -> Enclosure:
        out = Enclosure(1, 1)
        for _ in range(k):
            out *= self
        return out

    def bounds(self) -> tuple[Fraction, Fraction]:
        scale = Fraction(2) ** self.exp
        return self.lo * scale, self.hi * scale


def _pair(x) -> tuple[int, int]:
    """(num, den) of an int, a Fraction or a (num, den) pair, which may be unreduced."""
    return x if isinstance(x, tuple) else (x.numerator, x.denominator)


def _atanh(q: int, e: int) -> Enclosure:
    """atanh(z) for every z in [q, q + 1] * 2^-e, where 0 <= q * 2^-e < 1/3.

    The series z + z^3/3 + ... runs on floored integers.  With z^2 < 1/9 each
    floored term is at most 3 ulps low, and the terms after the power floors
    to 0 sum to under 4 ulps.  z may exceed q * 2^-e by one ulp, where atanh
    has slope 1/(1 - z^2) <= 9/8: 2 more ulps.
    """
    y = q * q >> e
    term, total, j = q, 0, 0
    while term:
        total += term // (2 * j + 1)
        term = term * y >> e
        j += 1
    return Enclosure(total, total + 3 * j + 6, -e)


@lru_cache(maxsize=len(PRECISIONS))
def _ln2(e: int) -> Enclosure:
    return _atanh((1 << e) // 3, e) * 2  # ln 2 = 2 atanh(1/3)


def ln(x, prec: int) -> Enclosure:
    """ln|x| for a nonzero rational x, with relative width at most 2^-prec.

    x is an int, a Fraction or a (num, den) pair with den > 0.  x = 2^k * a/b
    with a/b in (1/2, 2), and ln(a/b) = 2 atanh(z), z = (a - b)/(a + b).  a - b
    is exact, so a ratio near 1 keeps its relative precision, and z is cut to
    about prec bits before the series, so a huge x costs one division.
    """
    a, b = _pair(x)
    a = abs(a)
    if a == 0 or b <= 0:
        raise ValueError("ln needs a nonzero numerator and a positive denominator")
    w = prec + prec.bit_length() + 16  # working bits: the series loses ~log2(terms)
    k = 0 if a < 2 * b and b < 2 * a else a.bit_length() - b.bit_length()
    if k > 0:
        b <<= k
    else:
        a <<= -k
    out = _ln2(w) * k
    diff, total = a - b, a + b
    if diff:
        e = w + total.bit_length() - abs(diff).bit_length()
        out += _atanh((abs(diff) << e) // total, e) * (1 if diff > 0 else -1) * 2
    shift = max(abs(out.lo).bit_length(), abs(out.hi).bit_length()) - prec - 8
    return out if shift <= 0 else Enclosure(out.lo >> shift, -(-out.hi >> shift), out.exp + shift)


def sign(build, precisions=PRECISIONS) -> int:
    """Sign of the number that build(prec) encloses, trying each precision in turn.

    0 means that even the last precision could not separate it from 0.
    """
    for prec in precisions:
        s = build(prec)
        if s.lo > 0 or s.hi < 0:
            return 1 if s.lo > 0 else -1
    return 0


def power_le(x, j: int, y, k: int) -> bool:
    """|x|^j <= |y|^k for nonzero rationals x, y (as ln takes them) and ints j, k >= 0.

    Decided by the sign of k ln|y| - j ln|x|, and from the integer powers
    when 256 bits cannot separate the two sides, as on an exact tie.
    """
    s = sign(lambda prec: ln(y, prec) * k - ln(x, prec) * j, PRECISIONS[:3])
    if s:
        return s > 0
    (a, b), (c, e) = _pair(x), _pair(y)
    return abs(a) ** j * e**k <= abs(c) ** k * b**j
