"""Outward-rounded enclosures, the one way zsig compares logarithms and skips values.

Enclosure(lo, hi, exp) is the real interval [lo * 2^exp, hi * 2^exp], lo <= hi.
Sums and products are exact; ln rounds its result outward (lo down, hi up).

The value-free scan walks orbit values on the same (lo, hi, exp) triples as
plain ints: orbit_step encloses g(v) + c for a whole interval of v, rounding
each end outward to a fixed number of bits after every operation, and
log2_bounds turns an interval into integer bounds on scale * log2|v|.  A
decision read off them holds for the exact value; one they cannot settle
goes back to exact arithmetic, so no float ever decides anything.
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


def _ulps(a: int, b: int, exp: int) -> tuple[int, int]:
    """floor and ceil of a / (b * 2^exp), b > 0; an a/b below 2^exp, exp >= 0, is one ulp."""
    if exp >= 0 and a.bit_length() <= exp:
        return (-1, 0) if a < 0 else (0, 1) if a else (0, 0)
    a, b = (a, b << exp) if exp >= 0 else (a << -exp, b)
    return a // b, -(-a // b)


def enclose_ratio(num: int, den: int, prec: int) -> tuple[int, int, int]:
    """(lo, hi, exp) with num/den in [lo, hi] * 2^exp, ends of about prec bits; den > 0."""
    exp = num.bit_length() - den.bit_length() - prec
    return (*_ulps(num, den, exp), exp)


def orbit_step(lo: int, hi: int, exp: int, horner: tuple[int, tuple[int, ...]],
               c_num: int, c_den: int, prec: int) -> tuple[int, int, int]:
    """(lo', hi', exp') enclosing g(v) + c for every v in [lo, hi] * 2^exp.

    horner is g's (u_d, (u_(d-1), ..., u_2)), so g(v) = v^2 * h(v) with h
    run by Horner from u_d down, and c = c_num / c_den.  v^2 is squared with
    its sign, so an interval around 0 squares to [0, max^2].  Each product,
    with the coefficient or c added to it, is rounded outward to prec bits:
    lo down, hi up.  A v of one sign picks the ends of h * v by sign; only
    one around 0 takes the min and max of all four.
    """
    if lo >= 0:
        sq_lo, sq_hi = lo * lo, hi * hi
    elif hi <= 0:
        sq_lo, sq_hi = hi * hi, lo * lo
    else:
        sq_lo, sq_hi = 0, max(lo * lo, hi * hi)
    sq_exp = 2 * exp
    if (s := sq_hi.bit_length() - prec) > 0:
        sq_lo, sq_hi, sq_exp = sq_lo >> s, -(-sq_hi >> s), sq_exp + s
    h_lo, lower = horner
    h_hi = h_lo
    h_exp = 0
    for u in lower:
        if lo >= 0:
            h_lo, h_hi = h_lo * (lo if h_lo >= 0 else hi), h_hi * (hi if h_hi >= 0 else lo)
        elif hi <= 0:
            h_lo, h_hi = h_hi * (lo if h_hi >= 0 else hi), h_lo * (hi if h_lo >= 0 else lo)
        else:
            ends = (h_lo * lo, h_lo * hi, h_hi * lo, h_hi * hi)
            h_lo, h_hi = min(ends), max(ends)
        h_exp += exp
        if h_exp <= 0:
            h_lo, h_hi = h_lo + (u << -h_exp), h_hi + (u << -h_exp)
        else:  # floor and ceil of u / 2^h_exp: one ulp when u is below the last place
            h_lo, h_hi = h_lo + (u >> h_exp), h_hi - (-u >> h_exp)
        if (s := max(h_lo.bit_length(), h_hi.bit_length()) - prec) > 0:
            h_lo, h_hi, h_exp = h_lo >> s, -(-h_hi >> s), h_exp + s
    # sq_lo >= 0, so the sign of each end of h picks its partner in v^2
    out_exp = h_exp + sq_exp
    c_lo, c_hi = _ulps(c_num, c_den, out_exp)
    out_lo = h_lo * (sq_hi if h_lo < 0 else sq_lo) + c_lo
    out_hi = h_hi * (sq_lo if h_hi < 0 else sq_hi) + c_hi
    if (s := max(out_lo.bit_length(), out_hi.bit_length()) - prec) > 0:
        return out_lo >> s, -(-out_hi >> s), out_exp + s
    return out_lo, out_hi, out_exp


@lru_cache(maxsize=4096)
def _power_bits(y: int, k: int) -> int:
    """bitlen(y^k), so k * log2 y lies in [_power_bits(y, k) - 1, _power_bits(y, k))."""
    return (y**k).bit_length()


def log2_bounds(lo: int, hi: int, exp: int, scale: int) -> tuple[int, int]:
    """Integers L <= scale * log2|v| <= U for every v in [lo, hi] * 2^exp; 0 < lo or hi < 0.

    The smallest and largest |v| are cut to their top bitlen(scale) + 2
    bits (the largest rounded up), so on a point the pair is within 3
    units; U is also held to the bit-length bound scale * (exp +
    bitlen|v|), which the rounding up can pass.
    """
    a, b = (lo, hi) if lo > 0 else (-hi, -lo)
    keep = scale.bit_length() + 2
    s = max(a.bit_length() - keep, 0)
    t = max(b.bit_length() - keep, 0)
    return (scale * (exp + s) + _power_bits(a >> s, scale) - 1,
            min(scale * (exp + t) + _power_bits((b >> t) + (t > 0), scale),
                scale * (exp + b.bit_length())))


@lru_cache(maxsize=256)
def log2_prime(p: int, scale: int) -> tuple[int, int]:
    """Integers lo <= scale * log2 p <= hi = lo + 1 for a prime p; exact for p = 2.

    Read off ln p / ln 2 at rising precision: log2 p is irrational for an
    odd p, so some precision puts both ends between the same two integers.
    """
    if p == 2:
        return scale, scale
    w = scale.bit_length() + p.bit_length().bit_length() + 4
    while True:
        num, two = ln(p, w), ln(2, w)
        exp = two.exp - num.exp
        lo, hi = _ulps(scale * num.lo, two.hi, exp)[0], _ulps(scale * num.hi, two.lo, exp)[1]
        if hi - lo <= 1:
            return lo, hi
        w *= 2
