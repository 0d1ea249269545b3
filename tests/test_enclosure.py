"""Certified log enclosures against mpmath at four times the precision, and the
interval orbit step and log2 bounds against exact rationals."""
import random
from fractions import Fraction as F

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zsig.enclosure import (
    PRECISIONS,
    _atanh,
    enclose_ratio,
    ln,
    log2_bounds,
    log2_prime,
    orbit_step,
    power_le,
    sign,
)
from zsig.poly import X2DivisiblePoly


def _reference(a: int, b: int):
    """ln(a/b) at the working precision; log1p of the exact difference near 1.

    mpmath.log(mpf(a) / mpf(b)) rounds a and b first, which near 1 loses the
    digits that a - b keeps.
    """
    if abs(a.bit_length() - b.bit_length()) <= 2:
        return mpmath.log1p(mpmath.mpf(a - b) / b)
    return mpmath.log(mpmath.mpf(a)) - mpmath.log(mpmath.mpf(b))


def _assert_encloses(a: int, b: int, prec: int) -> None:
    e = ln((a, b), prec)
    if a == b:
        assert (e.lo, e.hi) == (0, 0)
        return
    with mpmath.workprec(4 * prec + 64):
        ref = _reference(a, b)
        assert mpmath.ldexp(e.lo, e.exp) <= ref <= mpmath.ldexp(e.hi, e.exp), (a, b, prec)
        assert mpmath.ldexp(e.hi - e.lo, e.exp) <= abs(ref) * mpmath.ldexp(1, -prec), (a, b, prec)


def _huge(bits: int, seed: int) -> int:
    return random.Random(seed).getrandbits(bits) | 1 << (bits - 1)


precisions = st.integers(53, 320)
ratios = st.one_of(
    st.tuples(st.integers(1, 10**300), st.integers(1, 10**300)),
    st.integers(1, 400).flatmap(lambda k: st.sampled_from(
        [(10**k + 1, 10**k), (10**k - 1, 10**k)])),
    st.integers(1, 3000).flatmap(lambda j: st.sampled_from(
        [(2**j + 1, 1), (2**j - 1, 1), (2**j + 1, 2**j)])),
    st.builds(lambda bits, seed: (_huge(bits, seed), 1),
              st.integers(100_001, 140_000), st.integers(0, 2**32)),
)


@settings(max_examples=300, deadline=None)
@given(ratio=ratios, below_one=st.booleans(), prec=precisions)
def test_ln_encloses_the_reference(ratio, below_one, prec):
    a, b = ratio
    _assert_encloses(*((b, a) if below_one else (a, b)), prec)


@settings(max_examples=200, deadline=None)
@given(e=st.integers(8, 400), data=st.data())
def test_atanh_series_bound_covers_its_whole_input_ulp(e, data):
    # every z in [q, q + 1] * 2^-e, so both ends; the width is the error bound itself
    q = data.draw(st.integers(0, (1 << e) // 3 - 1))
    t = _atanh(q, e)
    with mpmath.workprec(4 * e + 64):
        for z in (q, q + 1):
            value = mpmath.atanh(mpmath.ldexp(z, -e))
            assert mpmath.ldexp(t.lo, -e) <= value <= mpmath.ldexp(t.hi, -e)


def test_ln_reads_ints_fractions_and_unreduced_pairs():
    for x in (F(-7, 5), (-14, 10), (7 * 2**40, 5 * 2**40)):
        assert ln(x, 64) == ln(F(7, 5), 64)
    assert ln(-12, 64) == ln((12, 1), 64)


def test_sign_and_power_le_on_exact_ties():
    # ln 8 = 3 ln 2 and ln(9/4) = 2 ln(3/2): no precision separates them from 0
    assert sign(lambda prec: ln(8, prec) - ln(2, prec) * 3) == 0
    assert sign(lambda prec: ln(F(9, 4), prec) - ln(F(3, 2), prec) * 2) == 0
    assert sign(lambda prec: ln(2**64 + 1, prec) - ln(2, prec) * 64) == 1
    assert PRECISIONS[0] == 64 and all(q == 2 * p for p, q in zip(PRECISIONS, PRECISIONS[1:]))
    # so power_le answers from the integer powers, unreduced pairs included
    assert power_le(4, 3, 8, 2) and power_le(8, 2, 4, 3)
    assert power_le((6, 4), 2, (18, 8), 1) and power_le((18, 8), 1, (6, 4), 2)
    assert not power_le(2**60 + 1, 1, 2, 60) and power_le(2, 60, 2**60 + 1, 1)
    assert power_le(F(-1, 3), 5, 1, 7) and not power_le(3, 1, F(1, 3), 0)


def _ends(lo: int, hi: int, exp: int) -> tuple[F, F]:
    return F(lo) * F(2) ** exp, F(hi) * F(2) ** exp


_STEP_PRECISIONS = st.sampled_from([4, 8, *PRECISIONS[:3]])


@settings(max_examples=300, deadline=None)
@given(coeffs=st.lists(st.integers(-9, 9), min_size=0, max_size=3),
       lead=st.integers(-6, 6).filter(bool), c_num=st.integers(-10**6, 10**6),
       c_den=st.integers(1, 10**4), v_num=st.integers(-2**300, 2**300).filter(bool),
       v_bits=st.integers(0, 300), prec=_STEP_PRECISIONS, steps=st.integers(1, 3))
def test_orbit_step_encloses_the_exact_step(coeffs, lead, c_num, c_den, v_num, v_bits, prec,
                                            steps):
    """orbit_step from the enclosure of an exact v holds g(v) + c, step after step."""
    g = X2DivisiblePoly.from_coeffs([0, 0, *coeffs, lead])
    c, v = F(c_num, c_den), F(v_num, 1 << v_bits)
    lo, hi, exp = enclose_ratio(v.numerator, v.denominator, prec)
    low, high = _ends(lo, hi, exp)
    assert low <= v <= high and max(lo.bit_length(), hi.bit_length()) <= prec + 2
    for _ in range(steps):
        v = g(v) + c
        lo, hi, exp = orbit_step(lo, hi, exp, g._horner, c.numerator, c.denominator, prec)
        low, high = _ends(lo, hi, exp)
        assert low <= v <= high, (g, c, prec)
        assert max(lo.bit_length(), hi.bit_length()) <= prec + 1


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(-2**80, 2**80), width=st.integers(0, 2**70), exp=st.integers(-200, 200),
       prec=_STEP_PRECISIONS, picks=st.lists(st.integers(0, 2**70), min_size=1, max_size=3))
def test_orbit_step_encloses_every_point_of_an_interval(lo, width, exp, prec, picks):
    """An interval around 0 or of one sign: each point inside steps into the result."""
    g = X2DivisiblePoly.from_coeffs([0, 0, 3, -2, 1])
    c = F(-7, 3)
    hi = lo + width
    out = _ends(*orbit_step(lo, hi, exp, g._horner, c.numerator, c.denominator, prec))
    for k in [0, width, *(p % (width + 1) for p in picks)]:
        v = F(lo + k) * F(2) ** exp
        assert out[0] <= g(v) + c <= out[1]


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(1, 2**90), width=st.integers(0, 2**90), exp=st.integers(-300, 300),
       negative=st.booleans(), scale=st.sampled_from([4, 64, 128, 1024]))
@example(lo=1, width=2**90 - 2, exp=0, negative=False, scale=64)  # 2^90 - 1 cut and rounded up
def test_log2_bounds_hold_exactly(lo, width, exp, negative, scale):
    """log2_bounds gives one pair that brackets scale * log2|v| at both ends of the
    interval, 2^L <= |v|^scale and |v|^scale <= 2^U checked on exact powers, lies
    inside the bracket bit lengths alone give, and is within 3 units on a point."""
    hi = lo + width
    ends = (-hi, -lo) if negative else (lo, hi)
    low, high = log2_bounds(*ends, exp, scale)
    assert F(2) ** low <= (F(lo) * F(2) ** exp) ** scale
    assert (F(hi) * F(2) ** exp) ** scale <= F(2) ** high
    assert scale * (exp + lo.bit_length() - 1) <= low and high <= scale * (exp + hi.bit_length())
    if width == 0:
        assert high - low <= 3


def test_log2_prime_brackets_the_prime():
    """scale * log2 p lies in [lo, lo + 1], checked on exact powers of p; the tail
    passes scales 2^k * prec, so those are checked too."""
    for p in (2, 3, 5, 7, 11, 13, 10007):
        for scale in (4, 64, 256, 64 << 6, 256 << 6):
            low, high = log2_prime(p, scale)
            assert 2**low <= p**scale <= 2**high and high - low <= 1
    assert log2_prime(2, 64) == (64, 64) and log2_prime(2, 64 << 5) == (2048, 2048)
    # past what a power can check: the bracket still holds against a 200-bit log
    with mpmath.workprec(200):
        for k in (20, 40):
            low, high = log2_prime(3, 16384 << k)
            assert low < (16384 << k) * mpmath.log(3, 2) < high == low + 1
