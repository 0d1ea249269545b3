"""Certified log enclosures against mpmath at four times the precision."""
import random
from fractions import Fraction as F

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from zsig.enclosure import PRECISIONS, _atanh, ln, power_le, sign


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
