"""Integer and rational arithmetic primitives against independent oracles."""
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from zsig.arith import (
    IncompleteFactorizationError,
    _sieve_primes,
    distinct_prime_factors,
    factor_small,
    is_probable_prime,
    ln_abs_int,
    ln_abs_ratio,
    omega,
    prime_quotient_power_sum,
    primes_up_to,
    smallest_prime_factor_sieve,
    strip_common_primes,
    val_p,
)
from zsig.orbit import decide_membership, iterate
from zsig.poly import RatPolynomial, X2DivisiblePoly, _divisors_from_factorization, scale_to_integer
from zsig.zsigmondy import excess_primes


def test_primes_up_to_matches_sympy():
    assert primes_up_to(100) == tuple(sympy.primerange(2, 101))
    assert primes_up_to(2) == (2,)
    assert primes_up_to(1) == ()
    # the size witness naming sieves to
    assert primes_up_to(10**5) == tuple(sympy.primerange(2, 10**5 + 1))


def test_smallest_prime_factor_sieve():
    spf = smallest_prime_factor_sieve(1000)
    for n in range(2, 1001):
        assert spf[n] == min(sympy.primefactors(n))


@given(limit=st.integers(1, 500), data=st.data())
def test_sieve_primes_match_distinct_prime_factors(limit, data):
    spf = smallest_prime_factor_sieve(limit)
    n = data.draw(st.integers(1, limit))
    assert _sieve_primes(spf, n) == distinct_prime_factors(n)


def test_probable_prime_agrees_with_sympy():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 10**12)
        assert is_probable_prime(n) == sympy.isprime(n), n
    # a few structured stress values
    for n in [2, 3, 4, 561, 1105, 2**61 - 1, 2**89 - 1, 10**18 + 9]:
        assert is_probable_prime(n) == sympy.isprime(n), n


def test_val_p_frozen_and_additive():
    assert val_p(Fraction(12), 2) == 2
    assert val_p(Fraction(9, 2), 3) == 2
    assert val_p(Fraction(9, 2), 2) == -1
    assert val_p(Fraction(26), 13) == 1  # frozen
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 13])
        x = Fraction(rng.randrange(-500, 501) or 1, rng.randrange(1, 300))
        y = Fraction(rng.randrange(-500, 501) or 1, rng.randrange(1, 300))
        assert val_p(x * y, p) == val_p(x, p) + val_p(y, p)


def test_val_p_rejects_zero_and_composite_modulus():
    with pytest.raises(ValueError):
        val_p(Fraction(0), 2)
    with pytest.raises(ValueError):
        val_p(Fraction(5), 4)


def test_val_p_exactly_one_side_contributes():
    # for coprime a, b exactly one of val_p(a), val_p(b) is nonzero
    rng = random.Random(23)
    for _ in range(200):
        x = Fraction(rng.randrange(-10**6, 10**6) or 1, rng.randrange(1, 10**4))
        p = rng.choice([2, 3, 5, 7, 11])
        vn = val_p(Fraction(x.numerator), p) if x.numerator else 0
        vd = val_p(Fraction(x.denominator), p)
        assert val_p(x, p) == vn - vd
        assert vn == 0 or vd == 0


def test_omega_frozen_cases():
    assert omega(1) == 0
    assert omega(-1) == 0
    assert omega(12) == 2
    assert omega(30) == 3  # frozen
    with pytest.raises(ValueError):
        omega(0)


def test_omega_matches_sympy_on_random_values():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(2, 10**9)
        assert omega(n) == len(sympy.factorint(n)), n


def test_factor_small_frozen():
    assert factor_small(52023) == ((3, 1), (17341, 1))
    assert factor_small(-52023) == ((3, 1), (17341, 1))
    assert factor_small(1) == ()
    assert factor_small(2**20) == ((2, 20),)


def test_factor_small_reconstruct_random():
    rng = random.Random(13)
    for _ in range(120):
        n = rng.randrange(2, 10**10)
        fac = factor_small(n)
        assert math.prod(p**e for p, e in fac) == n
        assert dict(fac) == sympy.factorint(n)


def test_factor_small_incomplete_on_large_semiprime():
    # two primes far above the trial limit; p*q (about 2^145) is past the rho limit
    p = sympy.nextprime(2**70)
    q = sympy.nextprime(2**75)
    with pytest.raises(IncompleteFactorizationError,
                       match=f"^cannot certify the factorization of {p * q}: {p * q} left"):
        factor_small(p * q)


def test_factor_small_leaves_unproven_primes_unfactored():
    big = 10**30 + 57  # prime, but past the deterministic Miller-Rabin range
    assert sympy.isprime(big) and is_probable_prime(big)
    with pytest.raises(IncompleteFactorizationError, match=f": {big} left unfactored$"):
        factor_small(big)
    with pytest.raises(IncompleteFactorizationError,
                       match=f"^cannot certify the factorization of {12 * big}: {big} left"):
        factor_small(12 * big)
    # a rho split whose large half cannot be proven prime is refused whole
    small, large = sympy.nextprime(10**7), sympy.nextprime(10**25)
    with pytest.raises(IncompleteFactorizationError, match=f": {small * large} left unfactored$"):
        factor_small(small * large)
    # below the proven range the same split completes
    mid = sympy.nextprime(10**18)
    assert factor_small(small * mid) == ((small, 1), (mid, 1))
    with pytest.raises(IncompleteFactorizationError):
        omega(big)


def test_strip_common_primes():
    assert strip_common_primes(24, 6) == 1
    assert strip_common_primes(26, 10) == 13  # frozen
    assert strip_common_primes(35, 4) == 35
    assert strip_common_primes(1, 99) == 1
    rng = random.Random(3)
    for _ in range(200):
        r = rng.randrange(1, 10**12)
        s = rng.randrange(1, 10**12)
        out = strip_common_primes(r, s)
        assert r % out == 0
        assert math.gcd(out, s) == 1
        # the removed part carries only primes of s
        removed = r // out
        while removed > 1:
            g = math.gcd(removed, s)
            assert g > 1
            removed //= g


def test_power_sum_frozen_and_wrapper():
    assert prime_quotient_power_sum(3, 6) == 36
    assert prime_quotient_power_sum(3, 5) == 3
    assert prime_quotient_power_sum(2, 12) == 80  # frozen: 2^6 + 2^4
    with pytest.raises(ValueError):
        prime_quotient_power_sum(1, 6)


def test_power_sum_matches_direct_formula():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randrange(2, 4000)
        d = rng.randrange(2, 7)
        expected = sum(d ** (n // p) for p in sympy.primefactors(n))
        assert prime_quotient_power_sum(d, n) == expected


def test_distinct_prime_factors():
    assert distinct_prime_factors(12) == (2, 3)
    assert distinct_prime_factors(-30) == (2, 3, 5)
    assert distinct_prime_factors(1) == ()


def test_ln_abs_int_accuracy():
    """Exact-shift log against mpmath at sizes far past float overflow."""
    import mpmath

    for n in [1, 2, 3, 10**10, 2**600 + 12345, 3**5000, -(7**1234)]:
        if n == 0:
            continue
        expected = float(mpmath.log(abs(mpmath.mpf(n)))) if abs(n) < 10**300 else None
        got = ln_abs_int(n)
        with mpmath.workprec(300):
            ref = float(mpmath.log(abs(mpmath.mpmathify(n))))
        assert got == pytest.approx(ref, rel=1e-12)
        if expected is not None:
            assert got == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        ln_abs_int(0)


# bit-lengths within 2 take the log1p path
_CLOSE = 2**4000 + 987654321
CLOSE_RATIOS = [(_CLOSE, 2**4000), (_CLOSE, _CLOSE - 1), (3**300, 2**475), (7, 8)]


def test_ln_abs_ratio_close_values():
    import mpmath

    for num, den in CLOSE_RATIOS:
        with mpmath.workprec(300):
            ref = float(mpmath.log(mpmath.mpf(num) / den)) if num < 10**200 else \
                float(mpmath.log(mpmath.mpmathify(num)) - mpmath.log(mpmath.mpmathify(den)))
        assert ln_abs_ratio(num, den) == pytest.approx(ref, rel=1e-11, abs=1e-13)


def test_ln_abs_ratio_runs_no_gcd_on_close_values(monkeypatch):
    """log1p reads the exact difference by one int division; no fraction is reduced."""
    sizes = []
    real_gcd = math.gcd

    def spy(*args):
        sizes.append(max(a.bit_length() for a in args))
        return real_gcd(*args)

    expected = [math.log1p(float(Fraction(num - den, den))) for num, den in CLOSE_RATIOS]
    monkeypatch.setattr(math, "gcd", spy)
    assert [ln_abs_ratio(num, den) for num, den in CLOSE_RATIOS] == expected
    assert max(sizes, default=0) <= 64


def test_incomplete_factorization_error_is_arithmetic_error():
    assert issubclass(IncompleteFactorizationError, ArithmeticError)
    assert issubclass(IncompleteFactorizationError, ValueError)


def test_every_complete_factorization_refuses_through_one_route():
    """Each caller that needs all primes of an uncertifiable number says "cannot certify"."""
    big = 10**30 + 57  # prime, but past the deterministic Miller-Rabin range
    cubic = X2DivisiblePoly.parse("x^3+x^2")
    calls = [
        lambda: omega(big),
        lambda: distinct_prime_factors(big),
        lambda: decide_membership(cubic, Fraction(1, big)),
        lambda: iterate(cubic, Fraction(1, big), 4),
        lambda: excess_primes(big, 1),
        lambda: scale_to_integer(RatPolynomial.parse(f"x^3+1/{big}*x^2")),
        lambda: _divisors_from_factorization(big),
    ]
    for call in calls:
        with pytest.raises(IncompleteFactorizationError, match="^cannot certify"):
            call()
