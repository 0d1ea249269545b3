"""Exact integer and rational arithmetic primitives.

Everything here operates on plain Python ints and fractions.Fraction.
`factor_small` is the one factorizer: trial division up to 10^6, then a
deterministic rho split for cofactors below 2^128.  It returns only proven
primes and refuses, with IncompleteFactorizationError ("cannot certify"),
whenever it cannot finish.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import compress

# Deterministic Miller-Rabin witness set, valid for n < _MR_PROVEN_LIMIT.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_LIMIT = 3_317_044_064_679_887_385_961_981
# Extra fixed witnesses applied above that range (probable-prime semantics).
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

_TRIAL_LIMIT = 10**6  # factor_small trial-divides up to here
_RHO_LIMIT = 1 << 128  # cofactors at or above this are refused


class IncompleteFactorizationError(ArithmeticError, ValueError):
    """Raised when factor_small cannot finish: it is left with a composite
    it could not split or a prime too large to prove.  It is a ValueError
    too: the input cannot be certified, which is not a failed check of a
    computed result."""


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, via a byte sieve."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((limit - p * p) // p + 1)
    return tuple(compress(range(limit + 1), sieve))


def smallest_prime_factor_sieve(limit: int) -> list[int]:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit (spf[0] = spf[1] = 0).

    Backs the orbit index primes and the exhaustive small-n suites; one
    pass, O(limit log log limit).
    """
    spf = list(range(limit + 1))
    spf[0] = spf[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def _sieve_primes(spf: list[int], n: int) -> tuple[int, ...]:
    """Ascending distinct primes of 1 <= n < len(spf), read off the sieve."""
    primes = []
    while n > 1:
        p = spf[n]
        primes.append(p)
        while n % p == 0:
            n //= p
    return tuple(primes)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3 * 10^24; strong probable-prime beyond that
    (fixed witness set, so the answer is reproducible).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_PROVEN_LIMIT else _MR_BASES + _MR_EXTRA
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_proven_prime(n: int) -> bool:
    """Primality without a probable answer: Miller-Rabin where it is deterministic."""
    return n < _MR_PROVEN_LIMIT and is_probable_prime(n)


def _int_val(n: int, p: int) -> int:
    # exponent of p in |n|, n != 0; binary lifting keeps this fast when the
    # exponent itself is large (orbit denominators reach d^n * val_p(B_0))
    n = abs(n)
    if n % p:
        return 0
    powers = [p]
    while True:
        sq = powers[-1] * powers[-1]
        if n % sq:
            break
        powers.append(sq)
    e = 0
    for i in range(len(powers) - 1, -1, -1):
        if n % powers[i] == 0:
            n //= powers[i]
            e += 1 << i
    return e


def val_p(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational.

    val_p(a/b) = (exponent of p in a) - (exponent of p in b).  Rejects
    x == 0 (the valuation would be +infinity) and non-prime p.
    """
    if not is_probable_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if isinstance(x, Fraction):
        return _int_val(x.numerator, p) - _int_val(x.denominator, p)
    return _int_val(int(x), p)


def factor_small(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of |n| != 0, every prime proven.

    Trial division up to 10^6 finishes whenever |n| < 10^12 or every prime
    factor is < 10^6; a cofactor below 2^128 is then split with a
    deterministic Brent rho.  Anything left over -- a cofactor of 2^128 or
    more, a rare rho failure, or a prime of 3.3 * 10^24 or more, which
    Miller-Rabin can only call probable -- raises
    IncompleteFactorizationError ("cannot certify") rather than guess.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    found: dict[int, int] = {}
    if m > 1:
        for p in primes_up_to(10**5):
            if p * p > m:
                break
            if m % p == 0:
                e = _int_val(m, p)
                found[p] = e
                m //= p**e
        if m > 1 and not _is_proven_prime(m):
            # odd-step trial division above the sieved range; composite steps
            # are harmless because their prime parts are already stripped
            q = 100_001
            while q <= _TRIAL_LIMIT and q * q <= m:
                if m % q == 0:
                    e = _int_val(m, q)
                    found[q] = e
                    m //= q**e
                q += 2
    if m > 1:
        if m < _TRIAL_LIMIT**2 or _is_proven_prime(m):
            # no factor below the limit survives, so m < limit^2 forces m prime
            found[m] = 1
        elif m < _RHO_LIMIT and (leftovers := _split_completely(m)) is not None:
            for p in leftovers:
                found[p] = found.get(p, 0) + 1
        else:
            raise IncompleteFactorizationError(
                f"cannot certify the factorization of {n}: {m} left unfactored")
    return tuple(sorted(found.items()))


def _brent_rho(n: int) -> int | None:
    # one nontrivial factor of an odd composite n, deterministic parameters
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    return None


def _split_completely(n: int, depth: int = 0) -> list[int] | None:
    # full prime split of n via recursive rho; None when a split fails or
    # leaves a prime too large to prove
    if n == 1:
        return []
    if is_probable_prime(n):
        return [n] if n < _MR_PROVEN_LIMIT else None
    if depth > 64:
        return None
    f = _brent_rho(n)
    if f is None or f in (1, n):
        return None
    a = _split_completely(f, depth + 1)
    b = _split_completely(n // f, depth + 1)
    if a is None or b is None:
        return None
    return a + b


def omega(n: int) -> int:
    """Number of distinct prime divisors of |n|; omega(1) = 0.

    Raises on 0 and when the factorization cannot be completed.
    """
    return len(factor_small(n))


def distinct_prime_factors(n: int) -> tuple[int, ...]:
    """Ascending distinct primes of |n|.  Raises on 0 or incomplete factorization."""
    return tuple(p for p, _ in factor_small(n))


def strip_common_primes(r: int, s: int) -> int:
    """Largest divisor of r coprime to s (r >= 1, s >= 1).

    Iterated gcd with squaring removes every shared prime to full
    multiplicity without factoring either argument.
    """
    if r < 1 or s < 1:
        raise ValueError("strip_common_primes needs positive arguments")
    g = math.gcd(r, s)
    while g > 1:
        r //= g
        g = math.gcd(r, g * g)
    return r


def prime_quotient_power_sum(d: int, n: int) -> int:
    """Sum of d^(n/p) over the distinct primes p dividing n (exact integer)."""
    if d < 2:
        raise ValueError("d must be >= 2")
    if n < 2:
        raise ValueError("n must be >= 2")
    return sum(d ** (n // p) for p in distinct_prime_factors(n))


def ln_abs_int(n: int) -> float:
    """ln|n| for a nonzero int, accurate to ~1 ulp at any size.

    math.log takes an int of any size and reduces it through frexp itself;
    this wrapper only rejects 0.
    """
    if n == 0:
        raise ValueError("ln|0| is undefined")
    return math.log(abs(n))


def ln_abs_ratio(num: int, den: int) -> float:
    """ln|num/den| with den > 0; -inf when num == 0.

    Near-unity ratios go through log1p on the exact difference to dodge
    the cancellation in ln|num| - ln|den|; the result carries at least
    12 significant digits in every regime.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num == 0:
        return float("-inf")
    a = abs(num)
    if a == den:
        return 0.0
    if abs(a.bit_length() - den.bit_length()) <= 2:
        return math.log1p((a - den) / den)  # int division rounds once, with no gcd
    return ln_abs_int(a) - ln_abs_int(den)
