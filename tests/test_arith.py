"""Integer and rational arithmetic primitives against independent oracles."""
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import zsig.arith as arith
import zsig.zsigmondy as zsigmondy
from zsig.arith import (
    _SSA_BITS,
    _TOOM_BITS,
    IncompleteFactorizationError,
    _split_completely,
    distinct_prime_factors,
    divisors,
    factor_small,
    is_probable_prime,
    ln_abs_ratio,
    mul,
    omega,
    prime_quotient_power_sum,
    primes_up_to,
    strip_common_primes,
    val_p,
)
from zsig.cli import main
from zsig.orbit import decide_membership, iterate
from zsig.poly import RatPolynomial, X2DivisiblePoly, critical_points_rational, scale_to_integer
from zsig.lemmas import excess_primes
from zsig.zsigmondy import PrimitiveDivisorVerdict


def test_primes_up_to_matches_sympy():
    assert primes_up_to(100) == tuple(sympy.primerange(2, 101))
    assert primes_up_to(2) == (2,)
    assert primes_up_to(1) == ()
    # the list trial division takes from 10^6 on
    assert primes_up_to(10**5) == tuple(sympy.primerange(2, 10**5 + 1))


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


def test_factor_small_matches_sympy_on_both_sides_of_the_short_prime_list():
    # below 10^6 trial division stops at the primes below 1000; 997^2 = 994009
    for n in (*range(2, 20001), *range(999_000, 1_000_051)):
        assert factor_small(n) == tuple(sorted(sympy.factorint(n).items())), n


def test_numbers_below_a_million_never_build_the_long_sieve(monkeypatch, capsys):
    limits = []
    real = arith.primes_up_to

    def spy(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(arith, "primes_up_to", spy)
    monkeypatch.setattr(zsigmondy, "primes_up_to", spy)
    for n in (*range(-300, 0), *range(1, 3000), 994_009, 999_983, 999_999):
        factor_small(n)
    residues = (999_983, 994_009, 2 * 499_979)  # under 10^6: a prime, 997^2, a prime times 2
    assert [PrimitiveDivisorVerdict(1, r).witness_prime for r in residues] == [999_983, 997, 2]
    assert main(["orbit", "--poly", "x^3+x^2", "--c=1/2", "--horizon", "6"]) == 0
    assert main(["scan", "--poly", "x^3+x^2", "--num-bound", "20", "--den-bound", "6"]) == 0
    assert "scanned 155 parameters" in capsys.readouterr().err
    assert limits and 10**5 not in limits
    # the spy sees the long route too
    factor_small(1_000_003)
    assert limits[-1] == 10**5


def test_divisors_match_sympy():
    rng = random.Random(31)
    for n in (1, 2, 720, 2**20, *(rng.randrange(2, 10**9) for _ in range(300))):
        assert divisors(factor_small(n)) == sympy.divisors(n), n


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


def test_rho_backtracks_when_a_batch_gcd_overshoots():
    # the batched product collapses to n for these, so rho replays its last batch
    for n in (49, 55, 65, 77, 91, 143, 361):
        assert _split_completely(n) == sympy.factorint(n, multiple=True), n


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


def test_ln_abs_ratio_integer_accuracy():
    """ln|n/1| against mpmath at sizes far past float overflow."""
    import mpmath

    for n in [1, 2, 3, 10**10, 2**600 + 12345, 3**5000, -(7**1234)]:
        if n == 0:
            continue
        expected = float(mpmath.log(abs(mpmath.mpf(n)))) if abs(n) < 10**300 else None
        got = ln_abs_ratio(n, 1)
        with mpmath.workprec(300):
            ref = float(mpmath.log(abs(mpmath.mpmathify(n))))
        assert got == pytest.approx(ref, rel=1e-12)
        if expected is not None:
            assert got == pytest.approx(expected, rel=1e-12)
    assert ln_abs_ratio(0, 1) == float("-inf")
    with pytest.raises(ValueError):
        ln_abs_ratio(1, 0)


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
    # |num| == den is log1p(0.0): exactly +0.0, at any size
    for num, den in ((7, 7), (-7, 7), (_CLOSE, _CLOSE), (-_CLOSE, _CLOSE)):
        value = ln_abs_ratio(num, den)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


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
        lambda: critical_points_rational(RatPolynomial.from_coeffs([0, big, 1])),
    ]
    for call in calls:
        with pytest.raises(IncompleteFactorizationError, match="^cannot certify"):
            call()


def _operand(rng, bits, shape):
    if shape == "power of two":  # the c = 1/2 orbit's denominators are 2^k
        return 1 << (bits - 1)
    if shape == "all ones":  # every evaluation point carries
        return (1 << bits) - 1
    return rng.getrandbits(bits) | 1 << (bits - 1)


SHAPES = st.sampled_from(("random", "power of two", "all ones"))


@settings(max_examples=60, deadline=None)
@given(
    short=st.integers(_TOOM_BITS - 1, 4 * _TOOM_BITS),
    quarters=st.integers(4, 16),  # long / short from 1:1 to 4:1
    shapes=st.tuples(SHAPES, SHAPES),
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_is_the_plain_product(short, quarters, shapes, signs, seed):
    rng = random.Random(seed)
    a = signs[0] * _operand(rng, short * quarters // 4, shapes[0])
    b = signs[1] * _operand(rng, short, shapes[1])
    assert mul(a, b) == a * b
    assert mul(b, a) == a * b
    assert mul(a, a) == a * a  # a is b: the squaring path
    assert mul(b, b) == b * b
    assert mul(a, 0) == 0 == mul(0, b)


def test_mul_takes_toom3_from_the_cutoff(monkeypatch):
    """Operands under _TOOM_BITS go to CPython's multiply; from the cutoff on, to Toom-3."""
    calls = []
    real = arith._toom3

    def spy(a, b, n):
        calls.append(n)
        return real(a, b, n)

    monkeypatch.setattr(arith, "_toom3", spy)
    below = (1 << (_TOOM_BITS - 1)) - 3
    at = (1 << _TOOM_BITS) - 5
    assert mul(below, below) == below * below and mul(below, at) == below * at
    assert calls == []
    assert mul(at, at) == at * at and mul(-at, at + 2) == -at * (at + 2)
    assert calls[0] == _TOOM_BITS and len(calls) == 2
    # a lopsided pair is cut into pieces the length of the shorter operand
    calls.clear()
    longer = (1 << (4 * _TOOM_BITS)) - 7
    assert mul(longer, at) == longer * at
    assert calls == [_TOOM_BITS] * 4


@settings(max_examples=12, deadline=None)
@given(
    product=st.integers(_SSA_BITS - 4000, 2 * _SSA_BITS),
    tenths=st.integers(10, 32),  # long / short from 1:1 to just past 3:1
    shapes=st.tuples(SHAPES, SHAPES),
    signs=st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
    seed=st.integers(0, 2**32 - 1),
)
def test_mul_past_the_ssa_cutoff_is_the_plain_product(product, tenths, shapes, signs, seed):
    rng = random.Random(seed)
    short = product * 10 // (10 + tenths)
    a = signs[0] * _operand(rng, product - short, shapes[0])
    b = signs[1] * _operand(rng, short, shapes[1])
    assert mul(a, b) == a * b
    assert mul(b, a) == a * b
    assert mul(a, a) == a * a
    assert mul(a, 0) == 0 == mul(0, b)


@given(st.integers(_SSA_BITS, 10**8))
def test_ssa_layout_fits_every_split(n):
    k, m, big = arith._ssa_layout(n)
    size = 1 << k
    assert m % 8 == 0 and big % (size // 2) == 0 and big >= 2 * m + k + 1
    assert 2 * big // size >= 2  # every twiddle shift is at most N - 2 bits
    for na in (1, n // 3, n // 2, n - 1):
        assert -(-na // m) + -(-(n - na) // m) - 1 <= size


def test_ssa_forward_twice_is_the_scaled_negation():
    """_ssa inverts with the forward transform: applied to its own output put back
    in natural order, it gives 2^k x[-t mod 2^k] mod 2^N + 1 at the bit-reversed
    position of t, for every k the layout takes up to 10^8 product bits and
    residues anywhere in (-2^(N+1), 2^(N+1)), where the stored ones stay."""
    rng = random.Random(2357)
    first, last = arith._ssa_layout(_SSA_BITS)[0], arith._ssa_layout(10**8)[0]
    assert (first, last) == (8, 12)
    for k in range(first, last + 1):
        n = max(_SSA_BITS, 4 << 2 * k)  # the fewest product bits with this k
        layout_k, _, big = arith._ssa_layout(n)
        assert layout_k == k
        size, modulus, mask = 1 << k, (1 << big) + 1, (1 << big) - 1
        x = [rng.randrange(1 - (2 << big), 2 << big) for _ in range(size)]
        reverse = [int(f"{t:0{k}b}"[::-1], 2) for t in range(size)]
        once = arith._ssa_forward(list(x), big, mask)
        twice = arith._ssa_forward([once[r] for r in reverse], big, mask)
        for t in range(size):
            assert (twice[reverse[t]] - (x[-t % size] << k)) % modulus == 0, (k, t)


def test_ssa_exact_fill_and_extreme_coefficients():
    """All-ones operands whose pieces fill the transform exactly.

    Every piece is 2^M - 1, so the middle coefficients reach their largest
    value, where N >= 2M + k + 1 is tight.
    """
    k, m, _ = arith._ssa_layout(256 * 2152)
    assert (k, m) == (8, 2152)
    na, nb = 128 * m + m // 2, 127 * m + m // 2  # 129 + 128 pieces: 256 coefficients
    a, b = (1 << na) - 1, (1 << nb) - 1
    assert arith._ssa(a, b, na, nb) == a * b
    assert mul(a, -b) == -a * b
    assert mul(a, a) == a * a


def test_mul_takes_ssa_from_its_cutoff(monkeypatch):
    """The transform runs from _SSA_BITS product bits on, up to 3:1 operands."""
    calls = []
    real = arith._ssa

    def spy(a, b, na, nb):
        calls.append(na + nb)
        return real(a, b, na, nb)

    monkeypatch.setattr(arith, "_ssa", spy)
    half = _SSA_BITS // 2
    below, at = (1 << (half - 1)) - 3, (1 << half) - 5
    assert mul(below, at) == below * at and mul(below, below) == below * below
    assert calls == []
    assert mul(at, at) == at * at and mul(-at, at + 2) == -at * (at + 2)
    assert calls == [_SSA_BITS, _SSA_BITS]
    calls.clear()
    third = _SSA_BITS // 4
    lopsided = (1 << (3 * third)) - 9
    b = (1 << third) - 1
    assert mul(lopsided, b) == lopsided * b and calls == [4 * third]
    calls.clear()
    assert mul(lopsided << 1, b) == (lopsided << 1) * b  # past 3:1: cut into pieces
    assert calls == []
    power = 1 << _SSA_BITS
    assert mul(power, at) == power * at and mul(power, power) == power * power
    assert calls == []


def test_mul_by_a_power_of_two_is_a_shift(monkeypatch):
    def no_kernel(*args):
        raise AssertionError("a power of two reached a multiply kernel")

    monkeypatch.setattr(arith, "_toom3", no_kernel)
    monkeypatch.setattr(arith, "_ssa", no_kernel)
    rng = random.Random(77)
    for bits in (_TOOM_BITS, 3 * _TOOM_BITS, _SSA_BITS):
        power = 1 << bits
        other = rng.getrandbits(bits) | 1 << (bits - 1)
        for x in (other, -other):
            assert mul(power, x) == power * x == mul(x, power)
            assert mul(-power, x) == -power * x == mul(x, -power)
        assert mul(power, power) == power * power
        negative = -power
        assert mul(negative, negative) == power * power
