"""Exact integer and rational arithmetic primitives.

Everything here operates on plain Python ints and fractions.Fraction.
`factor_small` is the one factorizer: trial division up to 10^6, then a
deterministic rho split for cofactors below 2^128.  It returns only proven
primes and refuses, with IncompleteFactorizationError ("cannot certify"),
whenever it cannot finish.  `mul` is the exact product the orbit step
uses on big operands: a shift for a power of two, a Schönhage-Strassen
transform for products of 340000 bits or more, whose one butterfly
routine also inverts it, and CPython's own multiply for the rest.  One
forked helper process works beside the caller on a second CPU: mul hands
it part of each big product, and `power_on_helper` a big den^d, which then
runs beside the numerator's chain.  `Record` is the base of the package's
value records.
"""
from __future__ import annotations

import _thread
import atexit
import math
import os
import sys
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
_MUL_BITS = 24_000  # mul hands a pair whose shorter operand is under this to CPython at once
_SSA_BITS = 340_000  # product bits from which mul takes Schönhage-Strassen (at most 3:1)
_HELPER_BITS = 50_000  # den bits, or shorter-operand bits, from which the helper takes part


class Record:
    """Equality, hash, repr and _replace derived from _fields, a class's field names.

    A subclass lists _fields in constructor order and writes its own
    __init__.  Records of one class are equal when their _key() tuples
    are (all of _fields unless the class narrows it); a record never
    equals one of another class.  The repr leaves out the _hidden fields,
    which can hold million-bit ints.  Records are read-only by convention:
    _replace(**changes) makes a changed copy, as on a namedtuple.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields if f not in self._hidden)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def _replace(self, **changes):
        return type(self)(**{f: getattr(self, f) for f in self._fields} | changes)


class IncompleteFactorizationError(ArithmeticError, ValueError):
    """Raised when factor_small cannot finish: it is left with a composite
    it could not split or a prime too large to prove.  It is a ValueError
    too: the input cannot be certified, which is not a failed check of a
    computed result."""


@lru_cache(maxsize=8)
def primes_up_to(limit: int) -> tuple[int, ...]:
    """All primes <= limit, via a byte sieve: the package's one prime list."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray((limit - p * p) // p + 1)
    return tuple(compress(range(limit + 1), sieve))


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


def trial_primes(n: int) -> tuple[int, ...]:
    """Ascending primes that factor_small and witness naming trial-divide n >= 1 by.

    Below 10^6, n with no prime factor under 1000 is 1 or prime, so those
    primes suffice and the sieve to 10^5, which larger n get, is never built.
    """
    return primes_up_to(1000 if n < 10**6 else 10**5)


def factor_small(n: int) -> tuple[tuple[int, int], ...]:
    """Ascending (prime, exponent) pairs of |n| != 0, every prime proven.

    Trial division (trial_primes(|n|), then odd steps to 10^6) finishes
    whenever |n| < 10^12 or every prime factor is < 10^6; a cofactor below
    2^128 is then split with a deterministic Brent rho.  Anything left over
    -- a cofactor of 2^128 or more, a rare rho failure, or a prime of
    3.3 * 10^24 or more, which Miller-Rabin can only call probable --
    raises IncompleteFactorizationError ("cannot certify") rather than guess.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    m = abs(n)
    found: dict[int, int] = {}
    if m > 1:
        primes = trial_primes(m)
        for p in primes:
            if p * p > m:
                break
            if m % p == 0:
                e = _int_val(m, p)
                found[p] = e
                m //= p**e
        if m > 1 and not _is_proven_prime(m):
            # odd-step trial division above the sieved range; composite steps
            # are harmless because their prime parts are already stripped
            q = primes[-1] + 2
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
    # full prime split of an odd n > 1 via recursive rho; None when a split
    # fails or leaves a prime too large to prove
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


def divisors(factorization) -> list[int]:
    """Ascending divisors of the product of p^e over the (p, e) pairs given."""
    divs = [1]
    for p, e in factorization:
        divs = [m * p**k for m in divs for k in range(e + 1)]
    return sorted(divs)


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
    if abs(a.bit_length() - den.bit_length()) <= 2:
        return math.log1p((a - den) / den)  # int division rounds once, with no gcd
    return math.log(a) - math.log(den)  # math.log takes an int of any size


def mul(a: int, b: int) -> int:
    """a * b, exact, by one of two kernels once both operands reach _MUL_BITS bits.

    A product of _SSA_BITS bits or more whose longer operand is at most 3
    times the shorter goes to a Schönhage-Strassen transform over
    Z/(2^N + 1) (`_ssa`); every other pair is CPython's own multiply, which
    is Karatsuba on big operands.  A power of two of either sign is a shift,
    and squares share the one path: mul(a, a) hands the transform a square.
    Against a * b (CPython 3.11.7, AMD EPYC; the README has the table) the
    transform takes 0.84-0.99 of the time at 3.4 * 10^5 product bits, where
    balanced pairs cross over, and 0.26-0.30 at 5.1 * 10^6.

    Past the shifts, a pair whose shorter operand has _HELPER_BITS bits or
    more is split with the helper process whenever it is idle (`_split`):
    the helper multiplies the high half of the longer operand by the other,
    this side the low half.  A square a^2, with a = hi 2^h + lo and hi its
    top third, sends hi * (hi 2^h + 2 lo) over and squares lo here.  Both
    sides multiply their part by these same kernels, and a pipe failure
    makes this side compute the helper's part too, so the product never
    depends on where it ran.  Nothing splits while a request is in flight:
    not this side's part, and not den^d's chain.
    """
    square = a is b
    negative = (a < 0) != (b < 0)
    a = abs(a)
    b = a if square else abs(b)
    na, nb = a.bit_length(), b.bit_length()
    if na < nb:
        a, b, na, nb = b, a, nb, na
    if nb < _MUL_BITS:
        r = a * b
    elif a.bit_count() == 1:
        r = b << (na - 1)
    elif b.bit_count() == 1:
        r = a << (nb - 1)
    elif nb >= _HELPER_BITS and _helper_lock.acquire(False):
        r = _split(a, b, na, nb)
    else:
        r = _kernel(a, b, na, nb)
    return -r if negative else r


def _kernel(a: int, b: int, na: int, nb: int) -> int:
    # a * b for a >= b > 0 of na >= nb bits on this CPU; a is b squares
    if na + nb >= _SSA_BITS and na <= 3 * nb:
        return _ssa(a, b, na, nb)
    return a * b


def _split(a: int, b: int, na: int, nb: int) -> int:
    """a * b for a >= b > 0, part of it on the helper; a is b squares.

    Called with _helper_lock held, which keeps this side's products inline.
    With a = hi 2^h + lo, a * b = hi far 2^h + near: hi * far goes to the
    helper, and near is multiplied here.  A pair takes h = na // 2, far = b
    and near = lo b.  A square takes hi as the top (na + 3) // 3 bits of a,
    far = hi 2^h + 2 lo and near = lo^2: far has at most na + 1 <= 3
    hi.bit_length() bits, which keeps the helper's pair within the
    transform's 3:1, and lo is two thirds of a's length.  Each side's
    product then has about 4 na / 3 bits, so both reach _SSA_BITS from about
    2.55 * 10^5 bits on; a top quarter would send a 4:1 pair, which misses
    the transform.
    """
    square = a is b
    h = na - (na + 3) // 3 if square else na >> 1
    hi, lo = a >> h, a & ((1 << h) - 1)
    far = (hi << h) + (lo << 1) if square else b
    if not _request(0, hi, far):
        return _kernel(a, b, na, nb)
    near = mul(lo, lo) if square else mul(lo, b)
    return (_reply(mul, hi, far) << h) + near


def _ssa_layout(n: int) -> tuple[int, int, int]:
    """(k, M, N) for a product of n bits: 2^k M-bit pieces in Z/(2^N + 1).

    M is a multiple of 8 and at least n / 2^k, so an na-bit by nb-bit pair
    (na + nb = n) has at most 2^k + 1 pieces between them, and its
    convolution at most 2^k coefficients.  N is a multiple of 2^(k-1), so
    omega = 2^(2N / 2^k) is a root of unity of order 2^k, and every twiddle
    is a shift.  Each coefficient sums at most 2^k products of two M-bit
    pieces, so it lies in [0, 2^(2M + k)); N >= 2M + k + 1 puts that below
    2^N + 1, and the coefficient comes back from its residue exactly.
    With 4^k <= n / 4, N >= 2n / 2^k > 2^(k+2), so every twiddle shift is
    at most N - 2 bits.
    """
    k = (n.bit_length() - 1) // 2 - 1
    m = (-(-n >> k) + 7) & -8
    half = 1 << (k - 1)
    return k, m, -(-(2 * m + k + 1) // half) * half


def _ssa(a: int, b: int, na: int, nb: int) -> int:
    # a * b for a, b >= 0 of na and nb bits by Schönhage-Strassen; a is b
    # squares.  Stored residues stay within (-2^(N+1), 2^(N+1)): the fold
    # (x & mask) - (x >> N) maps a sum of two into [-4, 2^N + 4], the same
    # shifted by at most N - 2 bits into [-2^N, 2^(N+1)), and a pointwise
    # product, folded twice, into [-8, 2^N + 8].
    k, m, n = _ssa_layout(na + nb)
    size = 1 << k
    mask = (1 << n) - 1
    x = _ssa_forward(_ssa_pieces(a, na, m, size), n, mask)
    y = x if a is b else _ssa_forward(_ssa_pieces(b, nb, m, size), n, mask)
    for i, v in enumerate(y):
        u = x[i] * v
        u = (u & mask) - (u >> n)
        x[i] = (u & mask) - (u >> n)
    del y
    # the transform applied twice gives 2^k x at negated indices, so the
    # products go back to natural order and through it once more, and
    # coefficient i is read at the bit-reversed position of -i mod 2^k
    rev = [0]
    for _ in range(k):
        rev = [r << 1 for r in rev] + [r << 1 | 1 for r in rev]
    x = _ssa_forward([x[r] for r in rev], n, mask)
    count = -(-na // m) + -(-nb // m) - 1
    x = [x[rev[-i % size]] for i in range(count)]
    # scale by 2^-k = -2^(N-k); each coefficient is its residue in [0, 2^N]
    modulus = mask + 2
    width = 3 * m >> 3
    for i in range(count):
        u = -x[i] << (n - k)
        u = ((u & mask) - (u >> n)) % modulus
        x[i] = u.to_bytes(width, "little")
    # coefficients 3 apart start 3M bits apart and have at most 2M + k < 3M
    # bits, so each residue class j mod 3 is one byte string, led by jM zero bits
    r = 0
    for j in (0, 1, 2):
        r += int.from_bytes(b"".join([bytes(j * m >> 3), *x[j::3]]), "little")
    return r


def _ssa_pieces(a: int, na: int, m: int, size: int) -> list[int]:
    # the M-bit pieces of a, lowest first, padded with zeros to the transform length
    step = m >> 3
    raw = a.to_bytes(-(-na // m) * step, "little")
    pieces = [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]
    return pieces + [0] * (size - len(pieces))


def _ssa_forward(x: list[int], n: int, mask: int) -> list[int]:
    # decimation in frequency with omega = 2^(2N/len(x)), in place; the
    # output is in bit-reversed order
    size = len(x)
    span = size
    while span > 1:
        h = span >> 1
        unit = 2 * n // span
        for j in range(h):
            e = j * unit
            for i in range(j, size, span):
                u, v = x[i], x[i + h]
                t = u + v
                x[i] = (t & mask) - (t >> n)
                t = (u - v) << e
                x[i + h] = (t & mask) - (t >> n)
        span = h
    return x


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _power(base: int, d: int) -> int:
    # base^d for d >= 2 by eval_int_pair's chain: base^(d-2) one factor at a
    # time, then times base squared
    acc = 1
    for _ in range(d - 2):
        acc = mul(acc, base)
    return mul(acc, mul(base, base))


class _Helper:
    """One forked process that reads requests from a pipe and writes each
    answer back on another: (d, base) with d >= 2 asks for base^d, and
    (0, x, y) for x * y.  Each int crosses as 8 little-endian bytes of
    length, then its own little-endian bytes.  owner is the pid that forked it."""

    __slots__ = ("pid", "owner", "requests", "replies")

    def __init__(self, pid: int, requests, replies):
        self.pid, self.owner = pid, os.getpid()
        self.requests, self.replies = requests, replies


_helper: _Helper | None = None  # at most one per process
_helper_off = False  # set for good once this process may not or cannot use one
_helper_lock = _thread.allocate_lock()  # held from a request until its reply is read


def power_on_helper(base: int, d: int):
    """Start base^d (base > 0, d >= 2) on the helper; a function that returns it, or None.

    None means the caller computes base^d itself: base is under
    _HELPER_BITS bits, too small to repay the pipes, or a power of two,
    which mul shifts, or the helper is busy or cannot be used here.  The
    returned function waits for the reply; should the pipe fail, it runs
    the same chain (`_power`) inline, so the value never depends on where
    it was computed.  Until the reply is collected, mul splits no product,
    so the caller's chain runs whole on its own CPU.
    """
    if base.bit_length() < _HELPER_BITS or not base & (base - 1) or not _helper_lock.acquire(False):
        return None
    return (lambda: _reply(_power, base, d)) if _request(d, base) else None


def _request(*values: int) -> bool:
    """Send one request to the helper, forked now if need be; True once it is in flight.

    The caller holds _helper_lock and collects the reply with _reply.  On
    False the lock is released, and the caller computes the value itself.
    The helper is forked on the first request that can use one, and only
    with two usable CPUs, an os.fork, and no other thread running.  One
    request is in flight at a time; a request that is never collected
    leaves every later call inline.
    """
    helper = _running_helper()
    if helper is not None:
        try:
            _write_ints(helper.requests, *values)
            return True
        except OSError:
            _no_helper()
    _helper_lock.release()
    return False


def _reply(inline, *args: int) -> int:
    # the helper's answer to the request in flight, or inline(*args) if the
    # pipe failed; releases _helper_lock
    try:
        value = _read_int(_helper.replies)
    except OSError:
        value = None
    if value is None:
        _no_helper()
        value = inline(*args)
    _helper_lock.release()
    return value


def _running_helper():
    # this process's helper, forked now if it may have one; None where it may not
    global _helper, _helper_off
    if _helper is not None:
        if _helper.owner == os.getpid():
            return _helper
        _no_helper()  # a forked child never writes to its parent's helper
        return None
    threading = sys.modules.get("threading")
    if (_helper_off or not hasattr(os, "fork") or _usable_cpus() < 2
            or threading is not None and threading.active_count() > 1):
        return None
    fds: list[int] = []
    try:
        fds += os.pipe()  # requests: read end, write end
        fds += os.pipe()  # replies: read end, write end
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        _helper_off = True
        return None
    if pid == 0:
        try:
            os.close(fds[1])
            os.close(fds[2])
            _serve(fds[0], fds[3])
        finally:
            os._exit(0)
    os.close(fds[0])
    os.close(fds[3])
    atexit.register(_no_helper)
    _helper = _Helper(pid, os.fdopen(fds[1], "wb"), os.fdopen(fds[2], "rb"))
    return _helper


def _no_helper() -> None:
    """Let go of this process's helper and never start one here again.

    Scan pool workers run it as their initializer, and a forked child runs it
    on first reaching for its parent's helper: either closes its inherited
    copies of the pipes.  The owner runs it at exit and after a pipe error,
    and also ends the helper and reaps it.
    """
    global _helper, _helper_off
    helper, _helper, _helper_off = _helper, None, True
    if helper is None:
        return
    for pipe in (helper.requests, helper.replies):
        try:
            pipe.close()
        except OSError:
            pass
    if helper.owner == os.getpid():
        from _signal import SIGKILL
        try:
            os.kill(helper.pid, SIGKILL)
        except OSError:
            pass
        try:
            os.waitpid(helper.pid, 0)
        except OSError:
            pass


def _serve(requests: int, replies: int) -> None:
    # the helper's whole life: answer each request, base^d by _power and x * y
    # by mul, until the owner closes its end.  Both run inline: with
    # _helper_off set, the helper never forks and never splits.  Its stdio
    # goes to /dev/null and every other descriptor it inherited is closed,
    # so no reader of the owner's pipes waits on it.
    global _helper_off
    _helper_off = True
    from _signal import SIG_IGN, SIGINT, signal  # signal's enums would delay the first reply 2 ms
    signal(SIGINT, SIG_IGN)
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low, high = sorted((requests, replies))
    os.closerange(3, low)
    os.closerange(low + 1, high)
    os.closerange(high + 1, max(high + 1, os.sysconf("SC_OPEN_MAX")))
    with os.fdopen(requests, "rb") as src, os.fdopen(replies, "wb") as dst:
        while (d := _read_int(src)) is not None:
            args = [_read_int(src) for _ in range(1 if d else 2)]
            if None in args:
                break
            _write_ints(dst, _power(args[0], d) if d else mul(*args))


def _write_ints(pipe, *values: int) -> None:
    for v in values:
        body = v.to_bytes((v.bit_length() + 7) >> 3, "little")
        pipe.write(len(body).to_bytes(8, "little"))
        pipe.write(body)
    pipe.flush()


def _read_int(pipe) -> int | None:
    # None at end of file or on a short read
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    body = pipe.read(size)
    return int.from_bytes(body, "little") if len(body) == size else None
