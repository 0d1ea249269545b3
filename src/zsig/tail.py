"""Value-free decisions on the orbit indices past a handoff entry.

From an exact entry num/den at index n0, settle decides each later index
of a scan row's window from rungs of bounds on scale * log2|value|, scale
* log2 M and the seen primes' part of N, and builds no later value.

The bounds on M come from the ledger of val_p(M).  A shallow den(c) prime,
which does not divide rigidly, is stepped on residues mod a power of it by
the orbit kernel g.eval_int_pair until it turns deep; from then on, or
from an entry where it is deep already, its ledger steps by val_p(M') =
d * val_p(M) - val_p(u_d) and it divides no later numerator.  A residue
that runs out of digits ends the bounds there.

Where the entry is past the escape radius, the first rung, at scale 1,
grows whole-bit bounds by the escape growth.  With L = length(g), if |v|
>= R = max(4L, |c|) >= 4, then |g(v)| >= |u_d| |v|^(d-1) (|v| - (L - 1))
>= 3/4 |v|^d, so |g(v) + c| >= 3/4 |v|^d - |v| >= |v|^d / 2 >= 2|v| >= R,
and the bound chains to the next step; the other way, |g(v) + c| <= (sum
|u_i|) |v|^d + |v| <= 2 (sum |u_i|) |v|^d.  This is the per-step form of
lemmas.check_escape_growth and check_upper_bounds.  The other rungs step
intervals from the entry at each precision in enclosure.PRECISIONS, with
scale the precision.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import enclosure
from .arith import _int_val
from .orbit import _past_radius
from .poly import X2DivisiblePoly
from .zsigmondy import _index_primes


def settle(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int, start: tuple,
           nums: list[int], support: tuple, radius: Fraction) -> tuple[bool, int | None]:
    """(decided, capped_at) of the indices past start = (n0, num, den, deep), without values.

    _settle tries each rung in turn on the indices to last = min(horizon, n0
    + bitlen(bit_cap)), with the bit lengths of nums = |N_1|, ..., |N_(n0)|
    as upper bounds.  Past the verdict, |v| >= R >= 4 or a den(c) prime p is
    deep, e = val_p(u_d) < val_p(M).  Each step at least doubles log2|v| - 1
    >= 1, as |g(v) + c| >= |v|^d / 2 (module docstring), or val_p(M) - e >=
    1, as d val_p(M) - 2e >= 2 (val_p(M) - e); so bitlen|num| or bitlen(den)
    exceeds 2^k k steps on, and the exact walk caps by last.  The bounds
    contain the exact values, so _settle certifies that cap or gives up.
    Only a certified cap decides a window cut short; undecided, the caller
    goes on exactly.
    """
    last = min(horizon, start[0] + bit_cap.bit_length())
    index_primes = _index_primes(last)
    for scale, logs, marks in rungs(g, c, support, start, nums, last, radius):
        decided, capped_at = _settle(logs, marks, [scale * x.bit_length() for x in nums],
                                     scale * bit_cap, start[0], index_primes)
        if capped_at is not None or decided and last == horizon:
            return decided, capped_at
    return False, None


def _settle(logs, marks, upper: list[int], cap: int, n0: int,
            index_primes: tuple) -> tuple[bool, int | None]:
    """(decided, capped_at) of the indices n0 + 1, ... from bounds at one scale.

    logs gives, per index, one pair of integer bounds on scale * log2|value|,
    or None where the rung has none; marks the (m_lo, m_hi, s_hi) of
    _den_marks; upper the upper bounds on scale * log2|N| of the indices
    before.  An index is decided when rest, |N| without the primes of seen,
    exceeds prod, the N_(n/q) over the primes q | n, which keeps it out of
    the Zsigmondy set and, as |N| >= rest, the inequality failures, and when
    |N| and M both lie on one side of the cap.  The first index left
    undecided gives (False, None), and so do marks that stop short of the
    window's last index, index_primes' length.
    """
    for n, bounds, (m_lo, m_hi, s_hi) in zip(range(n0 + 1, n0 + 1 + len(marks)), logs, marks):
        if bounds is None:
            return False, None
        prod_hi = 0
        for q in index_primes[n - 1]:
            prod_hi += upper[n // q - 1]
        n_lo, n_hi = bounds[0] + m_lo, bounds[1] + m_hi
        capped = n_lo >= cap or m_lo >= cap
        if not (n_lo - s_hi > prod_hi and (capped or max(n_hi, m_hi) < cap)):
            return False, None
        upper.append(n_hi)
        if capped:
            return True, n
    return len(upper) == len(index_primes), None


def rungs(g: X2DivisiblePoly, c: Fraction, support: tuple, start: tuple, nums: list[int],
          last: int, radius: Fraction):
    """(scale, logs, marks) per rung, for the indices past start = (n0, num, den, deep) to last.

    nums = |N_1|, ..., |N_(n0)| and radius = escape_radius(g, c).  logs
    gives per index one pair of integer bounds on scale * log2|value|, or
    None, and marks are _den_marks'.  The residues are walked once, and a
    rung is built only when it is asked for.
    """
    _, num, den, _ = start
    walk = (g.degree, support, *_den_walk(g, c, support, start, nums, last))
    growth = _escape_bits(g, radius, num, den)
    if growth is not None:
        yield 1, growth, _den_marks(*walk, 1)
    for scale in enclosure.PRECISIONS:
        yield scale, _interval_logs(g, c, num, den, scale), _den_marks(*walk, scale)


def _escape_bits(g: X2DivisiblePoly, radius: Fraction, num: int, den: int):
    """Whole-bit bounds lo < log2|value| < hi at each index past the entry num/den, or None.

    None unless |num/den| >= radius, the escape radius of g + c.  Then lo =
    bitlen|num| - bitlen(den) - 1 and hi = lo + 2 at the entry, and each
    step of g + c, as the module docstring proves, takes them to d * lo - 1
    and d * hi + bitlen(2 * sum |u_i|).
    """
    if not _past_radius(num, den, radius.numerator, radius.denominator):
        return None
    d, grow = g.degree, g._escape_growth

    def grown(lo, hi):
        while True:
            lo, hi = d * lo - 1, d * hi + grow
            yield lo, hi

    lo = num.bit_length() - den.bit_length() - 1
    return grown(lo, lo + 2)


def _digit_budget(steps: int, per_step: int) -> int:
    """p-adic digits K of a shallow prime's residue with steps indices to go.

    While p is shallow a step divides out at most per_step = d * val_p(u_d)
    + val_p(den(c)) digits (_den_column's k); 8 more read the last valuation.
    """
    return per_step * steps + 8


def _den_column(g: X2DivisiblePoly, c: Fraction, prime: tuple, num: int, den: int, m: int,
                steps: int) -> tuple[list[int], list[int]]:
    """val_p(M_n) from the entry num/den on, and val_p(N_n) past it, while p is shallow.

    prime is one (p, b, val_p(u_d)) of the support and m = val_p(den).  The pair
    (num, den) times a p-adic unit is stepped mod p^K, K = _digit_budget(steps,
    d * val_p(u_d) + b), by (P, M^d) = g.eval_int_pair.  The raw numerator
    B * P + A * M^d is homogeneous of degree d in the pair, so its residue has
    the exact value's val_p; k = min(val_p(raw), d * m + b), as in
    orbit._decided_pairs; the pair goes on as (raw, M^d * B) / p^k mod p^(K -
    k), the other primes' shrink left in the unit; and val_p(N') = val_p(raw)
    - k.  The columns end steps indices on, or at the first index where p is
    deep, that val_p(M) included; a raw residue of 0 mod p^K ends them early:
    its digits ran out.  A residue has under K * bitlen(p) bits; at settle's
    steps <= bitlen(bit_cap) (K = 92 on the survey families at the default
    cap), while that stays under arith._MUL_BITS, eval_int_pair keeps off
    arith.mul and the helper process.
    """
    p, b, lead_val = prime
    d, c_num, c_den = g.degree, c.numerator, c.denominator
    mod = p ** _digit_budget(steps, d * lead_val + b)
    r, s = num % mod, den % mod
    dens, vals = [m], []
    while len(vals) < steps and m <= lead_val:
        p_raw, q_raw = g.eval_int_pair(r, s)
        raw = (p_raw * c_den + c_num * q_raw) % mod
        if not raw:
            break
        v = _int_val(raw, p)
        k = min(v, d * m + b)
        shift = p**k
        r, s, mod = raw // shift, q_raw * c_den % mod // shift, mod // shift
        m = d * m + b - k
        dens.append(m)
        vals.append(v - k)
    return dens, vals


def _den_walk(g: X2DivisiblePoly, c: Fraction, support: tuple, start: tuple, nums: list[int],
              last: int) -> tuple[tuple, tuple]:
    """(columns, drops) of the indices n0 + 1, ..., last past start = (n0, num, den, deep).

    columns holds val_p(M_n) from n0 on per support prime: deep[p] alone for
    a prime deep at n0, and otherwise _den_column's.  drops lists per index
    the pairs (p, val_p(N_n)), val_p(N_n) > 0, at the primes of seen: the
    den(c) primes that divide an earlier numerator, read off nums = |N_1|,
    ..., |N_(n0)| and then off the later valuations.  Only a prime shallow at
    n0 divides a later numerator, and only until it turns deep.
    """
    n0, num, den, deep = start
    steps = last - n0
    columns, drops = [], [()] * steps
    for prime in support:
        p = prime[0]
        if p in deep:
            columns.append((deep[p],))
            continue
        column, vals = _den_column(g, c, prime, num, den, _int_val(den, p), steps)
        columns.append(tuple(column))
        seen = any(x % p == 0 for x in nums)
        for j, v in enumerate(vals):
            if v and seen:
                drops[j] += ((p, v),)
            seen = seen or v > 0
    return tuple(columns), tuple(drops)


def _den_ledgers(d: int, support: tuple, columns: tuple, steps: int) -> list[tuple[int, ...]]:
    """val_p(M_n) over the support primes at each of the steps indices past a _den_walk's entry.

    A column that ends deep goes on by val_p(M') = d * val_p(M) - val_p(u_d);
    one that ends shallow ran out of digits, and the ledgers stop with it.
    """
    full = []
    for column, (_, _, lead_val) in zip(columns, support):
        column = list(column)
        while column[-1] > lead_val and len(column) <= steps:
            column.append(d * column[-1] - lead_val)
        full.append(column)
    return [tuple(column[j] for column in full)
            for j in range(1, min(map(len, full), default=steps + 1))]


@lru_cache(maxsize=256)
def _den_marks(d: int, support: tuple, columns: tuple, drops: tuple,
               scale: int) -> tuple[tuple[int, int, int], ...]:
    """Integers (m_lo, m_hi, s_hi) per index of a _den_walk, at one scale.

    m_lo <= scale * log2 M_n <= m_hi, from _den_ledgers, and s_hi >= scale *
    log2 of N_n's part at the primes of seen, from drops.  The bounds on M
    run in 2^-k units, 2^k past every val_p(M) in the ledgers, on brackets
    of 2^k * scale * log2 p one unit wide (enclosure.log2_prime), so m_lo
    and m_hi lie within a unit per den(c) prime of each other.  Kept per
    key: a scan meets few denominators, columns and precisions, and a row
    whose den(c) primes are all deep at the entry has one value per column.
    """
    ledgers = _den_ledgers(d, support, columns, len(drops))
    k = max(map(max, ledgers), default=0).bit_length() if support else 0
    logs = [enclosure.log2_prime(p, scale << k) for p, _, _ in support]
    marks = []
    for ledger, seen_part in zip(ledgers, drops):
        den_lo = sum(m * p_lo for m, (p_lo, _) in zip(ledger, logs))
        den_hi = sum(m * p_hi for m, (_, p_hi) in zip(ledger, logs))
        seen_hi = sum(v * enclosure.log2_prime(p, scale)[1] for p, v in seen_part)
        marks.append((den_lo >> k, -(-den_hi >> k), seen_hi))
    return tuple(marks)


def _interval_logs(g: X2DivisiblePoly, c: Fraction, num: int, den: int, prec: int):
    """Per later index, integer bounds on prec * log2|value| from a prec-bit interval.

    The interval is stepped from the exact entry num/den by
    enclosure.orbit_step; one around 0 gives None.
    """
    horner, c_num, c_den = g._horner, c.numerator, c.denominator
    lo, hi, exp = enclosure.enclose_ratio(num, den, prec)
    while True:
        lo, hi, exp = enclosure.orbit_step(lo, hi, exp, horner, c_num, c_den, prec)
        yield None if lo <= 0 <= hi else enclosure.log2_bounds(lo, hi, exp, prec)
