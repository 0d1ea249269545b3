"""The paper's growth lemmas, checked on the data they are given.

Each check_* function takes an orbit and returns its violations, empty
when the lemma holds; the others decide one inequality on the numbers
they are given.  Every decision is exact: powers and logs are compared
through zsig.enclosure, which settles a tie in integers.  zsig verify and
the tests read this module; no scan or single orbit imports it, so
neither loads the enclosure module.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arith import distinct_prime_factors, factor_small, prime_quotient_power_sum, val_p
from .enclosure import PRECISIONS, ln, power_le
from .orbit import OrbitRecord, escape_check, escape_radius


def check_upper_bounds(orbit: OrbitRecord) -> list[str]:
    """Violations of the growth ceilings; empty when the orbit obeys them.

    Denominators: M_n <= M_1^(d^(n-1)).  Values: |value(n)| <= C^(d^(n-1))
    with C = 2 |u_d| max(|c|, 4 L).  Zero values are skipped.  enclosure.power_le decides.
    """
    g = orbit.poly
    d = g.degree
    bad: list[str] = []
    m1 = orbit.entries[0].den if orbit.entries else 1
    ceiling = 2 * abs(g.lead) * escape_radius(g, orbit.c)
    for e in orbit.entries:
        scale = d ** (e.n - 1)
        if not power_le(e.den, 1, m1, scale):
            bad.append(f"denominator bound fails at n={e.n}")
        if e.num != 0 and not power_le((e.num, e.den), 1, ceiling, scale):
            bad.append(f"value bound fails at n={e.n}")
    return bad


def _deep_valuations(den: int, lead_vals: dict[int, int]) -> dict[int, int]:
    """val_p(den) at the support primes where it exceeds val_p(lead)."""
    vals = {p: val_p(den, p) for p in lead_vals if den % p == 0}
    return {p: e for p, e in vals.items() if e > lead_vals[p]}


def check_valuation_recursion(orbit: OrbitRecord) -> list[str]:
    """Exact oracle for the step ledger's denominator depths.

    Depth is derived afresh from each stored denominator and must equal the
    entry's deep_valuations.  For p deep at entry n: val_p(M_{n+1}) =
    d * val_p(M_n) - val_p(u_d), and the new valuation must stay deep (persistence).
    """
    g = orbit.poly
    lead_vals = {p: val_p(g.lead, p) for p in orbit.den_prime_support}
    bad: list[str] = []
    prev: dict[int, int] = {}  # depth of the entry before e
    for e in orbit.entries:
        deep = _deep_valuations(e.den, lead_vals)
        if e.deep_valuations != deep:
            bad.append(f"n={e.n}: ledger depth {e.deep_valuations}, denominator depth {deep}")
        for p, m in prev.items():
            expected = g.degree * m - lead_vals[p]
            if p not in deep:
                bad.append(f"p={p} deep at n={e.n - 1} but not at n={e.n}")
            elif deep[p] != expected:
                bad.append(f"p={p} at n={e.n}: val {deep[p]}, expected {expected}")
        prev = deep
    return bad


def check_denominator_lower_bound(orbit: OrbitRecord) -> list[str]:
    """hat^(d^(n-n')) <= M_n^3 for degree >= 3, decided by enclosure.power_le.

    n' is the first entry with a deep denominator and hat, the deep part
    of M_n', is the product of p^val_p over its deep primes.
    """
    g = orbit.poly
    d = g.degree
    if d < 3:
        raise ValueError("denominator lower bound needs degree >= 3")
    first = None
    for e in orbit.entries:
        if e.deep_valuations:
            first = e
            break
    if first is None:
        return []
    hat = math.prod(p**e for p, e in first.deep_valuations.items())
    bad = []
    for e in orbit.entries[first.n - 1:]:
        if not power_le(hat, d ** (e.n - first.n), e.den, 3):
            bad.append(f"denominator lower bound fails at n={e.n}")
    return bad


def check_escape_growth(orbit: OrbitRecord) -> list[str]:
    """(|value(k0+1)| / 2)^(d^(n-1-k0)) <= |value(n)| past the escape index k0, by power_le."""
    g = orbit.poly
    d = g.degree
    k0 = escape_check(orbit)
    if k0 is None:
        return []
    base = orbit.entry(k0 + 1)
    bad = []
    for e in orbit.entries[k0:]:
        if not power_le((base.num, 2 * base.den), d ** (e.n - 1 - k0), (e.num, e.den), 1):
            bad.append(f"escape growth fails at n={e.n}")
    return bad


def excess_primes(a: int, lead: int) -> tuple[frozenset, int]:
    """Primes of a with valuation above their valuation in lead, plus their part.

    Returns (I, I_hat) where I = {p : val_p(a) > val_p(lead)} and I_hat is
    the product of p^val_p(a) over I.  a is factored completely.
    """
    a = abs(a)
    if a == 0:
        raise ValueError("excess primes of zero are undefined")
    deep = [(p, e) for p, e in factor_small(a) if e > val_p(lead, p)]
    return frozenset(p for p, _ in deep), math.prod(p**e for p, e in deep)


def excess_bound_ok(a: int, lead: int) -> bool:
    """|a| <= |lead| * (excess part of a): shallow primes cannot beat the lead."""
    _, part = excess_primes(a, lead)
    return abs(a) <= abs(lead) * part


def power_sum_dominated(d: int, n: int) -> bool:
    """Exact check that (sum of d^(n/p) over primes p | n)^5 <= d^(3n).

    Two-step ladder, every step an exact integer statement: each term is
    at most d^floor(n/2), so the sum is at most omega(n) * d^ceil(n/2),
    and omega(n) <= floor(log2 n) <= d^(floor(3n/5) - ceil(n/2)) closes
    it since 5 * floor(3n/5) <= 3n.  The ladder factors nothing; when its
    gap is inconclusive the sum is built literally and fifth-powered.
    """
    if d < 2 or n < 2:
        raise ValueError("need d >= 2 and n >= 2")
    w = n.bit_length() - 1  # n is at least the product of its omega(n) primes
    gap = (3 * n) // 5 - (n + 1) // 2
    if gap >= 0 and (gap >= w.bit_length() or w <= d**gap):
        return True
    s = prime_quotient_power_sum(d, n)
    return s**5 <= d ** (3 * n)


def cross_bound_ok(ln_values: Sequence, d: int, ln_ceiling: float | Fraction, n: int) -> bool:
    """sum of ln|N_(n/p)| over primes p | n stays under d^(3n/5) * ln_ceiling.

    Exact on the inputs as rationals (a float is one): (sum)^5 <= d^(3n) *
    ln_ceiling^5.  ln_values is 1-indexed via ln_values[k-1].
    """
    if ln_ceiling <= 0:
        raise ValueError("ceiling must exceed 1 in the log domain")
    if n < 30:
        raise ValueError("cross bound only applies for n >= 30")
    lhs = sum(Fraction(ln_values[n // p - 1]) for p in distinct_prime_factors(n))
    if lhs <= 0:
        return True
    return lhs**5 <= d ** (3 * n) * Fraction(ln_ceiling) ** 5


def check_cross_bound(orbit: OrbitRecord) -> list[str]:
    """Violations of the cross bound at every computed index n >= 30.

    The ceiling is ln(2 |u_d|^2 B_hat max(|c|, 4L)), B_hat the deep part of
    den(c).  An index holds when cross_bound_ok passes on the upper ends of
    the enclosed ln|N_k| against the lower end of the ceiling's, and fails
    when it fails on the lower ends against the upper end.
    """
    if any(e.num == 0 for e in orbit.entries):
        raise ValueError("orbit hits zero; cross bound undefined")
    g = orbit.poly
    d = g.degree
    hat = math.prod(p**e for p, e in orbit.entries[0].deep_valuations.items())
    ceiling = 2 * g.lead * g.lead * hat * escape_radius(g, orbit.c)
    bad, open_ = [], list(range(30, len(orbit.entries) + 1))
    for prec in PRECISIONS:
        if not open_:
            break
        lo, hi = zip(*(ln(e.num, prec).bounds() for e in orbit.entries))
        c_lo, c_hi = ln(ceiling, prec).bounds()
        undecided = []
        for n in open_:
            if not cross_bound_ok(hi, d, c_lo, n):
                (undecided if cross_bound_ok(lo, d, c_hi, n) else bad).append(n)
        open_ = undecided
    if open_:
        raise ArithmeticError(f"cross bound at n={open_[0]} could not be certified")
    return [f"cross bound fails at n={n}" for n in sorted(bad)]


def check_monomial_sandwich(orbit: OrbitRecord) -> list[str]:
    """Exact two-sided envelopes for monomials with small parameter.

    Needs a monomial with positive leading coefficient and
    0 < |c| < 1/(4 u_d).  Positive c (or negative c in odd degree, whose
    orbit is the mirror image) obeys |c| <= |v_n| <= (u_d+1)^E |c| with
    E = (d^(n-1) - 1)/(d - 1); negative c in even degree contracts:
    |c| (1 - u_d |c|^(d-1)) <= |v_n| <= |c|.

    With c = a/b and v_n = N/M, every side but one is an integer
    cross-multiplication; the expanding ceiling is decided in the power
    form |N b| / (M |a|) <= (u_d+1)^E by enclosure.power_le.
    """
    g = orbit.poly
    if not g.is_monomial or g.lead <= 0:
        raise ValueError("sandwich needs a monomial with positive leading coefficient")
    c = orbit.c
    if c == 0 or 4 * g.lead * abs(c) >= 1:
        raise ValueError("parameter outside the window 0 < |c| < 1/(4 u_d)")
    d = g.degree
    a, b = abs(c.numerator), c.denominator
    bad: list[str] = []
    if c > 0 or d % 2 == 1:
        for e in orbit.entries:
            expo = (d ** (e.n - 1) - 1) // (d - 1)
            num_b, den_a = abs(e.num) * b, e.den * a
            if num_b < den_a or not power_le((num_b, den_a), 1, g.lead + 1, expo):
                bad.append(f"expanding sandwich fails at n={e.n}")
    else:
        # |c| (1 - u_d |c|^(d-1)) = a (b^(d-1) - u_d a^(d-1)) / b^d
        low_num, low_den = a * (b ** (d - 1) - g.lead * a ** (d - 1)), b**d
        for e in orbit.entries:
            v = abs(e.num)
            if v * low_den < low_num * e.den or v * b > a * e.den:
                bad.append(f"contracting sandwich fails at n={e.n}")
    return bad
