"""Polynomials over Q and the normalization pipeline.

A polynomial f with a rational critical point u is moved into the model
family by two exact steps: shift the critical point to the origin
(dropping the constant term), then rescale by the least t making every
coefficient integral.  The result g is "x^2-divisible": integer
coefficients u_d x^d + ... + u_2 x^2 with u_d != 0, the shape whose
critical orbit arithmetic the rest of the package works over.  The
composite map is recorded in a NormalizationCertificate together with
the parameter change c -> (c + shift_constant) / scale and a bound on
how far the transfer can move Zsigmondy counts.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import _MUL_BITS, divisors, factor_small, mul, omega, power_on_helper

_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:/\d+)?)?(?:\*?(?P<var>x)(?:\^(?P<exp>\d+))?)?$"
)


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text or coefficient list."""


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)):
        return Fraction(v)
    raise TypeError(f"cannot interpret {v!r} as a rational")


@dataclass(frozen=True)
class RatPolynomial:
    """Dense polynomial over Q; coeffs[i] is the coefficient of x^i."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(values) -> "RatPolynomial":
        cs = [_as_fraction(v) for v in values]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [Fraction(0)]
        return RatPolynomial(tuple(cs))

    @staticmethod
    def parse(text: str) -> "RatPolynomial":
        """Parse sums of monomials: 'x^3 + 3*x^2', '-1/2*x^4 + x', '5'.

        '**' is accepted for '^'; the '*' between coefficient and x is
        optional.  No parentheses.
        """
        s = text.replace("**", "^").replace(" ", "")
        if not s:
            raise PolynomialSyntaxError("empty polynomial text")
        terms = re.findall(r"[+-]?[^+-]+", s)
        if "".join(terms) != s:
            raise PolynomialSyntaxError(f"cannot tokenize {text!r}")
        powers: dict[int, Fraction] = {}
        for t in terms:
            m = _TERM_RE.match(t)
            if not m or (m.group("coef") is None and m.group("var") is None):
                raise PolynomialSyntaxError(f"bad term {t!r} in {text!r}")
            coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
            if m.group("sign") == "-":
                coef = -coef
            exp = (int(m.group("exp")) if m.group("exp") else 1) if m.group("var") else 0
            powers[exp] = powers.get(exp, Fraction(0)) + coef
        top = max(powers)
        return RatPolynomial.from_coeffs([powers.get(i, Fraction(0)) for i in range(top + 1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, x) -> Fraction:
        x = _as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPolynomial":
        return RatPolynomial.from_coeffs([i * c for i, c in enumerate(self.coeffs)][1:])

    def taylor_shift(self, u) -> "RatPolynomial":
        """Coefficients of f(x + u), by iterated synthetic division."""
        u = _as_fraction(u)
        b = list(self.coeffs)
        n = len(b)
        for k in range(n - 1):
            for i in range(n - 2, k - 1, -1):
                b[i] += u * b[i + 1]
        return RatPolynomial.from_coeffs(b)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                xs = "x" if i == 1 else f"x^{i}"
                body = xs if mag == 1 else f"{mag}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


@dataclass(frozen=True)
class X2DivisiblePoly(RatPolynomial):
    """Integer polynomial u_d x^d + ... + u_2 x^2, d >= 2, u_d != 0.

    A RatPolynomial with int coeffs (u_0, u_1, ..., u_d), u_0 = u_1 = 0,
    so degree, evaluation and printing are the RatPolynomial ones.  The
    coefficient length, 4 * length (the escape radius floor) and the Horner
    coefficients of eval_int_pair are worked out on first read and kept on
    the instance, so one instance serves a whole scan.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 3:
            raise ValueError("degree must be at least 2")
        if any(not isinstance(c, int) for c in self.coeffs):
            raise ValueError("coefficients must be integers")
        if self.coeffs[0] != 0 or self.coeffs[1] != 0:
            raise ValueError("constant and linear coefficients must vanish")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @staticmethod
    def from_coeffs(values) -> "X2DivisiblePoly":
        cs = []
        for v in values:
            fv = _as_fraction(v)
            if fv.denominator != 1:
                raise ValueError(f"coefficient {fv} is not an integer")
            cs.append(int(fv))
        while len(cs) > 3 and cs[-1] == 0:
            cs.pop()
        return X2DivisiblePoly(tuple(cs))

    @staticmethod
    def parse(text: str) -> "X2DivisiblePoly":
        return X2DivisiblePoly.from_coeffs(RatPolynomial.parse(text).coeffs)

    @property
    def lead(self) -> int:
        return self.coeffs[-1]

    @property
    def is_monomial(self) -> bool:
        return all(c == 0 for c in self.coeffs[2:-1])

    @cached_property
    def _length(self) -> Fraction:
        lead = abs(self.lead)
        return 1 + sum(Fraction(abs(u), lead) for u in self.coeffs[2:-1])

    @cached_property
    def _escape_floor(self) -> Fraction:
        return 4 * self._length

    @cached_property
    def _escape_growth(self) -> int:
        return (2 * sum(map(abs, self.coeffs))).bit_length()

    @cached_property
    def _horner(self) -> tuple[int, tuple[int, ...]]:
        return self.coeffs[-1], self.coeffs[-2:1:-1]

    def eval_int_pair(self, num: int, den: int) -> tuple[int, int]:
        """g(num/den) as an unreduced integer pair (P, den^degree).

        P = sum u_i num^i den^(d-i) = num^2 * sum u_i num^(i-2) den^(d-i),
        evaluated by homogeneous Horner from u_d down to u_2, raising the
        den power one step per coefficient; no rational normalization
        happens here.  The multiply is picked once per call: CPython's
        while num and den are both under arith._MUL_BITS, arith.mul once
        either reaches it (deep orbit entries, 10^4-10^6 bits), so that a
        big den = 2^j multiplies by a shift and the longest products take
        the transform.

        den^degree is independent work, and every den goes to
        arith.power_on_helper, which decides from den's size and shape
        whether a helper process runs the same chain on another CPU while
        this one runs Horner.  Where it declines, den^degree comes from the
        den power Horner built.
        """
        small = num.bit_length() < _MUL_BITS and den.bit_length() < _MUL_BITS
        times = operator.mul if small else mul
        den_power = power_on_helper(den, self.degree)
        acc, lower = self._horner
        den_k = 1
        for u in lower:
            den_k = times(den_k, den)
            acc = times(acc, num) + u * den_k
        value = times(acc, times(num, num))
        return value, den_power() if den_power else times(den_k, times(den, den))


def _poly_from_text(poly: str | None, coeffs: str | None) -> X2DivisiblePoly:
    """The polynomial from its text or from comma separated coefficients, constant first."""
    if poly is not None and coeffs is not None:
        raise ValueError("give poly or coeffs, not both")
    if poly is not None:
        return X2DivisiblePoly.parse(poly)
    if coeffs is not None:
        return X2DivisiblePoly.from_coeffs(coeffs.split(","))
    raise ValueError("config needs poly or coeffs")


def length(g: X2DivisiblePoly) -> Fraction:
    """1 + sum over 2 <= i <= d-1 of |u_i| / |u_d| (the coefficient length)."""
    return g._length


def critical_points_rational(f: RatPolynomial) -> tuple[Fraction, ...]:
    """All rational roots of f', ascending (the rational critical points of f).

    Rational-root-theorem search on the primitive integer form of f'.
    """
    fp = f.derivative()
    if fp.is_zero():
        raise ValueError("derivative vanishes identically; critical points undefined")
    # clear denominators, strip powers of x, reduce content
    den_lcm = 1
    for c in fp.coeffs:
        den_lcm = math.lcm(den_lcm, c.denominator)
    ip = [int(c * den_lcm) for c in fp.coeffs]
    roots = set()
    k = 0
    while k < len(ip) and ip[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
        ip = ip[k:]
    if len(ip) > 1:
        const, lead = ip[0], ip[-1]
        for p in divisors(factor_small(const)):
            for q in divisors(factor_small(lead)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if fp(cand) == 0:
                        roots.add(cand)
    return tuple(sorted(roots))


def shift_to_origin(f: RatPolynomial, u) -> tuple[RatPolynomial, Fraction]:
    """Conjugate the critical point u to the origin.

    Returns (g0, shift_constant) where g0(x) = f(x + u) - f(u) has zero
    constant and linear coefficients, and shift_constant = f(u) - u is
    the additive parameter offset.  Rejects a constant f and u that is
    not a critical point of f.
    """
    u = _as_fraction(u)
    if f.degree == 0:
        raise ValueError(f"constant polynomial {f} has no critical point to shift")
    if f.derivative()(u) != 0:
        raise ValueError(f"u = {u} is not a critical point of {f}")
    shifted = f.taylor_shift(u)
    cs = list(shifted.coeffs)
    fu = cs[0]
    cs[0] = Fraction(0)
    assert cs[1] == 0, "linear term must vanish at a critical point"
    return RatPolynomial.from_coeffs(cs), fu - u


def scale_to_integer(g0: RatPolynomial) -> tuple[X2DivisiblePoly, int]:
    """Least positive integer t with (1/t) g0(t x) integral, plus that rescaling.

    The coefficient of x^i maps to u_i t^(i-1), so for each prime p in a
    denominator, val_p(t) must be at least ceil(val_p(den u_i) / (i-1)).
    Requires degree >= 3 (a quadratic rescales to x^2 by a rational t and
    is handled by the normalization wrapper instead).
    """
    d = g0.degree
    if d < 3:
        raise ValueError("integral rescaling needs degree >= 3")
    if g0.coeffs[0] != 0 or g0.coeffs[1] != 0:
        raise ValueError("polynomial is not x^2-divisible")
    if g0.coeffs[-1] == 0:
        raise ValueError("leading coefficient must be nonzero")
    t_val: dict[int, int] = {}
    for i in range(2, d + 1):
        den = g0.coeffs[i].denominator
        if den == 1:
            continue
        for p, e in factor_small(den):
            need = -(-e // (i - 1))  # ceil(e / (i-1))
            if t_val.get(p, 0) < need:
                t_val[p] = need
    t = 1
    for p, e in sorted(t_val.items()):
        t *= p**e
    scaled = [g0.coeffs[i] * Fraction(t) ** (i - 1) for i in range(d + 1)]
    return X2DivisiblePoly.from_coeffs(scaled), t


@dataclass(frozen=True)
class NormalizationCertificate:
    """Exact record of the conjugation f -> target.

    With s = shift_constant and t = scale, the defining identity is

        target(x) = (1/t) * (f(t*x + u) - f(u))

    and iterating f + c from the critical point u matches iterating
    target + c' from 0 under c' = (c + s) / t:

        f_c^n(u) - u = t * target_{c'}^n(0)   for all n >= 0.

    distortion_bound caps how far Zsigmondy-set counts can move under the
    rescaling: the number of distinct primes in the numerator and
    denominator of t (each such prime can create or absorb at most one
    primitive-divisor index).
    """

    source: RatPolynomial
    u: Fraction
    shift_constant: Fraction
    scale: Fraction
    target: X2DivisiblePoly
    krieger_regime: bool
    distortion_bound: int

    def param_map(self, c) -> Fraction:
        return (_as_fraction(c) + self.shift_constant) / self.scale

    def identity_residual(self, x) -> Fraction:
        """target(x) - (1/t)(f(t x + u) - f(u)); zero everywhere when valid."""
        x = _as_fraction(x)
        t = self.scale
        return self.target(x) - (self.source(t * x + self.u) - self.source(self.u)) / t

    def verify(self) -> bool:
        """Check the defining identity at the degree+1 points 0, 1, ..., degree."""
        return all(self.identity_residual(k) == 0 for k in range(self.target.degree + 1))


def normalize_to_x2_divisible(f: RatPolynomial, u) -> NormalizationCertificate:
    """Full pipeline: critical shift then integral rescale, with certificate.

    Degree 2 always lands on x^2 exactly (an x^2-divisible quadratic is a
    pure square term) with rational scale t = 1/u_2; such certificates are
    flagged krieger_regime since the quadratic theory runs through x^2.
    """
    if f.degree < 2:  # the shift keeps the degree
        raise ValueError("shifted polynomial must have degree >= 2")
    g0, s = shift_to_origin(f, u)
    if g0.degree == 2:
        u2 = g0.coeffs[2]
        t = 1 / u2
        target = X2DivisiblePoly.from_coeffs([0, 0, 1])
        krieger = True
    else:
        target, t_int = scale_to_integer(g0)
        t = Fraction(t_int)
        krieger = False
    distortion = omega(t.numerator) + omega(t.denominator)
    return NormalizationCertificate(
        source=f,
        u=_as_fraction(u),
        shift_constant=s,
        scale=t,
        target=target,
        krieger_regime=krieger,
        distortion_bound=distortion,
    )
