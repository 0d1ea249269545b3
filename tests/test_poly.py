"""Polynomial types, parsing, the length invariant, and normalization."""
import random
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import zsig.poly as poly
from zsig.arith import _MUL_BITS
from zsig.poly import (
    NormalizationCertificate,
    PolynomialSyntaxError,
    RatPolynomial,
    X2DivisiblePoly,
    critical_points_rational,
    length,
    normalize_to_x2_divisible,
    scale_to_integer,
    shift_to_origin,
)

F = Fraction


def _sympy_poly(p: RatPolynomial):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p.coeffs))


def test_parse_round_trips():
    for text in ["x^3+x^2", "2*x^4 - 3*x^2", "-x^3+x^2", "x^2", "7",
                 "1/2*x^3 + x", "x**5 - 2/3*x**2"]:
        p = RatPolynomial.parse(text)
        again = RatPolynomial.parse(str(p))
        assert p == again, text


def test_parse_agrees_with_sympy():
    x = sympy.Symbol("x")
    cases = {
        "x^3+x^2": x**3 + x**2,
        "-2*x^4+3*x^3-x": -2 * x**4 + 3 * x**3 - x,
        "5 - x": 5 - x,
        "3/2*x^2": sympy.Rational(3, 2) * x**2,
    }
    for text, expr in cases.items():
        assert sympy.expand(_sympy_poly(RatPolynomial.parse(text)) - expr) == 0


def test_parse_rejects_garbage():
    for bad in ["", "x^", "x^-2", "y^2", "x^2 +", "2x^2x", f"x^{poly._DEGREE_LIMIT + 1}"]:
        with pytest.raises(PolynomialSyntaxError):
            RatPolynomial.parse(bad)
    assert RatPolynomial.parse(f"x^{poly._DEGREE_LIMIT}").degree == poly._DEGREE_LIMIT


def test_evaluation_and_derivative():
    p = RatPolynomial.parse("x^3 - 3*x")
    assert p(2) == 2
    assert p(F(1, 2)) == F(1, 8) - F(3, 2)
    dp = p.derivative()
    assert dp.coeffs == (F(-3), F(0), F(3))
    constant = RatPolynomial.parse("5").derivative()
    assert constant.coeffs == (F(0),) and constant.is_zero()
    assert RatPolynomial.parse("0").derivative() == RatPolynomial.from_coeffs([])


def test_taylor_shift_matches_sympy():
    x = sympy.Symbol("x")
    rng = random.Random(99)
    for _ in range(30):
        deg = rng.randrange(1, 7)
        coeffs = [F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(deg)]
        coeffs.append(F(rng.randrange(1, 10)))
        u = F(rng.randrange(-6, 7), rng.randrange(1, 4))
        p = RatPolynomial.from_coeffs(coeffs)
        shifted = p.taylor_shift(u)
        expr = sympy.expand(_sympy_poly(p).subs(x, x + sympy.Rational(u.numerator, u.denominator)))
        assert sympy.expand(_sympy_poly(shifted) - expr) == 0


def test_x2divisible_validation():
    g = X2DivisiblePoly.parse("x^3+x^2")
    assert g.degree == 3 and g.lead == 1 and not g.is_monomial
    assert X2DivisiblePoly.parse("2*x^5").is_monomial
    # linear or constant terms are structurally forbidden
    with pytest.raises(ValueError):
        X2DivisiblePoly.from_coeffs([1, 0, 1, 1])
    with pytest.raises(ValueError):
        X2DivisiblePoly.from_coeffs([0, 2, 0, 1])
    with pytest.raises(ValueError):
        X2DivisiblePoly.from_coeffs([0, 0])
    with pytest.raises(ValueError, match="^coefficients must be integers$"):
        X2DivisiblePoly((0, 0, 1.5))


def test_eval_int_pair_is_unreduced_evaluation():
    g = X2DivisiblePoly.parse("2*x^3 - 3*x^2")
    rng = random.Random(17)
    for _ in range(80):
        num = rng.randrange(-40, 41)
        den = rng.randrange(1, 30)
        P, Q = g.eval_int_pair(num, den)
        assert Q == den**g.degree
        assert F(P, Q) == g(F(num, den))
    # around arith._MUL_BITS, on either side of it, against the plain sum
    for _ in range(12):
        d = rng.randint(2, 5)
        g = X2DivisiblePoly.from_coeffs(
            [0, 0] + [rng.choice((-1, 1)) * rng.randint(1, 50) for _ in range(d - 1)]
        )
        num = -rng.getrandbits(rng.choice((_MUL_BITS - 1, _MUL_BITS, 2 * _MUL_BITS + 3)))
        den = rng.getrandbits(rng.choice((5, _MUL_BITS - 1, _MUL_BITS + 1))) | 1
        P, Q = g.eval_int_pair(num, den)
        assert Q == den**d
        assert P == sum(u * num**i * den ** (d - i) for i, u in enumerate(g.coeffs))


def test_eval_int_pair_multiplies_big_operands_with_the_kernel(monkeypatch):
    """arith.mul serves a call once num or den reaches the cutoff, and only then."""
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return a * b

    monkeypatch.setattr(poly, "mul", spy)
    g = X2DivisiblePoly.parse("2*x^4 - 3*x^3 + x^2")
    small, big = 3**100, 3**_MUL_BITS
    assert g.eval_int_pair(-small, small + 2) == (
        sum(u * (-small) ** i * (small + 2) ** (4 - i) for i, u in enumerate(g.coeffs)),
        (small + 2) ** 4,
    )
    assert calls == []
    for num, den in ((big, 7), (7, big)):
        assert g.eval_int_pair(num, den)[1] == den**4
        assert calls
        calls.clear()


@settings(max_examples=80, deadline=None)
@given(
    middle=st.lists(st.integers(-50, 50), max_size=4),
    lead=st.integers(-50, 50).filter(bool),
    x=st.fractions(min_value=-100, max_value=100, max_denominator=50),
)
def test_x2divisible_is_the_rational_polynomial(middle, lead, x):
    g = X2DivisiblePoly.from_coeffs([0, 0, *middle, lead])
    plain = RatPolynomial.from_coeffs(g.coeffs)
    assert isinstance(g, RatPolynomial)
    assert g(x) == plain(x)
    assert str(g) == str(plain)


def test_length_frozen_cases():
    assert length(X2DivisiblePoly.parse("2*x^3+4*x^2")) == 3
    assert length(X2DivisiblePoly.parse("x^3+x^2")) == 2
    assert length(X2DivisiblePoly.parse("2*x^4+6*x^3-4*x^2")) == 6  # frozen
    assert length(X2DivisiblePoly.parse("5*x^4")) == 1


def test_length_sign_invariance():
    a = X2DivisiblePoly.parse("2*x^4+6*x^3-4*x^2")
    b = X2DivisiblePoly.parse("-2*x^4-6*x^3+4*x^2")
    assert length(a) == length(b)


def test_critical_points_frozen():
    assert critical_points_rational(RatPolynomial.parse("x^3-3*x")) == (F(-1), F(1))
    assert critical_points_rational(RatPolynomial.parse("x^2")) == (F(0),)
    assert critical_points_rational(RatPolynomial.parse("x^3+x")) == ()


def test_critical_points_match_sympy_roots():
    x = sympy.Symbol("x")
    rng = random.Random(4)
    for _ in range(40):
        deg = rng.randrange(2, 6)
        coeffs = [F(rng.randrange(-8, 9), rng.randrange(1, 4)) for _ in range(deg)]
        coeffs.append(F(rng.randrange(1, 7)))
        p = RatPolynomial.from_coeffs(coeffs)
        expected = sorted(
            F(r.p, r.q) for r in sympy.roots(sympy.diff(_sympy_poly(p), x), x)
            if r.is_rational
        )
        assert list(critical_points_rational(p)) == expected


def test_shift_to_origin_frozen():
    g0, s = shift_to_origin(RatPolynomial.parse("x^3-3*x"), 1)
    assert g0 == RatPolynomial.parse("x^3+3*x^2")
    assert s == -3
    g0, s = shift_to_origin(RatPolynomial.parse("x^2"), 0)
    assert g0 == RatPolynomial.parse("x^2") and s == 0
    with pytest.raises(ValueError):
        shift_to_origin(RatPolynomial.parse("x^3-3*x"), 2)  # not critical
    for text in ("5", "0"):
        with pytest.raises(ValueError, match="^constant polynomial"):
            shift_to_origin(RatPolynomial.parse(text), 0)


def test_shift_output_is_x2_divisible():
    rng = random.Random(31)
    hits = 0
    while hits < 20:
        deg = rng.randrange(2, 6)
        coeffs = [F(rng.randrange(-5, 6)) for _ in range(deg)] + [F(rng.randrange(1, 5))]
        p = RatPolynomial.from_coeffs(coeffs)
        for u in critical_points_rational(p):
            g0, s = shift_to_origin(p, u)
            assert g0.coeffs[0] == 0 and g0.coeffs[1] == 0
            assert s == p(u) - u
            hits += 1


def test_scale_to_integer_frozen_cases():
    cases = [
        ("x^3 + 1/2*x^2", "4*x^3+x^2", 2),
        ("1/3*x^3", "3*x^3", 3),
        ("1/2*x^4", "4*x^4", 2),
        ("x^3 + 1/6*x^2", "36*x^3 + x^2", 6),
        ("3/4*x^5 + 1/2*x^2", "12*x^5 + x^2", 2),
        ("1/12*x^3 + 5/6*x^2", "3*x^3 + 5*x^2", 6),
        ("x^3 + 3*x^2", "x^3 + 3*x^2", 1),
    ]
    for src, want, t_want in cases:
        h, t = scale_to_integer(RatPolynomial.parse(src))
        assert h == X2DivisiblePoly.parse(want), src
        assert t == t_want, src
    for src, message in (("1/2*x^2", "integral rescaling needs degree >= 3"),
                         ("x^3 + x", "polynomial is not x^2-divisible")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scale_to_integer(RatPolynomial.parse(src))


def test_scale_identity_holds():
    """h(x) = (1/t) g0(t x) exactly, at several points."""
    rng = random.Random(8)
    for _ in range(25):
        deg = rng.randrange(3, 6)
        coeffs = [F(0), F(0)] + [
            F(rng.randrange(-9, 10), rng.randrange(1, 13)) for _ in range(deg - 2)
        ]
        coeffs.append(F(rng.randrange(1, 10), rng.randrange(1, 13)))
        g0 = RatPolynomial.from_coeffs(coeffs)
        h, t = scale_to_integer(g0)
        assert t >= 1
        for x in [F(1), F(-2), F(3, 7), F(-5, 4)]:
            assert h(x) == g0(t * x) / t
        # minimality: no smaller positive integer clears every coefficient
        for smaller in range(1, t):
            ok = all(
                (c * smaller ** (i - 1)).denominator == 1
                for i, c in enumerate(g0.coeffs[2:], start=2)
            )
            assert not ok, (g0, t, smaller)


def test_normalize_frozen_certificates():
    cert = normalize_to_x2_divisible(RatPolynomial.parse("x^3-3*x"), 1)
    assert cert.target == X2DivisiblePoly.parse("x^3+3*x^2")
    assert cert.scale == 1 and cert.shift_constant == -3
    assert cert.distortion_bound == 0 and not cert.krieger_regime
    assert cert.param_map(F(5)) == F(2)
    assert cert.verify()

    quad = normalize_to_x2_divisible(RatPolynomial.parse("x^2"), 0)
    assert quad.target == X2DivisiblePoly.parse("x^2")
    assert quad.krieger_regime and quad.scale == 1

    quart = normalize_to_x2_divisible(RatPolynomial.parse("1/2*x^4"), 0)
    assert quart.target == X2DivisiblePoly.parse("4*x^4")
    assert quart.scale == 2 and quart.distortion_bound == 1


def test_normalize_conjugacy_identity_random():
    """f_c^n(u) - u = t * target_{c'}^n(0) with c' = (c + s)/t, checked exactly."""
    from zsig.oracle import iterate_rational

    rng = random.Random(77)
    polys = ["x^3-3*x", "x^4 - 2*x^2", "1/2*x^4", "x^3 + 3/2*x^2", "2*x^5 - 5/4*x^4"]
    for text in polys:
        f = RatPolynomial.parse(text)
        for u in critical_points_rational(f):
            cert = normalize_to_x2_divisible(f, u)
            assert cert.verify()
            t = cert.scale
            for _ in range(6):
                c = F(rng.randrange(-20, 21), rng.randrange(1, 21))
                cp = cert.param_map(c)
                fc = lambda x: f(x) + c
                val = u
                model = F(0)
                for n in range(1, 6):
                    val = fc(val)
                    model = cert.target(model) + cp
                    assert val - u == t * model, (text, u, c, n)


def test_normalize_rejects_noncritical_point():
    with pytest.raises(ValueError):
        normalize_to_x2_divisible(RatPolynomial.parse("x^3-3*x"), F(1, 2))


def test_certificate_identity_residual_detects_tampering():
    cert = normalize_to_x2_divisible(RatPolynomial.parse("x^3-3*x"), 1)
    assert all(cert.identity_residual(F(k)) == 0 for k in range(-3, 4))
    bad = NormalizationCertificate(
        source=cert.source, u=cert.u, shift_constant=cert.shift_constant,
        scale=F(2), target=cert.target, krieger_regime=cert.krieger_regime,
        distortion_bound=cert.distortion_bound,
    )
    assert not bad.verify()
