"""Bring x^3 - 3x into the model family and transfer an orbit exactly.

The family g(x) = u_d x^d + ... + u_2 x^2 looks special but is not:
any polynomial iterated from one of its critical points lands in it
after a shift (and, when the critical value is not an integer, an
integer rescaling).  Run: python3 demos/conjugation.py
"""
from fractions import Fraction

from zsig import (
    RatPolynomial,
    iterate,
    iterate_rational,
    normalize_to_x2_divisible,
    zsigmondy_of_values,
    zsigmondy_set,
)

f = RatPolynomial.parse("x^3-3*x")
cert = normalize_to_x2_divisible(f, u=1)
print(f"source: f = {f} at critical point u = {cert.u}")
print(f"target: h = {cert.target}, shift {cert.shift_constant}, "
      f"scale {cert.scale}")
op = "-" if cert.shift_constant < 0 else "+"
print(f"parameter map: c -> (c {op} {abs(cert.shift_constant)}) / {cert.scale}")
assert cert.verify()

c = Fraction(7, 3)
cp = cert.param_map(c)
print(f"\nc = {c} maps to c' = {cp}")

fc_values = iterate_rational(f, c, start=1, horizon=8)
diffs = [v - 1 for v in fc_values[1:]]
h_orbit = iterate(cert.target, cp, horizon=8)
for n in range(1, 9):
    assert diffs[n - 1] == h_orbit.value(n)
print("f_c^n(1) - 1 equals the model orbit value(n) exactly for n = 1..8")

source_window = zsigmondy_of_values(diffs)
target_window = zsigmondy_set(h_orbit).zset
print(f"source window {source_window}, target window {target_window}, "
      f"count gap <= {cert.distortion_bound} as certified")
assert abs(len(source_window) - len(target_window)) <= cert.distortion_bound
