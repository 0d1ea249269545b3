"""Walk one parameter of each kind and recheck the printed witnesses.

Run: python3 demos/orbit_walk.py
"""
from fractions import Fraction

from zsig import X2DivisiblePoly, escape_radius, iterate

g = X2DivisiblePoly.parse("x^3+x^2")
print(f"model polynomial: {g}")

for c in (Fraction(-1), Fraction(1), Fraction(1, 2)):
    orbit = iterate(g, c, horizon=5)  # one walk: the first five values and the verdict
    decision = orbit.decision
    print(f"\nc = {c}: {decision.verdict.value} ({decision.witness_text()})")
    for e in orbit.entries:
        print(f"  value({e.n}) = {e.value}")

    if decision.verdict.value == "finite":
        # replay the cycle: value(tail) must reappear cycle steps later
        t, L = decision.tail, decision.cycle
        replay = iterate(g, c, horizon=t + L)
        assert replay.value(t) == replay.value(t + L)
        print(f"  rechecked: value({t}) == value({t + L}) = {replay.value(t)}")
    elif decision.verdict.value == "escape":
        k = decision.escape_index
        radius = escape_radius(g, c)
        crossing = iterate(g, c, horizon=k + 1)
        assert abs(crossing.value(k + 1)) >= radius
        assert all(abs(crossing.value(i)) < radius for i in range(1, k + 1))
        print(f"  rechecked: |value({k + 1})| = {abs(crossing.value(k + 1))} "
              f">= radius {radius}, earlier values inside")
    else:
        n, p = decision.trigger_index, decision.trigger_prime
        # count p in the denominator itself, apart from the orbit's step ledger
        den, k = iterate(g, c, horizon=n).entry(n).den, 0
        while den % p ** (k + 1) == 0:
            k += 1
        assert g.lead % p**k != 0  # p^k is past val_p(lead)
        print(f"  rechecked: denominator of value({n}) carries {p}^{k}, "
              f"deeper than the leading coefficient allows; the orbit can "
              f"never return to 0")
