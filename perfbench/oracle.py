"""Independent reference answers for the benchmark's output checks.

Nothing here imports zsig.  Orbit values come from plain Fraction
iteration with a local Horner loop, verdicts from the definitions in the
zsig documentation, and primitivity from stripping each numerator against
the product of all earlier numerators (one gcd chain per index instead of
the package's pairwise strips).  The route is slow on deep orbits (tens of
seconds at a million bits), so deep results are cached by input under
perfbench/.cache; the cache holds reference answers only, never anything
the program under test produced.
"""
from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from math import gcd
from pathlib import Path

# bump when the reference route or the record layout changes
ORACLE_VERSION = 1
MAX_VERDICT_STEPS = 10_000


def conjugate(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Coefficients of -g(-x): u_i -> (-1)^(i+1) u_i.

    Conjugating g + c by x -> -x gives (-g(-x)) + (-c), whose orbit is the
    negated orbit of g + c: numerator sizes, denominators and Zsigmondy
    data are unchanged.  The benchmark's seeds use this to vary inputs
    without varying the arithmetic work.
    """
    return tuple(u if i % 2 else -u for i, u in enumerate(coeffs))


def _g(coeffs: tuple[int, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for u in reversed(coeffs):
        acc = acc * x + u
    return acc


def _primes_of(n: int) -> list[int]:
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _val(n: int, p: int) -> int:
    n, e = abs(n), 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def verdict_text(coeffs: tuple[int, ...], c: Fraction) -> str:
    """Membership verdict and witness in the scan's text form.

    Per step, in order: a repeated value (finite), |value| at or past the
    escape radius max(4 L, |c|) (escape, 0-based index), a denominator
    prime of c whose valuation exceeds its valuation in the leading
    coefficient (denominator, smallest such prime).
    """
    lead = coeffs[-1]
    length = 1 + sum(Fraction(abs(u), abs(lead)) for u in coeffs[2:-1])
    radius = max(4 * length, abs(c))
    deep_primes = _primes_of(c.denominator)
    seen: dict[Fraction, int] = {}
    x = c
    for n in range(1, MAX_VERDICT_STEPS + 1):
        if x in seen:
            return f"finite,tail={seen[x]};cycle={n - seen[x]}"
        if abs(x) >= radius:
            return f"escape,n={n - 1}"
        for p in deep_primes:
            if _val(x.denominator, p) > _val(lead, p):
                return f"denominator,n={n};p={p}"
        seen[x] = n
        x = _g(coeffs, x) + c
    raise ArithmeticError(f"no verdict for c={c} within {MAX_VERDICT_STEPS} steps")


def orbit_values(coeffs: tuple[int, ...], c: Fraction, horizon: int,
                 bit_cap: int) -> tuple[list[Fraction], int | None]:
    """Values 1..horizon from plain Fraction steps, cut after the first entry past bit_cap."""
    out, x = [], c
    for n in range(1, horizon + 1):
        out.append(x)
        if max(x.numerator.bit_length(), x.denominator.bit_length()) > bit_cap:
            return out, n
        x = _g(coeffs, x) + c
    return out, None


def zsigmondy_data(nums: list[int]) -> dict:
    """Primitivity, residue sizes, Zsigmondy set and the two side checks."""
    nums = [abs(a) for a in nums]
    primitive, bits = [], []
    earlier = 1
    for a in nums:
        r, g = a, gcd(a, earlier)
        while g > 1:
            r //= g
            g = gcd(r, g)
        primitive.append(r > 1)
        bits.append(r.bit_length() if r > 1 else 0)
        earlier *= a
    rin, krieger = [], []
    for n in range(1, len(nums) + 1):
        prod = 1
        for p in _primes_of(n):
            prod *= nums[n // p - 1]
        if nums[n - 1] <= prod:
            rin.append(n)
        if primitive[n - 1]:
            krieger.append("vacuous")
        else:
            krieger.append("holds" if prod % nums[n - 1] == 0 else "fails")
    return {
        "primitive": primitive,
        "residue_bits": bits,
        "zset": [n for n, ok in enumerate(primitive, start=1) if not ok],
        "rin_failures": rin,
        "krieger": krieger,
    }


def entries_digest(pairs) -> str:
    """sha256 over (numerator, denominator) pairs in hex."""
    h = hashlib.sha256()
    for num, den in pairs:
        h.update(f"{num:x}/{den:x};".encode())
    return h.hexdigest()


def orbit_record(coeffs: tuple[int, ...], c: Fraction, horizon: int,
                 bit_cap: int = 2_000_000) -> dict:
    """Reference record of the zsigmondy path for one parameter."""
    values, capped_at = orbit_values(coeffs, c, horizon, bit_cap)
    if any(v == 0 for v in values):
        raise ValueError(f"orbit of c={c} hits zero; not a benchmark input")
    rec = {
        "verdict": verdict_text(coeffs, c),
        "entries": entries_digest((v.numerator, v.denominator) for v in values),
        "capped_at": capped_at,
    }
    rec.update(zsigmondy_data([v.numerator for v in values]))
    return rec


def cached_orbit_record(cache_dir: Path, coeffs: tuple[int, ...], c: Fraction,
                        horizon: int) -> dict:
    """orbit_record, kept on disk by input so each deep orbit is solved once."""
    key = json.dumps([ORACLE_VERSION, list(coeffs), str(c), horizon])
    path = cache_dir / (hashlib.sha256(key.encode()).hexdigest()[:32] + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        if stored.get("key") == key:
            return stored["record"]
    except (OSError, ValueError, KeyError):
        pass
    rec = orbit_record(coeffs, c, horizon)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"key": key, "record": rec}, fh)
    os.replace(tmp, path)
    return rec


def scan_csv(coeffs: tuple[int, ...], num_bound: int, den_bound: int, horizon: int,
             bit_cap: int = 2_000_000) -> list[str]:
    """Expected scan CSV lines (header first) for the grid |a| <= A, 1 <= b <= B."""
    lines = ["c_num,c_den,verdict,witness,horizon,zset,zset_size,rin_failures,capped_at"]
    for b in range(1, den_bound + 1):
        for a in range(-num_bound, num_bound + 1):
            if gcd(a, b) != 1:
                continue
            c = Fraction(a, b)
            verdict, witness = verdict_text(coeffs, c).split(",")
            if verdict == "finite":
                lines.append(f"{a},{b},{verdict},{witness},{horizon},,,,")
                continue
            values, capped_at = orbit_values(coeffs, c, horizon, bit_cap)
            z = zsigmondy_data([v.numerator for v in values])
            cap = "" if capped_at is None else str(capped_at)
            lines.append(
                f"{a},{b},{verdict},{witness},{horizon},{';'.join(map(str, z['zset']))},"
                f"{len(z['zset'])},{';'.join(map(str, z['rin_failures']))},{cap}"
            )
    return lines
