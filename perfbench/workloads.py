"""Workload inputs, one timed pass per workload, and the output checks.

Seed 0 gives the ROADMAP baseline inputs.  Other seeds replace each input
by itself or by its conjugate under x -> -x (u_i -> (-1)^(i+1) u_i,
c -> -c) and shuffle the input order.  Conjugation negates every orbit
value, so the arithmetic work is identical across seeds while the values
the program returns, and the checks compare, change.  Drawing other
coefficients instead moves the work by up to 2x (survey scans of small
cubics measured 4.9 s to 10.2 s each), which would bury any bound.
"""
from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from pathlib import Path

import oracle

X3_X2 = (0, 0, 1, 1)      # x^3 + x^2
X3_2X2 = (0, 0, 1, 2)     # 2x^3 + x^2
BIT_CAP = 2_000_000       # the package default, never reached by these inputs


@dataclass(frozen=True)
class Size:
    num_bound: int = 0
    den_bound: int = 0
    horizon: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                  # "scan" or "orbit"
    base: tuple                # scan: coefficient tuples; orbit: (coeffs, c) pairs
    full: Size
    smoke: Size
    parallelism: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("survey", "scan", (X3_X2, X3_2X2), Size(20, 6, 8), Size(3, 2, 6)),
        Workload("survey_par", "scan", (X3_X2, X3_2X2), Size(20, 6, 8), Size(3, 2, 6),
                 parallelism=2),
        Workload("deep_rational", "orbit",
                 ((X3_X2, Fraction(-5, 3)), (X3_X2, Fraction(1, 2))),
                 Size(horizon=13), Size(horizon=7)),
        Workload("deep_integer", "orbit",
                 ((X3_X2, Fraction(3)), (X3_X2, Fraction(-3))),
                 Size(horizon=13), Size(horizon=7)),
    )
}


@dataclass(frozen=True)
class Item:
    """One input: the polynomial and parameter actually run, and its canonical form.

    sign is -1 when (coeffs, c) is the x -> -x conjugate of (base_coeffs,
    base_c); the program's orbit values are then the negated canonical ones.
    """
    coeffs: tuple[int, ...]
    c: Fraction | None
    sign: int
    base_coeffs: tuple[int, ...]
    base_c: Fraction | None


def make_inputs(workload: Workload, seed: int) -> list[Item]:
    items = []
    rng = random.Random(seed)
    for entry in workload.base:
        coeffs, c = (entry, None) if workload.kind == "scan" else entry
        if seed != 0 and rng.random() < 0.5:
            items.append(Item(oracle.conjugate(coeffs), None if c is None else -c, -1, coeffs, c))
        else:
            items.append(Item(coeffs, c, 1, coeffs, c))
    if seed != 0:
        rng.shuffle(items)
    return items


def items_per_pass(workload: Workload, size: Size, inputs: list[Item]) -> int:
    if workload.kind == "orbit":
        return len(inputs)
    grid = sum(1 for b in range(1, size.den_bound + 1)
               for a in range(-size.num_bound, size.num_bound + 1) if gcd(a, b) == 1)
    return grid * len(inputs)


def run_pass(zsig, workload: Workload, size: Size, inputs: list[Item], tracer=None):
    """One pass over the inputs; returns (seconds, raw outputs).

    Layer functions are looked up on their modules at call time so that a
    tracer's patches apply.  Outputs are turned into comparable records by
    the caller, outside the timed interval.
    """
    outputs = []
    started = time.perf_counter()
    if workload.kind == "scan":
        for item in inputs:
            cfg = zsig.ScanConfig(poly=zsig.X2DivisiblePoly(item.coeffs),
                                  num_bound=size.num_bound, den_bound=size.den_bound,
                                  horizon=size.horizon, bit_cap=BIT_CAP,
                                  parallelism=workload.parallelism)
            with _span(tracer, "harness.run_scan"):
                summary = zsig.harness.run_scan(cfg)
            with _span(tracer, "harness.render"):
                outputs.append(zsig.harness.csv_text(summary))
    else:
        for item in inputs:
            g = zsig.X2DivisiblePoly(item.coeffs)
            decision = zsig.orbit.decide_membership(g, item.c)
            orbit = zsig.orbit.iterate(g, item.c, size.horizon, BIT_CAP)
            report = zsig.zsigmondy.zsigmondy_set(orbit)
            outputs.append((decision, orbit, report))
    return time.perf_counter() - started, outputs


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


def program_record(item: Item, output) -> dict:
    """The zsigmondy-path output of one orbit in the oracle's record layout.

    Numerators are multiplied by item.sign, so a correct result on a
    conjugated input equals the canonical reference record.
    """
    decision, orbit, report = output
    return {
        "verdict": f"{decision.verdict.value},{decision.witness_text()}",
        "entries": oracle.entries_digest((item.sign * e.num, e.den) for e in orbit.entries),
        "capped_at": orbit.capped_at,
        "primitive": [v.has_primitive for v in report.verdicts],
        "residue_bits": [v.stripped_remainder_bits for v in report.verdicts],
        "zset": list(report.zset),
        "rin_failures": list(report.rin_failures),
        "krieger": [status.value for _, status in report.krieger_checks],
    }


def _probable_prime(n: int) -> bool:
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in small:
        return True
    if any(n % p == 0 for p in small):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def witness_problems(output) -> list[str]:
    """Named witnesses must be primes dividing N_n and no earlier numerator."""
    _, orbit, report = output
    nums = [abs(e.num) for e in orbit.entries]
    bad = []
    for v in report.verdicts:
        w = v.witness_prime
        if w is None:
            continue
        if not v.has_primitive or nums[v.n - 1] % w or not _probable_prime(w):
            bad.append(f"n={v.n}: witness {w} is not a prime dividing N_n")
        elif any(nums[k] % w == 0 for k in range(v.n - 1)):
            bad.append(f"n={v.n}: witness {w} divides an earlier numerator")
    return bad


class Checker:
    """Compares each pass's outputs with the reference, counting failed items."""

    def __init__(self, workload: Workload, size: Size, inputs: list[Item], cache_dir: Path):
        self.workload, self.size, self.inputs = workload, size, inputs
        self.cache_dir = cache_dir
        self._expected = None
        self.problems: list[str] = []

    def expected(self) -> list:
        if self._expected is None:
            if self.workload.kind == "scan":
                self._expected = [
                    oracle.scan_csv(item.coeffs, self.size.num_bound, self.size.den_bound,
                                    self.size.horizon, BIT_CAP)
                    for item in self.inputs
                ]
            else:
                self._expected = [
                    oracle.cached_orbit_record(self.cache_dir, item.base_coeffs, item.base_c,
                                               self.size.horizon)
                    for item in self.inputs
                ]
        return self._expected

    def failed_items(self, records: list) -> int:
        """Failed items in one pass; records are CSV texts or orbit records."""
        failed = 0
        for item, got, want in zip(self.inputs, records, self.expected()):
            if self.workload.kind == "scan":
                bad = _bad_rows(got, want)
                if bad:
                    self.problems.append(f"{item.coeffs}: {bad} scan rows differ")
                failed += bad
            else:
                problems = got["witness_problems"] + [
                    f"{key} differs" for key in want if got.get(key) != want[key]
                ]
                if problems:
                    self.problems.append(f"{item.coeffs} c={item.c}: " + "; ".join(problems))
                    failed += 1
        return failed


def _bad_rows(text: str, lines: list[str]) -> int:
    """Scan rows that differ from the expected lines; all of them if the bytes differ elsewhere."""
    if text == "\n".join(lines) + "\n":
        return 0
    got = text.split("\n")
    if got[:1] != lines[:1]:
        return len(lines) - 1
    return sum(g != w for g, w in zip_longest(got[1:-1], lines[1:])) or len(lines) - 1


def comparable(workload: Workload, inputs: list[Item], outputs: list) -> list:
    """Per-item comparable form of one pass's raw outputs."""
    if workload.kind == "scan":
        return list(outputs)
    records = []
    for item, out in zip(inputs, outputs):
        rec = program_record(item, out)
        rec["witness_problems"] = witness_problems(out)
        records.append(rec)
    return records
