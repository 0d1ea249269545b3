"""Deterministic parameter scans over rational grids.

A scan walks every reduced fraction a/b with |a| <= num_bound and
1 <= b <= den_bound in a fixed order (b ascending, then a ascending),
classifies each orbit, and computes the Zsigmondy window for the
parameters with infinite orbit.  Output is byte-identical across reruns
and worker counts: rows keep grid order regardless of parallelism and
wall-clock time never enters the files.

A row reads only the verdict, zset, rin_failures and capped_at, so an
all-deep parameter (every den(c) prime deep at index 1, den(c) = 1
included) builds exact values only until its verdict is in and an entry
passes enclosure.PRECISIONS[0] bits.  Each later index is decided from
an interval of the value and the ledger's exact denominator valuations;
one the intervals cannot settle, even at the last precision, sends the
same walk on exactly.  Other parameters take iterate and zsigmondy_set.
Both routes give the same bytes.

Each column and each setting is declared once.  CSV_HEADER lists the row
columns, and both the CSV cells and the JSON row objects are rendered
from it; cells are comma-free by construction, so a CSV row needs no csv
module to quote it, only commas.  ScanConfig's fields are the settings: a
config file's keys are those fields plus coeffs, and the CLI overrides them.

Workers are capped at the grid size and at the CPUs this process may run
on; the process pool is imported only when more than one worker runs.
"""
from __future__ import annotations

import json
import sys
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from math import gcd
from operator import attrgetter
from typing import Optional, get_type_hints

from . import enclosure
from .arith import _no_helper, _usable_cpus
# decide_membership is unused here; perfbench --trace 1 patches it until ROADMAP item 9
from .orbit import (
    DEFAULT_BIT_CAP,
    MembershipDecision,
    Verdict,
    _all_deep,
    _decided_pairs,
    _den_support,
    decide_membership,
    iterate,
)
from .poly import X2DivisiblePoly, _poly_from_text
from .zsigmondy import _index_primes, _size_test, zsigmondy_set

CSV_HEADER = [
    "c_num", "c_den", "verdict", "witness", "horizon",
    "zset", "zset_size", "rin_failures", "capped_at",
]
_row_values = attrgetter(*CSV_HEADER)


@dataclass(frozen=True)
class ScanConfig:
    poly: X2DivisiblePoly
    num_bound: int
    den_bound: int
    horizon: int = 8
    bit_cap: int = DEFAULT_BIT_CAP
    parallelism: int = 1
    output: Optional[str] = None
    format: str = "csv"

    def __post_init__(self):
        if self.num_bound < 0 or self.den_bound < 1:
            raise ValueError("need num_bound >= 0 and den_bound >= 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.bit_cap < 1:
            raise ValueError("bit_cap must be at least 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown output format {self.format!r}")

    @staticmethod
    def from_file(path: str) -> "ScanConfig":
        """key = value lines; # starts a comment; poly or coeffs required.

        The keys are the ScanConfig fields plus coeffs; a field with no
        default is required, and one annotated int is read as an integer.
        """
        settings = fields(ScanConfig)
        keys = {f.name for f in settings} | {"coeffs"}
        types = get_type_hints(ScanConfig)
        raw: dict[str, object] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ValueError(f"{path}:{lineno}: expected key = value")
                key, val = (s.strip() for s in body.split("=", 1))
                if key not in keys:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
                if key in raw:
                    raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
                try:
                    raw[key] = int(val) if types.get(key) is int else val
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: {key} = {val!r}: not an integer") from None
        raw["poly"] = _poly_from_text(raw.get("poly"), raw.pop("coeffs", None))
        for f in settings:
            if f.name not in raw and f.default is MISSING:
                raise ValueError(f"config needs {f.name}")
        return ScanConfig(**raw)


def grid(config: ScanConfig) -> list[Fraction]:
    """Reduced fractions a/b, b = 1..den_bound then a = -A..A, each value once.

    num_bound 0 is the empty scan (c = 0 appears only alongside nonzero
    numerators).
    """
    if config.num_bound == 0:
        return []
    out = []
    for b in range(1, config.den_bound + 1):
        for a in range(-config.num_bound, config.num_bound + 1):
            if gcd(abs(a), b) == 1:
                out.append(Fraction(a, b))
    return out


@dataclass(frozen=True)
class ScanRow:
    c_num: int
    c_den: int
    verdict: str
    witness: str
    horizon: int
    zset: Optional[tuple[int, ...]]
    rin_failures: Optional[tuple[int, ...]]
    capped_at: Optional[int]

    @property
    def zset_size(self) -> Optional[int]:
        return None if self.zset is None else len(self.zset)

    def csv_cells(self) -> list[str]:
        # None is blank and index tuples are ";"-joined so the cells stay comma-free
        return ["" if v is None else ";".join(map(str, v)) if isinstance(v, tuple) else str(v)
                for v in _row_values(self)]

    def json_obj(self) -> dict:
        return {name: list(v) if isinstance(v, tuple) else v
                for name, v in zip(CSV_HEADER, _row_values(self))}


def _row(c: Fraction, horizon: int, decision: MembershipDecision, zset=None, rin_failures=None,
         capped_at=None) -> ScanRow:
    return ScanRow(c.numerator, c.denominator, decision.verdict.value, decision.witness_text(),
                   horizon, zset, rin_failures, capped_at)


def _exact_row(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int) -> ScanRow:
    """The row from one exact walk: iterate's verdict and window, then zsigmondy_set."""
    orbit = iterate(g, c, horizon, bit_cap)
    if orbit.decision.verdict is Verdict.FINITE_ORBIT:
        return _row(c, horizon, orbit.decision)
    report = zsigmondy_set(orbit)
    return _row(c, horizon, orbit.decision, report.zset, report.rin_failures, orbit.capped_at)


def _enclosed_tail(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int, start: tuple,
                   nums: list[int], support: tuple) -> tuple[bool, Optional[int]]:
    """(decided, capped_at) of the indices past start = (n, num, den, deep), from enclosures.

    At each precision the walk restarts from the exact entry n and steps an
    interval of the value.  Scale * log2 of |N| = |value| * M and of M are
    bounded in integers, with scale the precision: val_p(M) comes off the
    ledger, val_p(M') = d * val_p(M) - val_p(u_d), so the bounds on scale *
    log2 M follow the same rule.  An index is decided when |N| exceeds prod,
    the N_(n/q) over the primes q | n (nums give the exact ones, later ones
    their upper bounds), which keeps it out of the Zsigmondy set and the
    inequality failures, and when |N| and M both lie on one side of the cap.
    An interval around 0 or a bound on the wrong side tries the next
    precision; past the last one, the answer is (False, None).
    """
    n0, num, den, deep = start
    d, horner, c_num, c_den = g.degree, g._horner, c.numerator, c.denominator
    index_primes = _index_primes(horizon)
    for prec in enclosure.PRECISIONS:
        cap = prec * bit_cap
        upper = [prec * x.bit_length() for x in nums]  # bounds on prec * log2 N
        den_lo = den_hi = drop_lo = drop_hi = 0
        for p, _, lead_val in support:
            p_lo, p_hi = enclosure.log2_prime(p, prec)
            den_lo, den_hi = den_lo + deep[p] * p_lo, den_hi + deep[p] * p_hi
            drop_lo, drop_hi = drop_lo + lead_val * p_lo, drop_hi + lead_val * p_hi
        lo, hi, exp = enclosure.enclose_ratio(num, den, prec)
        for n in range(n0 + 1, horizon + 1):
            lo, hi, exp = enclosure.orbit_step(lo, hi, exp, horner, c_num, c_den, prec)
            if lo <= 0 <= hi:
                break
            den_lo, den_hi = d * den_lo - drop_lo, d * den_hi - drop_hi
            prod_hi = 0
            for q in index_primes[n - 1]:
                prod_hi += upper[n // q - 1]
            for v_lo, v_hi in enclosure.log2_bounds(lo, hi, exp, prec):
                n_lo, n_hi = v_lo + den_lo, v_hi + den_hi
                capped = n_lo >= cap or den_lo >= cap
                if n_lo > prod_hi and (capped or max(n_hi, den_hi) < cap):
                    break
            else:  # not even the finer bounds settle n: try the next precision
                break
            upper.append(n_hi)
            if capped:
                return True, n
        else:
            return True, None
    return False, None


def _value_free_row(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int,
                    support: tuple) -> ScanRow:
    """The row of an all-deep parameter, with exact values only as far as they are needed.

    One walk runs exactly until it has the verdict and its entry has
    outgrown enclosure.PRECISIONS[0] bits, deciding each index with
    zsigmondy_set's size test; a finite verdict ends the row at once.  The
    remaining indices are decided from enclosures; one they cannot settle
    sends the same walk on exactly through the rest of the window.
    """
    index_primes = _index_primes(horizon)
    nums: list[int] = []
    zset, rin_failures = [], []
    capped_at = None
    handoff = enclosure.PRECISIONS[0]
    k = 0  # indices decided so far
    for n, num, den, deep, decision in _decided_pairs(g, c, support):
        bits = max(num.bit_length(), den.bit_length())
        if n <= horizon and capped_at is None:
            nums.append(abs(num))
            if bits > bit_cap:
                capped_at = n
        if decision is None:
            continue
        if decision.verdict is Verdict.FINITE_ORBIT:
            return _row(c, horizon, decision)
        # only an infinite orbit's indices are decided: none is zero, no strip is wasted
        while k < len(nums):
            k += 1
            prod = 1
            for q in index_primes[k - 1]:
                prod *= nums[k // q - 1]
            small, member = _size_test(nums[k - 1], prod)
            if small:
                rin_failures.append(k)
            if member:
                zset.append(k)
        if n >= horizon or capped_at is not None:
            break
        if handoff is not None and bits > handoff:
            decided, capped_at = _enclosed_tail(g, c, horizon, bit_cap, (n, num, den, deep),
                                                nums, support)
            if decided:
                break
            handoff = None  # the same walk goes on exactly to the end of the window
    return _row(c, horizon, decision, tuple(zset), tuple(rin_failures), capped_at)


def _scan_one(payload: tuple) -> ScanRow:
    """Classify one parameter; module level so process pools can pickle it.

    The payload is (g, c, horizon, bit_cap) with c the grid's Fraction.  A
    parameter whose den(c) primes are all deep at index 1 gets the
    value-free row; any other gets the exact one.  Either way one walk gives
    both the verdict and the window.
    """
    g, c, horizon, bit_cap = payload
    support = _den_support(g.lead, c.denominator)
    if _all_deep(support):
        return _value_free_row(g, c, horizon, bit_cap, support)
    return _exact_row(g, c, horizon, bit_cap)


@dataclass(frozen=True)
class ScanSummary:
    """A scan's rows and tallies: a pure function of its config, with no timing."""
    config: ScanConfig
    rows: tuple[ScanRow, ...]
    verdict_counts: dict
    empirical_max_zset_size: int


def _worker_count(requested: int, grid_size: int) -> int:
    """Worker processes for a scan: no more than the grid points or the usable CPUs."""
    return max(1, min(requested, grid_size, _usable_cpus()))


def run_scan(config: ScanConfig) -> ScanSummary:
    """Run the full grid on up to config.parallelism worker processes.

    Every payload carries the same polynomial instance, so the invariants it
    caches (length, escape floor, Horner coefficients) are worked out once
    per process, and the grid's own Fraction, so no parameter is rebuilt.
    Pool workers start no den^d helper (arith.power_on_helper): the pool
    already fills the CPUs, and a forked worker closes its copies of the
    parent's helper pipes before its first parameter.
    """
    requested = config.parallelism
    payloads = [(config.poly, c, config.horizon, config.bit_cap) for c in grid(config)]
    workers = _worker_count(requested, len(payloads))
    if workers < requested:
        print(f"zsig: {requested} workers requested, using {workers} "
              f"({len(payloads)} grid points, {_usable_cpus()} CPUs)", file=sys.stderr)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only for a pool

        chunk = max(1, len(payloads) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers, initializer=_no_helper) as pool:
            rows = tuple(pool.map(_scan_one, payloads, chunksize=chunk))
    else:
        rows = tuple(_scan_one(p) for p in payloads)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row.verdict] = counts.get(row.verdict, 0) + 1
    max_z = max((row.zset_size for row in rows if row.zset_size is not None), default=0)
    return ScanSummary(
        config=config,
        rows=rows,
        verdict_counts=counts,
        empirical_max_zset_size=max_z,
    )


def csv_text(summary: ScanSummary) -> str:
    lines = [CSV_HEADER, *(row.csv_cells() for row in summary.rows)]
    return "".join(",".join(cells) + "\n" for cells in lines)


def json_text(summary: ScanSummary) -> str:
    cfg = summary.config
    obj = {
        "config": {
            "poly": str(cfg.poly),
            "coeffs": list(cfg.poly.coeffs),
            "num_bound": cfg.num_bound,
            "den_bound": cfg.den_bound,
            "horizon": cfg.horizon,
            "bit_cap": cfg.bit_cap,
        },
        "rows": [row.json_obj() for row in summary.rows],
        "verdict_counts": summary.verdict_counts,
        "empirical_max_zset_size": summary.empirical_max_zset_size,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_output(summary: ScanSummary) -> str:
    """Render per config.format and write to config.output if set; returns text."""
    text = csv_text(summary) if summary.config.format == "csv" else json_text(summary)
    if summary.config.output is not None:
        with open(summary.config.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
