"""Deterministic parameter scans over rational grids.

A scan walks every reduced fraction a/b with |a| <= num_bound and
1 <= b <= den_bound in a fixed order (b ascending, then a ascending),
classifies each orbit, and computes the Zsigmondy window for the
parameters with infinite orbit.  Output is byte-identical across reruns
and worker counts: rows keep grid order regardless of parallelism and
wall-clock time never enters the files.

A row reads only the verdict, zset, rin_failures and capped_at, and
_scan_one builds every row from one walk that keeps only |N_n|.  A finite
verdict ends the row.  A parameter builds exact values only until its
verdict is in and an entry passes enclosure.PRECISIONS[0] bits.  Each
later index is decided without values, on the rungs of bounds zsig.tail
builds from that entry; an index no rung settles sends the same walk on
exactly.  The exact indices are decided by the per-index rule
zsigmondy_set runs; oracle._exact_row, the row of iterate and
zsigmondy_set, is the reference.

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

from . import enclosure, tail
from .arith import _no_helper, _usable_cpus
# unused here: perfbench --trace 1 patches decide_membership, iterate and zsigmondy_set on
# this module until ROADMAP item 2d
from .orbit import (
    DEFAULT_BIT_CAP,
    MembershipDecision,
    Verdict,
    _decided_pairs,
    _den_support,
    decide_membership,
    escape_radius,
    iterate,
)
from .poly import X2DivisiblePoly, _poly_from_text
from .zsigmondy import _index_columns, _index_primes, _tracked_primes, zsigmondy_set

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


def _settle(logs, marks, upper: list[int], cap: int, n0: int,
            index_primes: tuple) -> tuple[bool, Optional[int]]:
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


def _enclosed_tail(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int, start: tuple,
                   nums: list[int], support: tuple, radius: Fraction) -> tuple[bool, Optional[int]]:
    """(decided, capped_at) of the indices past start = (n, num, den, deep), without values.

    _settle tries each of tail.rungs in turn, with the bit lengths of nums =
    |N_1|, ..., |N_n| as upper bounds; past the last, the caller goes on exactly.
    """
    index_primes = _index_primes(horizon)
    for scale, logs, marks in tail.rungs(g, c, support, start, nums, horizon, radius):
        decided = _settle(logs, marks, [scale * x.bit_length() for x in nums], scale * bit_cap,
                          start[0], index_primes)
        if decided[0]:
            return decided
    return False, None


def _scan_one(payload: tuple) -> ScanRow:
    """The row of one parameter from one walk; module level so process pools can pickle it.

    The payload is (g, c, horizon, bit_cap) with c the grid's Fraction.  A
    finite verdict ends the row.  From the first entry past 64 bits, once
    the verdict is infinite, the walk hands the later indices to
    _enclosed_tail.  The exact indices are decided at the end by
    _index_columns, with the den(c) primes not deep at index 1 tracked.
    """
    g, c, horizon, bit_cap = payload
    support = _den_support(g.lead, c.denominator)
    radius = escape_radius(g, c)
    nums: list[int] = []
    capped_at = None
    handoff = enclosure.PRECISIONS[0]
    for n, num, den, deep, decision in _decided_pairs(g, c, support, radius):
        if n == 1:
            tracked = _tracked_primes((p for p, _, _ in support), deep)
        bits = max(num.bit_length(), den.bit_length())
        if n <= horizon and capped_at is None:
            nums.append(abs(num))
            if bits > bit_cap:
                capped_at = n
        if decision is None:
            continue
        if decision.verdict is Verdict.FINITE_ORBIT:
            return _row(c, horizon, decision)
        if n >= horizon or capped_at is not None:
            break
        if handoff is not None and bits > handoff:
            decided, capped_at = _enclosed_tail(g, c, horizon, bit_cap, (n, num, den, deep),
                                                nums, support, radius)
            if decided:
                break
            handoff = None  # the same walk goes on exactly to the end of the window
    _, _, zset, rin_failures = _index_columns(nums, tracked)
    return _row(c, horizon, decision, tuple(zset), tuple(rin_failures), capped_at)


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
