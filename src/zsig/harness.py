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
later index is decided from the ledger's denominator valuations, the
valuations of N_n at the den(c) primes already seen, and, on each rung,
one pair of integer bounds on log2 of its value.  A deep den(c) prime
steps its ledger by one recursion and divides no later numerator; a
shallow one, which does not divide rigidly, is stepped on residues mod
a power of it.  Where that entry has passed the escape radius, the rung
of whole-bit bounds from the escape growth comes first; otherwise, or
where it leaves an index open, the rungs of intervals stepped from the
entry at rising precision; an index no rung settles, or a residue that
runs out of digits, sends the same walk on exactly.  The exact indices
are decided by the per-index rule zsigmondy_set runs; _exact_row, the
row of iterate and zsigmondy_set, is the reference.

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
from functools import lru_cache
from math import gcd
from operator import attrgetter
from typing import Optional, get_type_hints

from . import enclosure
from .arith import _no_helper, _usable_cpus
# decide_membership is unused here; perfbench --trace 1 patches it until ROADMAP item 2d
from .orbit import (
    DEFAULT_BIT_CAP,
    MembershipDecision,
    Verdict,
    _decided_pairs,
    _den_support,
    _past_radius,
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


def _exact_row(g: X2DivisiblePoly, c: Fraction, horizon: int, bit_cap: int) -> ScanRow:
    """The row iterate and zsigmondy_set give: the reference _scan_one is checked against."""
    orbit = iterate(g, c, horizon, bit_cap)
    if orbit.decision.verdict is Verdict.FINITE_ORBIT:
        return _row(c, horizon, orbit.decision)
    report = zsigmondy_set(orbit)
    return _row(c, horizon, orbit.decision, report.zset, report.rin_failures, orbit.capped_at)


def _escape_bits(g: X2DivisiblePoly, c: Fraction, num: int, den: int):
    """Whole-bit bounds lo < log2|value| < hi at each index past the entry num/den, or None.

    None unless |num/den| >= R = escape_radius(g, c), the escape radius.
    Then lo = bitlen|num| - bitlen(den) - 1 and hi = lo + 2 at the entry,
    and each step of g + c takes them to d * lo - 1 and d * hi +
    bitlen(2 * sum |u_i|); _enclosed_tail proves the step.  Each later
    index gets its one pair (lo, hi).
    """
    radius = escape_radius(g, c)
    if not _past_radius(num, den, radius.numerator, radius.denominator):
        return None
    d, grow = g.degree, (2 * sum(map(abs, g.coeffs))).bit_length()

    def grown(lo, hi):
        while True:
            lo, hi = d * lo - 1, d * hi + grow
            yield lo, hi

    lo = num.bit_length() - den.bit_length() - 1
    return grown(lo, lo + 2)


def _digit_budget(steps: int) -> int:
    """p-adic digits K of each shallow prime's residue at a handoff with steps indices to go."""
    return 4 * steps + 8


def _den_column(g: X2DivisiblePoly, c: Fraction, prime: tuple, num: int, den: int, m: int,
                steps: int) -> tuple[list[int], list[int]]:
    """val_p(M_n) and val_p(N_n) at each of the steps indices past the entry num/den, if known.

    prime is one (p, b, val_p(u_d)) of the support and m = val_p(den).  The
    ledger steps as orbit._orbit_pairs steps it: a deep p takes k =
    val_p(u_d) + b.  A shallow p reads k off residues mod p^K, K =
    _digit_budget(steps) at the entry, of the pair (num, den) times a
    p-adic unit.  The raw numerator B * P + A * M^d is homogeneous of degree
    d in the pair, so its residue has the exact value's val_p; k =
    min(val_p(raw), d * m + b), which the residue shows while it is not 0;
    the pair goes on as (raw, M^d * B) / p^k mod p^(K - k), the other
    primes' shrink left in the unit; and val_p(N') = val_p(raw) - k.  A raw
    residue of 0 mod p^K ends the columns early: its digits ran out.
    """
    p, b, lead_val = prime
    d = g.degree
    dens: list[int] = []
    vals: list[int] = []
    if m <= lead_val:
        lead, lower = g._horner
        c_num, c_den = c.numerator, c.denominator
        mod = p ** _digit_budget(steps)
        r, s = num % mod, den % mod
    for _ in range(steps):
        if m > lead_val:
            m = d * m - lead_val
            dens.append(m)
            vals.append(0)
            continue
        acc, s_k = lead, 1
        for u in lower:
            s_k = s_k * s % mod
            acc = (acc * r + u * s_k) % mod
        raw = (acc * r * r * c_den + c_num * s_k * s * s) % mod
        if not raw:
            break
        v, x = 0, raw
        while x % p == 0:
            x //= p
            v += 1
        k = min(v, d * m + b)
        shift = p**k
        r, s, mod = raw // shift, pow(s, d, mod) * c_den % mod // shift, mod // shift
        m = d * m + b - k
        dens.append(m)
        vals.append(v - k)
    return dens, vals


def _den_walk(g: X2DivisiblePoly, c: Fraction, support: tuple, start: tuple, nums: list[int],
              horizon: int) -> tuple[tuple, tuple]:
    """(ledgers, drops) of the indices past start = (n0, num, den, deep), as far as known.

    ledgers lists val_p(M_n) over the support primes at each index, and
    drops the pairs (p, val_p(N_n)), val_p(N_n) > 0, at the primes of seen:
    the tracked den(c) primes that divide an earlier numerator, read off
    nums = |N_1|, ..., |N_(n0)| and then off the later valuations.  Only a
    prime shallow at n0 can divide a later numerator, and it is tracked.
    Each prime's columns come from _den_column; the lists stop at the
    shortest.
    """
    n0, num, den, deep = start
    steps = horizon - n0
    dens, vals = [], []
    for prime in support:
        p = prime[0]
        m = deep.get(p, 0)
        if not m:
            while den % p ** (m + 1) == 0:
                m += 1
        column = _den_column(g, c, prime, num, den, m, steps)
        dens.append(column[0])
        if p not in deep:
            vals.append((p, column[1]))
    ledgers = tuple(zip(*dens))
    drops = [()] * len(ledgers)
    for p, column in vals:
        if not any(column):
            continue
        seen = any(x % p == 0 for x in nums)
        for j, v in enumerate(column[:len(ledgers)]):
            if v:
                if seen:
                    drops[j] += ((p, v),)
                seen = True
    return ledgers, tuple(drops)


@lru_cache(maxsize=256)
def _den_marks(support: tuple, ledgers: tuple, drops: tuple,
               scale: int) -> tuple[tuple[int, int, int], ...]:
    """Integers (m_lo, m_hi, s_hi) per index of a _den_walk, at one scale.

    m_lo <= scale * log2 M_n <= m_hi, from the ledger's val_p(M_n), and
    s_hi >= scale * log2 of N_n's part at the primes of seen, from drops.
    The bounds on M run in 2^-k units, 2^k past every val_p(M) in the
    ledgers, on brackets of 2^k * scale * log2 p one unit wide
    (enclosure.log2_prime), so m_lo and m_hi lie within a unit per den(c)
    prime of each other.  Kept per key: a scan meets few denominators,
    ledgers and precisions.
    """
    k = max(map(max, ledgers), default=0).bit_length() if support else 0
    logs = [enclosure.log2_prime(p, scale << k) for p, _, _ in support]
    marks = []
    for ledger, seen_part in zip(ledgers, drops):
        den_lo = den_hi = 0
        for m, (p_lo, p_hi) in zip(ledger, logs):
            den_lo, den_hi = den_lo + m * p_lo, den_hi + m * p_hi
        seen_hi = 0
        for p, v in seen_part:
            seen_hi += v * enclosure.log2_prime(p, scale)[1]
        marks.append((den_lo >> k, -(-den_hi >> k), seen_hi))
    return tuple(marks)


@lru_cache(maxsize=256)
def _deep_marks(d: int, support: tuple, ledger: tuple[int, ...], steps: int,
                scale: int) -> tuple[tuple[int, int, int], ...]:
    """_den_marks of the steps indices past one at which every den(c) prime is deep.

    A deep prime goes to val_p(M') = d * val_p(M) - val_p(u_d) and divides no
    later numerator, so the marks follow from the ledger at the handoff.
    """
    ledgers = []
    for _ in range(steps):
        ledger = tuple(d * m - lead_val for m, (_, _, lead_val) in zip(ledger, support))
        ledgers.append(ledger)
    return _den_marks(support, tuple(ledgers), ((),) * steps, scale)


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
                   nums: list[int], support: tuple) -> tuple[bool, Optional[int]]:
    """(decided, capped_at) of the indices past start = (n, num, den, deep), without values.

    |N| = |value| * M, and each rung bounds scale * log2 of |value| and M in
    integers and lets _settle decide every index by one rule.  The first
    rung, at scale 1, applies where the entry has escaped: _escape_bits
    grows whole-bit bounds on log2|value| by the escape growth.  With
    L = length(g), if |v| >= R = max(4L, |c|) >= 4, then |g(v)| >= |u_d|
    |v|^(d-1) (|v| - (L - 1)) >= 3/4 |v|^d, so |g(v) + c| >= 3/4 |v|^d - |v|
    >= |v|^d / 2 >= 2|v| >= R, and the bound chains to the next step; the
    other way, |g(v) + c| <= (sum |u_i|) |v|^d + |v| <= 2 (sum |u_i|) |v|^d.
    This is the per-step form of lemmas.check_escape_growth and
    check_upper_bounds.  Where that rung does not apply or leaves an index
    open, the interval rungs run from the same entry at each precision in
    enclosure.PRECISIONS in turn, with scale the precision.  nums give the
    exact N_n, whose upper bounds are their bit lengths.  The bounds on M
    and on the seen primes' part of N come from _deep_marks where every
    den(c) prime is deep at the entry, and otherwise from _den_walk, whose
    lists stop where a residue runs out of digits.  Past the last precision,
    or past the end of those lists, the answer is (False, None), and the
    caller goes on exactly.
    """
    n0, num, den, deep = start
    index_primes = _index_primes(horizon)
    key = (g.degree, support, tuple(deep.values()), horizon - n0)
    walk = None if len(deep) == len(support) else _den_walk(g, c, support, start, nums, horizon)
    growth = _escape_bits(g, c, num, den)
    for scale in enclosure.PRECISIONS if growth is None else (1, *enclosure.PRECISIONS):
        logs = growth if scale == 1 else _interval_logs(g, c, num, den, scale)
        marks = _deep_marks(*key, scale) if walk is None else _den_marks(support, *walk, scale)
        decided = _settle(logs, marks, [scale * x.bit_length() for x in nums], scale * bit_cap,
                          n0, index_primes)
        if decided[0]:
            return decided
    return False, None


def _scan_one(payload: tuple) -> ScanRow:
    """The row of one parameter from one walk; module level so process pools can pickle it.

    The payload is (g, c, horizon, bit_cap) with c the grid's Fraction.  A
    finite verdict ends the row.  From the first entry past 64 bits, once
    the verdict is infinite, the walk hands the later indices to
    _enclosed_tail, which reads the den(c) primes still shallow there off
    residues.  The exact indices are decided at the end by _index_columns,
    with the den(c) primes not deep at index 1 tracked.
    """
    g, c, horizon, bit_cap = payload
    support = _den_support(g.lead, c.denominator)
    nums: list[int] = []
    capped_at = None
    handoff = enclosure.PRECISIONS[0]
    for n, num, den, deep, decision in _decided_pairs(g, c, support):
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
                                                nums, support)
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
