"""Grid scans: enumeration, determinism, serialization, configuration."""
import concurrent.futures
import csv
import io
import itertools
import json
import math
import os
import re
from fractions import Fraction
from functools import cached_property

import pytest

import zsig.arith
import zsig.enclosure
import zsig.harness
import zsig.oracle
import zsig.orbit
import zsig.tail
import zsig.zsigmondy
from zsig.harness import (
    CSV_HEADER,
    ScanConfig,
    _worker_count,
    csv_text,
    grid,
    json_text,
    run_scan,
    write_output,
)
from zsig.orbit import escape_radius, iterate
from zsig.poly import X2DivisiblePoly

F = Fraction
CUBIC = X2DivisiblePoly.parse("x^3+x^2")


def _cfg(**kw):
    base = dict(poly=CUBIC, num_bound=3, den_bound=2, horizon=6)
    base.update(kw)
    return ScanConfig(**base)


def test_grid_counts_are_farey_counts():
    def farey_count(A, B):
        n = 0
        for b in range(1, B + 1):
            for a in range(-A, A + 1):
                if math.gcd(abs(a), b) == 1:
                    n += 1
        return n

    for A, B, want in [(10, 4, 55), (20, 6, 155), (3, 2, 11), (5, 3, 25)]:
        cfg = _cfg(num_bound=A, den_bound=B)
        pts = grid(cfg)
        assert len(pts) == want == farey_count(A, B)
        assert len(set(pts)) == len(pts)  # every value exactly once


def test_grid_order_is_denominator_major():
    pts = grid(_cfg(num_bound=2, den_bound=3))
    dens = [p.denominator for p in pts]
    assert dens == sorted(dens)
    for b in (1, 2, 3):
        nums = [p.numerator for p in pts if p.denominator == b]
        assert nums == sorted(nums)


def test_grid_empty_at_zero_numerator_bound():
    cfg = _cfg(num_bound=0)
    assert grid(cfg) == []
    summary = run_scan(cfg)
    assert summary.rows == ()
    assert summary.empirical_max_zset_size == 0
    assert csv_text(summary).splitlines() == [",".join(CSV_HEADER)]


def test_scan_frozen_grid():
    summary = run_scan(_cfg())
    assert len(summary.rows) == 11
    assert summary.verdict_counts == {"escape": 5, "finite": 2, "denominator": 4}
    by_c = {F(r.c_num, r.c_den): r for r in summary.rows}
    assert by_c[F(-1)].verdict == "finite"
    assert by_c[F(-1)].witness == "tail=1;cycle=1"
    assert by_c[F(-1)].zset is None
    assert by_c[F(1)].verdict == "escape" and by_c[F(1)].zset == (1,)
    assert by_c[F(1, 2)].verdict == "denominator"
    assert by_c[F(1, 2)].witness == "n=1;p=2"
    assert by_c[F(0)].verdict == "finite"


def test_scan_rows_keep_grid_order():
    cfg = _cfg()
    summary = run_scan(cfg)
    assert [F(r.c_num, r.c_den) for r in summary.rows] == grid(cfg)


def test_csv_schema_and_joined_cells():
    cfg = ScanConfig(poly=X2DivisiblePoly.parse("x^2"), num_bound=5,
                     den_bound=3, horizon=8)
    summary = run_scan(cfg)
    text = csv_text(summary)
    lines = text.splitlines()
    assert lines[0] == "c_num,c_den,verdict,witness,horizon,zset,zset_size,rin_failures,capped_at"
    assert len(lines) == 1 + 25
    assert summary.empirical_max_zset_size == 2  # at c = -1/2
    row = next(l for l in lines if l.startswith("-1,2,"))
    cells = row.split(",")
    assert cells[2] == "denominator"
    assert cells[5] == "1;2" and cells[6] == "2"
    # finite rows leave the window columns blank
    fin = next(l for l in lines if l.startswith("-1,1,"))
    assert fin.split(",")[5:] == ["", "", "", ""]


def test_json_mirrors_csv_schema():
    summary = run_scan(_cfg())
    obj = json.loads(json_text(summary))
    assert len(obj["rows"]) == 11
    assert obj["verdict_counts"] == {"escape": 5, "finite": 2, "denominator": 4}
    assert obj["empirical_max_zset_size"] == 1
    one = next(r for r in obj["rows"] if (r["c_num"], r["c_den"]) == (1, 1))
    assert one["zset"] == [1] and one["zset_size"] == 1
    fin = next(r for r in obj["rows"] if (r["c_num"], r["c_den"]) == (-1, 1))
    assert fin["zset"] is None and fin["capped_at"] is None
    # runtime must not leak into the serialization, nor into the summary itself
    assert "runtime" not in json_text(summary)
    assert run_scan(_cfg()) == summary


def test_csv_and_json_rows_render_every_column_alike():
    """Each CSV cell is its row's JSON value under one rule, in CSV_HEADER order.

    None is a blank cell and null, an index tuple a ";"-joined cell and a
    list, and anything else its str() and itself.
    """
    summary = run_scan(ScanConfig(poly=X2DivisiblePoly.parse("x^2"), num_bound=3,
                                  den_bound=2, horizon=7, bit_cap=40))
    rows = summary.rows
    assert any(r.zset is None for r in rows)  # finite orbits
    assert any(r.capped_at is not None for r in rows)
    assert any(r.zset is not None and r.capped_at is None for r in rows)
    assert any(len(r.zset or ()) > 1 for r in rows)
    assert any(r.rin_failures for r in rows)
    table = list(csv.reader(io.StringIO(csv_text(summary))))
    records = json.loads(json_text(summary))["rows"]
    assert table[0] == CSV_HEADER
    assert len(table) - 1 == len(records) == len(rows)
    for row, cells, record in zip(rows, table[1:], records):
        assert sorted(record) == sorted(CSV_HEADER)
        for name, cell in zip(CSV_HEADER, cells, strict=True):
            value = getattr(row, name)
            if isinstance(value, tuple):
                assert record[name] == list(value)
                assert cell == ";".join(map(str, value))
            else:
                assert record[name] == value
                assert cell == ("" if value is None else str(value))
    # the cells are comma-free, so a csv.writer has nothing to quote
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([CSV_HEADER, *(row.csv_cells() for row in rows)])
    assert csv_text(summary) == buf.getvalue()
    lines = csv_text(summary).splitlines()
    assert "-1,2,denominator,n=1;p=2,7,1;2,2,1;2,7" in lines
    assert "1,1,escape,n=2,7,1,1,1," in lines


def test_determinism_across_parallelism():
    texts = {}
    for workers in (1, 2, 3):
        summary = run_scan(_cfg(parallelism=workers))
        texts[workers] = (csv_text(summary), json_text(summary))
    assert texts[1] == texts[2] == texts[3]


def test_parallelism_setting_starts_its_pool(monkeypatch):
    # the configured worker count is the pool's size, and the rows are the serial ones
    serial = csv_text(run_scan(_cfg()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real_pool = concurrent.futures.ProcessPoolExecutor
    started = []

    def recording_pool(max_workers, **options):
        started.append(max_workers)
        return real_pool(max_workers=max_workers, **options)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    assert csv_text(run_scan(_cfg(parallelism=2))) == serial
    assert started == [2]


def test_bit_cap_recorded_per_row():
    summary = run_scan(_cfg(num_bound=1, den_bound=1, horizon=12, bit_cap=64))
    capped = [r for r in summary.rows if r.capped_at is not None]
    assert capped, "expected at least one capped row"
    for r in capped:
        assert r.verdict in ("escape", "denominator")
        assert r.zset is not None  # window truncated, not dropped


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(den_bound=0)
    with pytest.raises(ValueError):
        _cfg(horizon=0)
    with pytest.raises(ValueError, match="bit_cap must be at least 1"):
        _cfg(bit_cap=0)
    with pytest.raises(ValueError):
        _cfg(parallelism=0)
    with pytest.raises(ValueError):
        _cfg(format="xml")


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "scan.cfg"
    path.write_text(
        "# cubic sweep\n"
        "poly = x^3+x^2\n"
        "num_bound = 3\n"
        "den_bound = 2   # denominators\n"
        "horizon = 6\n"
        "format = json\n"
    )
    cfg = ScanConfig.from_file(str(path))
    assert cfg.poly == CUBIC
    assert (cfg.num_bound, cfg.den_bound, cfg.horizon) == (3, 2, 6)
    assert cfg.format == "json"


def test_config_file_rejects_bad_keys(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("poly = x^2\nnum_bound = 2\nden_bound = 1\nnonsense = 3\n")
    with pytest.raises(ValueError, match="unknown key"):
        ScanConfig.from_file(str(bad))
    dup = tmp_path / "dup.cfg"
    dup.write_text("poly = x^2\npoly = x^3\nnum_bound = 2\nden_bound = 1\n")
    with pytest.raises(ValueError, match="duplicate"):
        ScanConfig.from_file(str(dup))
    both = tmp_path / "both.cfg"
    both.write_text("poly = x^2\ncoeffs = 0,0,1\nnum_bound = 2\nden_bound = 1\n")
    with pytest.raises(ValueError, match="not both"):
        ScanConfig.from_file(str(both))
    bare = tmp_path / "bare.cfg"
    bare.write_text("poly = x^2\nnum_bound 2\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(bare))}:2: expected key = value$"):
        ScanConfig.from_file(str(bare))
    # the settings without a default are required
    short = tmp_path / "short.cfg"
    short.write_text("poly = x^2\nnum_bound = 2\n")
    with pytest.raises(ValueError, match="^config needs den_bound$"):
        ScanConfig.from_file(str(short))
    short.write_text("num_bound = 2\nden_bound = 1\n")
    with pytest.raises(ValueError, match="^config needs poly or coeffs$"):
        ScanConfig.from_file(str(short))


def test_config_file_coeffs_form(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("coeffs = 0,0,1,1\nnum_bound = 1\nden_bound = 1\n")
    assert ScanConfig.from_file(str(path)).poly == CUBIC


def test_write_output_path(tmp_path):
    out = tmp_path / "rows.csv"
    cfg = _cfg(output=str(out))
    text = write_output(run_scan(cfg))
    assert out.read_text() == text
    assert text.startswith("c_num,")


def test_scans_name_no_witnesses(monkeypatch):
    """A scan names no witness and builds no verdict or Krieger status."""
    orbit = iterate(CUBIC, F(-5, 3), horizon=6)

    def facts(report):
        return report.zset, [(v.has_primitive, v.stripped_remainder_bits)
                             for v in report.verdicts]

    base_csv = csv_text(run_scan(_cfg()))
    base = zsig.zsigmondy.zsigmondy_set(orbit)
    base_facts = facts(base)

    def refuse(*args):
        raise AssertionError(f"built during a scan: {args}")

    monkeypatch.setattr(zsig.zsigmondy, "_bounded_witness", refuse)
    assert csv_text(run_scan(_cfg())) == base_csv
    assert facts(zsig.zsigmondy.zsigmondy_set(orbit)) == base_facts
    assert any(has for has, _ in base_facts[1])

    with monkeypatch.context() as patch:
        patch.setattr(zsig.zsigmondy, "PrimitiveDivisorVerdict", refuse)
        patch.setattr(zsig.zsigmondy.ZsigmondyReport, "krieger_checks", property(refuse))
        assert csv_text(run_scan(_cfg())) == base_csv
        report = zsig.zsigmondy.zsigmondy_set(orbit)
    assert report.verdicts == base.verdicts
    assert report.krieger_checks == base.krieger_checks


def test_worker_count_is_clamped(monkeypatch):
    # the cap is the CPUs this process may use, not the CPUs the machine has
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert _worker_count(10**6, 10**6) == 4
    assert _worker_count(10**6, 3) == 3
    assert _worker_count(2, 100) == 2
    assert _worker_count(3, 0) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count(2, 100) == 1
    # without an affinity mask the machine's count is the cap
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(10**6, 10**6) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(10**6, 10**6) == 1


def test_clamp_note_names_the_usable_cpus(monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    run_scan(_cfg(parallelism=2))
    assert capsys.readouterr().err == (
        "zsig: 2 workers requested, using 1 (11 grid points, 1 CPUs)\n")


def test_scan_factors_no_orbit_index(monkeypatch):
    """Index primes come from one prime list per orbit, never from factoring n,
    and each den(c) is factored once per scan, not once per parameter."""
    calls, den_calls = [], []

    def recording(fn, log):
        def wrapper(n, *args, **kwargs):
            log.append(n)
            return fn(n, *args, **kwargs)
        return wrapper

    # every factoring helper in arith (omega, distinct_prime_factors, ...) calls this one
    monkeypatch.setattr(zsig.arith, "factor_small", recording(zsig.arith.factor_small, calls))
    monkeypatch.setattr(zsig.orbit, "factor_small", recording(zsig.orbit.factor_small, den_calls))
    zsig.orbit._den_support.cache_clear()  # the memo outlives a scan
    cfg = ScanConfig(poly=CUBIC, num_bound=20, den_bound=6, horizon=8)
    rows = run_scan(cfg).rows
    assert len(rows) == 155 and any(r.zset is not None for r in rows)
    assert [n for n in calls if 1 <= abs(n) <= cfg.horizon] == []
    assert len(den_calls) == len(set(den_calls)) <= 5


def test_scan_walks_each_parameter_once(monkeypatch):
    """One orbit walk per grid point gives both its verdict and its window.  The
    walk is counted both where harness steps it and where iterate and
    decide_membership step it, so a second walk by either route is seen."""
    walks = []

    def counted(pairs):
        def wrapper(g, c, support, radius):
            walks.append(c)
            return pairs(g, c, support, radius)
        return wrapper

    for module in (zsig.orbit, zsig.harness):
        monkeypatch.setattr(module, "_decided_pairs", counted(module._decided_pairs))
    rows = run_scan(ScanConfig(poly=CUBIC, num_bound=20, den_bound=6, horizon=8)).rows
    assert len(walks) == len(rows) == 155
    assert walks == [F(r.c_num, r.c_den) for r in rows]


@pytest.mark.parametrize("horizon", [8, 12])
def test_survey_scan_steps_no_operand_past_the_first_precision(monkeypatch, horizon):
    """On the survey grid every infinite row of the three survey families, its den(c)
    primes deep or shallow, is decided from enclosures once its entry passes 64 bits,
    so no exact step gets a wider operand.  The steps stop by index 6, so horizons 8
    and 12 make the same 491, 493 and 491 (2*x^3+x^2 made 613 at horizon 8, and
    3*x^3+2*x^2 512, while rows with a shallow den(c) prime were walked exactly).
    The residue walks of the shallow den(c) primes step the same kernel on operands
    of at most 64 bits: 0, 120 and 21 times at horizon 8, 0, 252 and 41 at 12."""
    exact, residue = [], []
    log = exact
    step, column = X2DivisiblePoly.eval_int_pair, zsig.tail._den_column

    def counted(g, num, den):
        log.append(max(num.bit_length(), den.bit_length()))
        return step(g, num, den)

    def walked(*args):
        nonlocal log
        log = residue
        try:
            return column(*args)
        finally:
            log = exact

    monkeypatch.setattr(X2DivisiblePoly, "eval_int_pair", counted)
    monkeypatch.setattr(zsig.tail, "_den_column", walked)
    residue_steps = {8: (0, 120, 21), 12: (0, 252, 41)}[horizon]
    for text, want, want_residue in zip(("x^3+x^2", "2*x^3+x^2", "3*x^3+2*x^2"),
                                        (491, 493, 491), residue_steps):
        exact.clear()
        residue.clear()
        rows = run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=horizon)).rows
        assert len(rows) == 155
        assert (len(exact), len(residue)) == (want, want_residue), text
        assert max(exact + residue) <= zsig.enclosure.PRECISIONS[0] == 64, text


def test_value_free_rows_survive_a_precision_that_settles_nothing(monkeypatch):
    """With the growth rung off and one 2-bit precision the enclosures give up on 114
    of the 124 tails, the walk goes on exactly from where it handed off, and every
    row the one builder makes, all-deep or shallow, is still the exact one."""
    tails = []
    tail = zsig.harness._enclosed_tail

    def recorded(*args):
        tails.append(tail(*args))
        return tails[-1]

    payloads = [(g, c, horizon, cap) for g in (CUBIC, X2DivisiblePoly.parse("2*x^3+x^2"))
                for c in grid(ScanConfig(g, 6, 4)) for horizon, cap in ((7, 200), (9, 10**6))]
    exact = [zsig.oracle._exact_row(*p) for p in payloads]
    monkeypatch.setattr(zsig.enclosure, "PRECISIONS", (2,))
    monkeypatch.setattr(zsig.tail, "_escape_bits", lambda *args: None)
    monkeypatch.setattr(zsig.harness, "_enclosed_tail", recorded)
    assert [zsig.harness._scan_one(p) for p in payloads] == exact
    assert len(tails) == 124 and tails.count((False, None)) == 114


# -1/2 and -1/4 have |value| < 1 past index 5, so their denominators pass a cap first;
# 2*x^3+x^2 takes val_2(u_d) = 1 off the ledger of den(c) = 4 at each step
_EDGE_CASES = ((CUBIC, F(1, 6)), (CUBIC, F(-1, 2)), (CUBIC, F(7)),
               (X2DivisiblePoly.parse("2*x^3+x^2"), F(-1, 4)),
               (X2DivisiblePoly.parse("2*x^3+x^2"), F(5, 4)))


def test_caps_at_an_entrys_own_bit_length():
    """A cap at, or one under, the numerator's or the denominator's bit length of a
    deep entry ends the window where the exact walk ends it."""
    for g, c in _EDGE_CASES:
        for e in iterate(g, c, horizon=9).entries[4:]:
            for bits in {abs(e.num).bit_length(), e.den.bit_length()} - {1}:  # den(7) = 1
                for cap in (bits - 1, bits):
                    payload = (g, c, 9, cap)
                    assert zsig.harness._scan_one(payload) == zsig.oracle._exact_row(*payload)


def test_enclosed_tail_gives_up_where_the_size_test_fails():
    """With N_1 replaced by |N_5|, prod equals |N_5| at the prime index 5, which
    certifies no primitive prime: every precision gives up on it."""
    support, radius = zsig.orbit._den_support(1, 6), escape_radius(CUBIC, F(1, 6))
    walk = list(itertools.islice(zsig.orbit._decided_pairs(CUBIC, F(1, 6), support, radius), 5))
    start = walk[3][:4]
    nums = [abs(num) for _, num, _, _, _ in walk[:4]]
    tail = zsig.harness._enclosed_tail
    assert tail(CUBIC, F(1, 6), 5, 10**6, start, nums, support, radius) == (True, None)
    nums[0] = abs(walk[4][1])
    assert tail(CUBIC, F(1, 6), 5, 10**6, start, nums, support, radius) == (False, None)


def test_enclosed_tail_takes_the_seen_primes_off_before_the_size_test():
    """2*x^3+x^2 at c = -19/2 hands off at entry 4 with 2 in seen, and 2 divides N_6
    once.  With N_3 replaced by an odd number of bitlen|N_6| - bitlen N_2 - 1 bits,
    the bound 2^(bitlen N_3 + bitlen N_2) on prod = N_3 * N_2 lies under |N_6| but
    not under rest = |N_6| / 2, so nothing certifies a primitive prime at 6 and
    every rung gives up."""
    g, c = X2DivisiblePoly.parse("2*x^3+x^2"), F(-19, 2)
    support, radius = zsig.orbit._den_support(g.lead, c.denominator), escape_radius(g, c)
    walk = list(itertools.islice(zsig.orbit._decided_pairs(g, c, support, radius), 6))
    start = walk[3][:4]
    nums = [abs(num) for _, num, _, _, _ in walk]
    assert [num % 4 for num in nums] == [3, 2, 3, 0, 3, 2]
    tail = zsig.harness._enclosed_tail
    assert tail(g, c, 6, 10**6, start, nums[:4], support, radius) == (True, None)
    nums[2] = (1 << nums[5].bit_length() - nums[1].bit_length() - 2) + 1
    assert nums[2].bit_length() + nums[1].bit_length() == nums[5].bit_length() - 1
    assert tail(g, c, 6, 10**6, start, nums[:4], support, radius) == (False, None)


def test_settle_decides_the_cap_only_where_every_value_in_the_bounds_agrees():
    """Index 1 of a window, with bounds [lo, hi] on log2|value| and [m_lo, m_hi] on
    log2 M, so [lo + m_lo, hi + m_hi] on log2|N|, and every cap around M's bounds:
    _settle reports the index capped only where |N| or M reaches 2^cap at every point
    of the bounds, and not capped only where both stay under it at every point."""
    for lo, width, m_lo, m_width in itertools.product(range(-4, 5), range(3), range(9), range(4)):
        hi, m_hi = lo + width, m_lo + m_width
        for cap in range(max(1, m_lo - 1), m_hi + 2):
            upper = []
            decided, capped_at = zsig.harness._settle(iter([(lo, hi)]), [(m_lo, m_hi, 0)],
                                                       upper, cap, 0, ((),))
            case = (lo, hi, m_lo, m_hi, cap)
            if decided and capped_at:
                assert lo + m_lo >= cap or m_lo >= cap, case
            elif decided:
                assert hi + m_hi < cap and m_hi < cap and upper == [hi + m_hi], case
            else:
                assert lo + m_lo <= 0 or max(lo + m_lo, m_lo) < cap <= max(hi + m_hi, m_hi), case


def test_a_cap_inside_the_old_log2_prime_slack_is_settled_from_enclosures(monkeypatch):
    """x^3+x^2 at c = 1/6: M_n = 6^(3^(n-1)), and a cap equal to the bit length of
    M_9 or M_10 sits about 0.06 or 0.18 bits above log2 M, where one-unit brackets
    of 16384 log2 3 left the upper bound 0.39 or 1.17 bits high even at the last
    precision.  The tail settles it with no exact resumption, and the row is the
    exact one."""
    tails = []
    tail = zsig.harness._enclosed_tail

    def recorded(*args):
        tails.append(tail(*args))
        return tails[-1]

    monkeypatch.setattr(zsig.harness, "_enclosed_tail", recorded)
    for n in (9, 10):
        cap = (6 ** 3 ** (n - 1)).bit_length()
        payload = (CUBIC, F(1, 6), n + 1, cap)
        tails.clear()
        assert zsig.harness._scan_one(payload) == zsig.oracle._exact_row(*payload)
        assert tails == [(True, n + 1)]


def test_a_shallow_finite_row_stops_at_its_verdict(monkeypatch):
    """2*x^3+x^2 at c = -1/2 repeats at entry 2 (its den(c) prime 2 is not deep at
    index 1): one step gives the verdict, and the row needs no more."""
    calls = []
    step = X2DivisiblePoly.eval_int_pair

    def counted(g, num, den):
        calls.append(num)
        return step(g, num, den)

    monkeypatch.setattr(X2DivisiblePoly, "eval_int_pair", counted)
    row = zsig.harness._scan_one((X2DivisiblePoly.parse("2*x^3+x^2"), F(-1, 2), 30, 10**6))
    assert (row.verdict, row.witness, row.zset) == ("finite", "tail=1;cycle=1", None)
    assert len(calls) <= 1


def _counting(monkeypatch, name, log):
    """Replace zsig.enclosure.<name> by a wrapper that logs its last argument."""
    fn = getattr(zsig.enclosure, name)

    def counted(*args):
        log.append(args[-1])
        return fn(*args)

    monkeypatch.setattr(zsig.enclosure, name, counted)


def test_survey_tails_step_intervals_only_where_the_growth_bound_cannot_settle(monkeypatch):
    """On the survey grids at horizon 8, the whole-bit growth bound settles 135 of the
    153 x^3+x^2 tails and 144 of the 153 2*x^3+x^2 tails: the interval ladder starts
    for the other 18 and 9 rows only, and enclosure.orbit_step runs 60 and 27 times
    (582 and 460 when every tail stepped intervals, and 2*x^3+x^2 handed 120 rows
    off)."""
    steps, starts = [], []
    _counting(monkeypatch, "orbit_step", steps)
    _counting(monkeypatch, "enclose_ratio", starts)
    for text, want_steps, want_starts in (("x^3+x^2", 60, 18), ("2*x^3+x^2", 27, 9)):
        steps.clear()
        starts.clear()
        rows = run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=8)).rows
        assert len(rows) == 155
        assert len(steps) == want_steps, text
        assert starts == [zsig.enclosure.PRECISIONS[0]] * want_starts, text


def test_horizon_30_tails_settle_on_the_growth_rung_or_at_64_bits(monkeypatch):
    """On the survey grid at horizon 30, the growth rung is tried on 135, 122 and 137
    tails of x^3+x^2, -x^3+x^2 and x^4+x^2 and settles 124, 108 and 137 of them; the
    64-bit interval rung starts on the other 29, 44 and 16 and settles each, so no
    interval starts at 128 bits and no tail resumes exactly."""
    tried, starts, tails = [], [], []
    escape_bits, tail = zsig.tail._escape_bits, zsig.harness._enclosed_tail

    def growth(*args):
        bits = escape_bits(*args)
        tried.append(bits is not None)
        return bits

    def recorded(*args):
        tails.append(tail(*args))
        return tails[-1]

    monkeypatch.setattr(zsig.tail, "_escape_bits", growth)
    monkeypatch.setattr(zsig.harness, "_enclosed_tail", recorded)
    _counting(monkeypatch, "enclose_ratio", starts)
    for text, want_tried, want_growth, want_64 in (("x^3+x^2", 135, 124, 29),
                                                   ("-x^3+x^2", 122, 108, 44),
                                                   ("x^4+x^2", 137, 137, 16)):
        tried.clear()
        starts.clear()
        tails.clear()
        rows = run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=30)).rows
        assert len(rows) == 155
        assert all(decided for decided, _ in tails), text
        assert tried.count(True) == want_tried, text
        assert len(tails) - len(starts) == want_growth, text
        assert starts == [zsig.enclosure.PRECISIONS[0]] * want_64, text


def test_every_infinite_row_hands_off_at_its_first_entry_past_64_bits(monkeypatch):
    """On the survey grid at horizons 8, 10, 12, 14 and 30, each of the 153 infinite
    rows of 2*x^3+x^2 and of 3*x^3+2*x^2 hands off, at its first entry past 64 bits,
    and every tail settles.  The 2 of den(c) never turns deep on 2*x^3+x^2, so 33
    rows carry it shallow: 22 hand off at index 4, 10 at 5 and 1 at 6 (those rows
    were walked exactly to the end of the window while a tail needed every den(c)
    prime deep).  On 3*x^3+2*x^2, 41 rows track the 3 of den(c); at 8 of them it is
    still shallow at the handoff, 6 at index 4 and 2 at 5: 5 rows that had no tail,
    3 at index 4 and 2 at 5, and 3 whose tail started one index later, where the 3
    had turned deep."""
    tails, tracked = [], []
    tail, tracked_primes = zsig.harness._enclosed_tail, zsig.harness._tracked_primes

    def recorded_tracked(*args):
        tracked.append(tracked_primes(*args))
        return tracked[-1]

    def recorded(g, c, horizon, bit_cap, start, nums, support, radius):
        shallow = len(start[3]) < len(support)
        tails.append((bool(tracked[-1]), start[0] if shallow else None,
                      tail(g, c, horizon, bit_cap, start, nums, support, radius)))
        return tails[-1][2]

    monkeypatch.setattr(zsig.harness, "_tracked_primes", recorded_tracked)
    monkeypatch.setattr(zsig.harness, "_enclosed_tail", recorded)
    for text, want_tracked, want_shallow in (("2*x^3+x^2", 33, {4: 22, 5: 10, 6: 1}),
                                             ("3*x^3+2*x^2", 41, {4: 6, 5: 2})):
        for horizon in (8, 10, 12, 14, 30):
            tails.clear()
            rows = run_scan(ScanConfig(X2DivisiblePoly.parse(text), 20, 6, horizon=horizon)).rows
            assert len(rows) == 155
            assert len(tails) == 153 == sum(r.zset is not None for r in rows), (text, horizon)
            assert [late for late, _, _ in tails].count(True) == want_tracked, (text, horizon)
            handoffs = [n for _, n, _ in tails if n is not None]
            assert {n: handoffs.count(n) for n in set(handoffs)} == want_shallow, (text, horizon)
            assert all(decided for _, _, (decided, _) in tails), (text, horizon)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_a_cap_inside_the_growth_bounds_falls_back_to_intervals(monkeypatch, n):
    """x^3+x^2 at c = 7 escapes at entry 2 and hands off at entry 4.  A cap equal to
    the bit length of N_6, N_7 or N_8 lies between the whole-bit bounds there, so
    the growth rung cannot settle the index; the interval ladder runs from the
    handoff entry, and the row is the exact one."""
    starts = []
    cap = abs(iterate(CUBIC, 7, horizon=n).entries[-1].num).bit_length()
    payload = (CUBIC, F(7), 9, cap)
    exact = zsig.oracle._exact_row(*payload)
    _counting(monkeypatch, "enclose_ratio", starts)
    assert zsig.harness._scan_one(payload) == exact
    assert exact.capped_at == n + 1
    assert starts == [zsig.enclosure.PRECISIONS[0]]


def test_scan_builds_coefficient_length_once(monkeypatch):
    """One polynomial instance serves the grid, so its length is built once."""
    builds = []
    cached = X2DivisiblePoly.__dict__["_length"]

    def counted(g):
        builds.append(g)
        return cached.func(g)

    prop = cached_property(counted)
    prop.__set_name__(X2DivisiblePoly, "_length")
    monkeypatch.setattr(X2DivisiblePoly, "_length", prop)
    poly = X2DivisiblePoly.parse("x^3+x^2")  # fresh: nothing cached yet
    rows = run_scan(ScanConfig(poly=poly, num_bound=20, den_bound=6, horizon=8)).rows
    assert len(rows) == 155
    assert builds == [poly]


def _exact_den_columns(g, c, horizon):
    """Per index of the exact walk: (n, num, den, deep), the ledger val_p(M_n) over the
    support primes, and the pairs (p, val_p(N_n)), val_p(N_n) > 0, at the tracked primes
    that divide an earlier numerator."""
    support = zsig.orbit._den_support(g.lead, c.denominator)
    tracked = [p for p, b, lead_val in support if b <= lead_val]
    walk, ledgers, drops, seen = [], [], [], set()
    for n, num, den, deep, _ in itertools.islice(
            zsig.orbit._decided_pairs(g, c, support, escape_radius(g, c)), horizon):
        walk.append((n, num, den, deep))
        ledgers.append(tuple(zsig.arith.val_p(den, p) for p, _, _ in support))
        vals = [(p, zsig.arith.val_p(num, p)) for p in tracked]
        drops.append(tuple((p, v) for p, v in vals if v and p in seen))
        seen.update(p for p, v in vals if v)
    return support, walk, ledgers, drops


@pytest.mark.parametrize("text", ["2*x^3+x^2", "3*x^3+2*x^2", "4*x^3", "6*x^3+x^2"])
def test_den_walk_is_the_exact_ledger(monkeypatch, text):
    """From every entry of every infinite row with a den(c) prime, the residue walk
    heads each column with the entry's exact val_p(M), and its columns, gone on by
    the recursion, give the exact val_p(M_n) of each den(c) prime and val_p(N_n) at
    the primes of seen, at each later index of a 9-entry window: all of them with the
    full digit budget, and a prefix of them, ending where a residue runs out of
    digits, with budgets of 1 to 12 digits."""
    g = X2DivisiblePoly.parse(text)
    walk_of, ledgers_of = zsig.tail._den_walk, zsig.tail._den_ledgers
    horizon, short = 9, 0
    for c in grid(ScanConfig(g, 12, 6)):
        if c.denominator == 1 or zsig.oracle._exact_row(g, c, 2, 10**6).zset is None:
            continue
        support, walk, ledgers, drops = _exact_den_columns(g, c, horizon)
        for n0 in range(1, horizon):
            nums = [abs(num) for _, num, _, _ in walk[:n0]]
            args = (g, c, support, walk[n0 - 1], nums, horizon)
            columns, got_drops = walk_of(*args)
            assert tuple(column[0] for column in columns) == ledgers[n0 - 1], (c, n0)
            got = ledgers_of(g.degree, support, columns, horizon - n0)
            assert (got, got_drops) == (ledgers[n0:], tuple(drops[n0:])), (c, n0)
            for budget in (1, 2, 3, 4, 6, 8, 12):
                monkeypatch.setattr(zsig.tail, "_digit_budget", lambda steps: budget)
                columns, got_drops = walk_of(*args)
                monkeypatch.undo()
                got = ledgers_of(g.degree, support, columns, horizon - n0)
                assert got == ledgers[n0:n0 + len(got)], (c, n0, budget)
                assert got_drops[:len(got)] == tuple(drops[n0:n0 + len(got)]), (c, n0, budget)
                short += len(got) < horizon - n0
    assert short


# rows whose tail starts while a den(c) prime is still shallow: 2 | den(c) for 4*x^3 at
# 1/90, 2*x^3+x^2 at -1/6 and 6*x^3+x^2 at 1/10 (3 and 5 deep), and 3 for 3*x^3+2*x^2
_SHALLOW_HANDOFFS = ((X2DivisiblePoly.parse("4*x^3"), F(1, 90), 6, 1000),
                     (X2DivisiblePoly.parse("4*x^3"), F(1, 90), 9, 1000),
                     (X2DivisiblePoly.parse("2*x^3+x^2"), F(-1, 6), 9, 10**4),
                     (X2DivisiblePoly.parse("6*x^3+x^2"), F(1, 10), 9, 10**4),
                     (X2DivisiblePoly.parse("3*x^3+2*x^2"), F(4, 3), 9, 10**4))


def test_rows_resume_exactly_where_the_residues_run_out_of_digits(monkeypatch):
    """Each shallow handoff above walks residues once, and its tail settles the
    window.  On the survey grid's 2*x^3+x^2 and 3*x^3+2*x^2 rows at horizon 9, 41 of
    the 306 tails walk residues; with a 12-digit budget in place of 28 or more, 14 of
    those walks run out of digits, and each of their tails gives up and sends the
    walk on exactly from where it handed off, and every row is still the exact one."""
    walks, tails = [], []
    column, tail = zsig.tail._den_column, zsig.harness._enclosed_tail

    def recorded_walk(g, c, prime, num, den, m, steps):
        dens, vals = column(g, c, prime, num, den, m, steps)
        walks.append(len(dens) <= steps and dens[-1] <= prime[2])  # ran out of digits
        return dens, vals

    def recorded(*args):
        tails.append(tail(*args))
        return tails[-1]

    monkeypatch.setattr(zsig.tail, "_den_column", recorded_walk)
    monkeypatch.setattr(zsig.harness, "_enclosed_tail", recorded)
    for payload in _SHALLOW_HANDOFFS:
        walks.clear()
        tails.clear()
        assert zsig.harness._scan_one(payload) == zsig.oracle._exact_row(*payload)
        assert len(walks) == len(tails) == 1 and tails[0][0], payload
    payloads = [(g, c, 9, 10**4) for g in (X2DivisiblePoly.parse("2*x^3+x^2"),
                                           X2DivisiblePoly.parse("3*x^3+2*x^2"))
                for c in grid(ScanConfig(g, 20, 6))]
    exact = [zsig.oracle._exact_row(*p) for p in payloads]
    monkeypatch.setattr(zsig.tail, "_digit_budget", lambda steps: 12)
    walks.clear()
    tails.clear()
    assert [zsig.harness._scan_one(p) for p in payloads] == exact
    assert (len(tails), len(walks)) == (306, 41)
    assert walks.count(True) == tails.count((False, None)) == 14
