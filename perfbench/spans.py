"""Spans around the calls into each layer, recorded from the benchmark side.

Tracing replaces the public names that harness, orbit and zsigmondy import
(and X2DivisiblePoly.eval_int_pair) with timing wrappers for the duration
of one traced pass, then puts the originals back.  Nothing under src/
changes.  Each span keeps its name, start, end, parent span and item id;
an item is one scan parameter or one deep orbit, and starts at its
decide_membership call.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from math import ceil
from time import perf_counter

# deterministic per-pass counts; they must repeat exactly for a given seed
COUNT_METRICS = (
    "arith.is_probable_prime.calls", "zsigmondy.zsigmondy_set.calls",
    "zsigmondy.witnesses_named", "orbit.iterate.calls", "arith.val_p.calls",
    "arith.ln_abs_ratio.calls", "poly.eval_int_pair.calls", "orbit.entries",
    "orbit.max_bits", "arith.strip_common_primes.calls", "arith.strip_useful_ratio",
    "orbit.decide_membership.calls", "orbit.membership_steps",
    "arith.distinct_prime_factors.calls",
)

# name -> unit for every per-layer metric, in print order
PER_LAYER = {
    "arith.is_probable_prime.calls": "count", "arith.is_probable_prime.busy_s": "s",
    "zsigmondy.zsigmondy_set.calls": "count", "zsigmondy.zsigmondy_set.busy_s": "s",
    "zsigmondy.zsigmondy_set.self_s": "s", "zsigmondy.witnesses_named": "count",
    "zsigmondy.witness_read_ratio": "ratio",
    "orbit.iterate.calls": "count", "orbit.iterate.busy_s": "s", "orbit.iterate.self_s": "s",
    "arith.val_p.calls": "count", "arith.val_p.busy_s": "s",
    "arith.ln_abs_ratio.calls": "count", "arith.ln_abs_ratio.busy_s": "s",
    "poly.eval_int_pair.calls": "count", "poly.eval_int_pair.busy_s": "s",
    "orbit.entries": "count", "orbit.max_bits": "bits",
    "arith.strip_common_primes.calls": "count", "arith.strip_common_primes.busy_s": "s",
    "arith.strip_useful_ratio": "ratio",
    "orbit.decide_membership.calls": "count", "orbit.decide_membership.busy_s": "s",
    "orbit.membership_steps": "count",
    "arith.distinct_prime_factors.calls": "count", "arith.distinct_prime_factors.busy_s": "s",
    "harness.run_scan.busy_s": "s", "harness.render.busy_s": "s",
    "harness.param_s_p50": "s", "harness.param_s_p95": "s",
    "trace.overhead_s": "s",
}

# span names whose calls / busy / self the metrics report
_CALLS = ("arith.is_probable_prime", "zsigmondy.zsigmondy_set", "orbit.iterate",
          "arith.val_p", "arith.ln_abs_ratio", "poly.eval_int_pair",
          "arith.strip_common_primes", "orbit.decide_membership",
          "arith.distinct_prime_factors")
_SELF = ("zsigmondy.zsigmondy_set", "orbit.iterate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 at top level
    item: int


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.item = 0
        self.counts = {"orbit.entries": 0, "orbit.max_bits": 0, "orbit.membership_steps": 0,
                       "zsigmondy.witnesses_named": 0, "strip.useful": 0}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, new_item: bool = False):
        if new_item:
            self.item += 1
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self.item)

    def wrap(self, name: str, fn, observe=None, new_item: bool = False):
        def traced(*args, **kwargs):
            with self.span(name, new_item):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counts, args, result)
            return result
        return traced

    def metrics(self, witnesses_read: int) -> dict:
        """Per-layer metrics of everything recorded so far (one pass)."""
        calls = {name: 0 for name in _CALLS}
        busy: dict[str, float] = {}
        child_time: dict[int, float] = {}
        for span in self.spans:
            dur = span.end - span.start
            busy[span.name] = busy.get(span.name, 0.0) + dur
            if span.name in calls:
                calls[span.name] += 1
            if span.parent >= 0:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + dur
        self_time = {name: 0.0 for name in _SELF}
        for idx, span in enumerate(self.spans):
            if span.name in self_time:
                self_time[span.name] += span.end - span.start - child_time.get(idx, 0.0)
        out = {}
        for name in _CALLS:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy.get(name, 0.0)
        for name in _SELF:
            out[f"{name}.self_s"] = self_time[name]
        c = self.counts
        named = c["zsigmondy.witnesses_named"]
        strips = calls["arith.strip_common_primes"]
        out.update({
            "orbit.entries": c["orbit.entries"],
            "orbit.max_bits": c["orbit.max_bits"],
            "orbit.membership_steps": c["orbit.membership_steps"],
            "zsigmondy.witnesses_named": named,
            # a ratio whose base is 0 reads 0; its base is printed beside it
            "zsigmondy.witness_read_ratio": witnesses_read / named if named else 0.0,
            "arith.strip_useful_ratio": c["strip.useful"] / strips if strips else 0.0,
            "harness.run_scan.busy_s": busy.get("harness.run_scan", 0.0),
            "harness.render.busy_s": busy.get("harness.render", 0.0),
        })
        item_times = self._item_seconds()
        out["harness.param_s_p50"] = _rank(item_times, 0.50)
        out["harness.param_s_p95"] = _rank(item_times, 0.95)
        return out

    def _item_seconds(self) -> list[float]:
        bounds: dict[int, list[float]] = {}
        for span in self.spans:
            if span.item == 0:
                continue
            b = bounds.setdefault(span.item, [span.start, span.end])
            b[0], b[1] = min(b[0], span.start), max(b[1], span.end)
        return [end - start for start, end in bounds.values()]

    def write_jsonl(self, path, meta: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent,
                                     "item": s.item}) + "\n")


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _observe_membership(counts, args, result):
    counts["orbit.membership_steps"] += result.steps_used


def _observe_iterate(counts, args, result):
    counts["orbit.entries"] += len(result.entries)
    bits = max((max(e.num.bit_length(), e.den.bit_length()) for e in result.entries), default=0)
    counts["orbit.max_bits"] = max(counts["orbit.max_bits"], bits)


def _observe_zsigmondy(counts, args, result):
    counts["zsigmondy.witnesses_named"] += sum(v.witness_prime is not None for v in result.verdicts)


def _observe_strip(counts, args, result):
    counts["strip.useful"] += result != args[0]


@contextmanager
def installed(tracer: Tracer, zsig):
    """Patch the layer entry points with tracer wrappers; restore them on exit."""
    orbit, harness, zsigmondy, poly = zsig.orbit, zsig.harness, zsig.zsigmondy, zsig.poly
    decide = tracer.wrap("orbit.decide_membership", orbit.decide_membership,
                         _observe_membership, new_item=True)
    iterate = tracer.wrap("orbit.iterate", orbit.iterate, _observe_iterate)
    zset = tracer.wrap("zsigmondy.zsigmondy_set", zsigmondy.zsigmondy_set, _observe_zsigmondy)
    patches = [
        (orbit, "decide_membership", decide), (harness, "decide_membership", decide),
        (orbit, "iterate", iterate), (harness, "iterate", iterate),
        (zsigmondy, "zsigmondy_set", zset), (harness, "zsigmondy_set", zset),
        (orbit, "val_p", tracer.wrap("arith.val_p", orbit.val_p)),
        (orbit, "ln_abs_ratio", tracer.wrap("arith.ln_abs_ratio", orbit.ln_abs_ratio)),
        (poly.X2DivisiblePoly, "eval_int_pair",
         tracer.wrap("poly.eval_int_pair", poly.X2DivisiblePoly.eval_int_pair)),
        (zsigmondy, "strip_common_primes",
         tracer.wrap("arith.strip_common_primes", zsigmondy.strip_common_primes, _observe_strip)),
        (zsigmondy, "is_probable_prime",
         tracer.wrap("arith.is_probable_prime", zsigmondy.is_probable_prime)),
        (zsigmondy, "distinct_prime_factors",
         tracer.wrap("arith.distinct_prime_factors", zsigmondy.distinct_prime_factors)),
    ]
    saved = [(target, attr, getattr(target, attr)) for target, attr, _ in patches]
    try:
        for target, attr, wrapper in patches:
            setattr(target, attr, wrapper)
        yield tracer
    finally:
        for target, attr, original in saved:
            setattr(target, attr, original)
