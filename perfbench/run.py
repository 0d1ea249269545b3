"""zsig benchmark: one workload per run, checked against an independent route.

    python3 perfbench/run.py --workload survey --seed 0 --seconds 10 --trace 0

Run from a zsig checkout; the package is imported from src/ (no install).
A run repeats whole passes over the workload's inputs until --seconds
have elapsed (at least one pass), checks every pass's output, and prints
human-readable lines followed by one JSON result line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced passes and
reports the per-layer metrics.  --size smoke shrinks every input for the
benchmark's own tests.  See perfbench/README.md for the workloads, the
predictions and the held-out seed.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE_DIR = HERE / ".cache"
OUT_DIR = HERE / "out"
SETUP_RUNS = 6   # fresh interpreters timed before the passes, and again after

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB"}

# a fresh process pays this before its first answer: the imports, argument
# parsing and lazy set-up such as the witness prime sieve
SETUP_CODE = """
import contextlib, io, time
t0 = time.perf_counter()
import zsig.cli
with contextlib.redirect_stdout(io.StringIO()):
    zsig.cli.main(["zsigmondy", "--poly", "x^3+x^2", "--c", "3", "--horizon", "3"])
print(time.perf_counter() - t0)
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("ZSIG_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(runs: int, warm_up: bool) -> list[float]:
    """Seconds to first answer in `runs` fresh interpreters.

    The warm-up run, if asked for, fills __pycache__ and is not counted.
    """
    times = []
    for i in range(runs + warm_up):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        if i >= warm_up:
            times.append(float(proc.stdout.split()[-1]))
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "zsig").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_metadata(args, parallelism: int) -> dict:
    """Where and on what a result was measured; compare results only when these agree."""
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "parallelism": parallelism,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "bignum": "CPython int",
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "python_flint": importlib.util.find_spec("flint") is not None,
        "commit": commit(), "source_sha256": source_digest(),
    }


def run(args) -> int:
    if not (SRC / "zsig" / "__init__.py").is_file():
        print(f"error: no zsig sources under {SRC}; run from a zsig checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("ZSIG_THREADS", None)   # run_scan would let it override parallelism
    sys.path.insert(0, str(SRC))
    import zsig

    workload = workloads.WORKLOADS[args.workload]
    # never ask for more workers than this process may run on
    workload = replace(workload, parallelism=min(workload.parallelism,
                                                 len(os.sched_getaffinity(0))))
    size = getattr(workload, args.size)
    inputs = workloads.make_inputs(workload, args.seed)
    per_pass = workloads.items_per_pass(workload, size, inputs)
    checker = workloads.Checker(workload, size, inputs, CACHE_DIR)
    meta = run_metadata(args, workload.parallelism)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    # set-up speed on this kind of shared machine swings in phases of a few
    # seconds, so half the samples are taken before the passes and half after
    setup = [] if args.trace else measure_setup(SETUP_RUNS, warm_up=True)

    walls, traced_walls, layer_runs, records = [], [], [], []
    attempted = failed = 0
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) > len(traced_walls)
        tracer = spans.Tracer() if traced else None
        # scans run their parameters in worker processes whose spans are lost,
        # so a parallel scan records only the benchmark's own run_scan spans
        patched = traced and workload.parallelism == 1
        attempted += per_pass
        try:
            with spans.installed(tracer, zsig) if patched else nullcontext():
                seconds, outputs = workloads.run_pass(zsig, workload, size, inputs, tracer)
        except Exception:
            traceback.print_exc()
            failed += per_pass
            records.append(None)
        else:
            (traced_walls if traced else walls).append(seconds)
            records.append(workloads.comparable(workload, inputs, outputs))
            if traced:
                read = (sum(v.witness_prime is not None for _, _, r in outputs for v in r.verdicts)
                        if workload.kind == "orbit" else 0)
                layer_runs.append(tracer.metrics(read))
                if len(layer_runs) == 1:
                    OUT_DIR.mkdir(exist_ok=True)
                    tracer.write_jsonl(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl", meta)
            del outputs
        done = bool(walls) and (bool(traced_walls) or not args.trace)
        if time.perf_counter() - started >= args.seconds and (done or records[-1] is None):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not args.trace:
        setup += measure_setup(SETUP_RUNS, warm_up=False)

    for rec in records:
        if rec is not None:
            failed += checker.failed_items(rec)
    for problem in list(dict.fromkeys(checker.problems))[:20]:
        print(f"check: {problem}", file=sys.stderr)
    outputs_digest = hashlib.sha256(
        json.dumps(records[0], sort_keys=True).encode()).hexdigest() if records[0] else None

    correct = failed == 0 and bool(walls)
    if args.trace:
        metrics = layer_metrics(layer_runs, walls, traced_walls)
        if any(run[name] != layer_runs[0][name]
               for run in layer_runs for name in spans.COUNT_METRICS):
            print("error: deterministic counts differ between traced passes", file=sys.stderr)
            correct = False
        units = spans.PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls) if walls else 0.0,
            "items_per_s": per_pass * len(walls) / sum(walls) if walls else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END

    print(f"passes {len(walls)} untraced, {len(traced_walls)} traced; "
          f"{per_pass} items per pass; output sha256 {outputs_digest}")
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"error_ratio {failed / attempted!r} ratio ({failed} of {attempted} items)")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def layer_metrics(layer_runs: list[dict], walls: list[float], traced_walls: list[float]) -> dict:
    """Counts from the first traced pass, times as medians over traced passes."""
    if not layer_runs:
        return {name: 0.0 for name in spans.PER_LAYER}
    out = {}
    for name in spans.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [run[name] for run in layer_runs]
        out[name] = values[0] if name in spans.COUNT_METRICS else statistics.median(values)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    return out


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
