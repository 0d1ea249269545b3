"""Tests of the benchmark itself, at smoke size.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def test_spec_names_every_workload_but_survey_par_and_every_metric():
    assert sorted(NAMES + ["survey_par"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "items_per_s",
                                                      "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES + ["survey_par"])
def test_every_metric_printed_with_unit_and_no_errors(workload, trace):
    result, stdout = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for line in (f"{m['name']} " for m in wanted):
        assert any(out.startswith(line) for out in stdout.splitlines())
    assert "\nerror_ratio 0.0 ratio " in stdout
    meta = json.loads(stdout.splitlines()[0].removeprefix("meta "))
    for key in ("python", "nproc", "cpu_model", "bignum", "commit", "source_sha256"):
        assert key in meta
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_counts_repeat_between_traced_runs_of_one_seed(workload):
    first, _ = smoke(workload, 1, seed=5)
    second, _ = smoke(workload, 1, seed=5)
    for name in spans.COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_survey_and_survey_par_print_the_same_output():
    digests = set()
    for workload in ("survey", "survey_par"):
        _, stdout = smoke(workload, 0, seed=7)
        digests.add(next(line.rsplit(" ", 1)[1] for line in stdout.splitlines()
                         if line.startswith("passes ")))
    assert len(digests) == 1


def test_seed_zero_is_the_baseline_and_seeds_repeat():
    survey = workloads.WORKLOADS["survey"]
    inputs = workloads.make_inputs(survey, 0)
    assert [i.coeffs for i in inputs] == [(0, 0, 1, 1), (0, 0, 1, 2)]
    assert workloads.items_per_pass(survey, survey.full, inputs) == 310
    deep = workloads.make_inputs(workloads.WORKLOADS["deep_rational"], 0)
    assert [i.c for i in deep] == [Fraction(-5, 3), Fraction(1, 2)]
    for name, w in workloads.WORKLOADS.items():
        assert workloads.make_inputs(w, 11) == workloads.make_inputs(w, 11), name


def test_conjugate_orbit_is_the_negated_orbit():
    coeffs, c = (0, 0, 3, -2, 1), Fraction(-2, 5)
    values, _ = oracle.orbit_values(coeffs, c, 6, 10**6)
    conj, _ = oracle.orbit_values(oracle.conjugate(coeffs), -c, 6, 10**6)
    assert conj == [-v for v in values]


def test_check_counts_a_wrong_scan_row_and_a_wrong_orbit(tmp_path):
    survey = workloads.WORKLOADS["survey"]
    inputs = workloads.make_inputs(survey, 0)
    checker = workloads.Checker(survey, survey.smoke, inputs, tmp_path)
    texts = ["\n".join(lines) + "\n" for lines in checker.expected()]
    assert checker.failed_items(texts) == 0
    texts[1] = texts[1].replace(",escape,", ",finite,", 1)
    assert checker.failed_items(texts) == 1

    deep = workloads.WORKLOADS["deep_integer"]
    inputs = workloads.make_inputs(deep, 4)
    checker = workloads.Checker(deep, deep.smoke, inputs, tmp_path)
    records = [dict(rec, witness_problems=[]) for rec in checker.expected()]
    assert checker.failed_items(records) == 0
    records[0]["zset"] = [1]
    assert checker.failed_items(records) == 1


def test_program_matches_reference_on_a_conjugated_orbit(tmp_path):
    import zsig
    deep = workloads.WORKLOADS["deep_rational"]
    inputs = [i for s in range(1, 20) for i in workloads.make_inputs(deep, s) if i.sign < 0]
    item = inputs[0]
    g = zsig.X2DivisiblePoly(item.coeffs)
    orbit = zsig.iterate(g, item.c, 7)
    out = (zsig.decide_membership(g, item.c), orbit, zsig.zsigmondy_set(orbit))
    record = workloads.program_record(item, out)
    assert record == oracle.cached_orbit_record(tmp_path, item.base_coeffs, item.base_c, 7)
    assert workloads.witness_problems(out) == []


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".cache", "out", "__pycache__"))
    proc = bench(tmp_path, "--workload", NAMES[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
