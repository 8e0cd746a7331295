"""Tests of the benchmark harness.

    python3 -m pytest perfbench

The last two tests run the harness end to end for one job list, untraced
and traced.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

REQUIRED_END_TO_END = {"run_s": "s", "job_ms_p50": "ms", "job_ms_p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "1"}
REQUIRED_PER_LAYER = {
    "sumsq.rk_table.calls": "count", "sumsq.rk_table.self_s": "s",
    "sumsq.rk_table.cells": "count", "sumsq.rk_table.distinct_share": "1",
    "coeffs.calls": "count", "coeffs.self_s": "s",
    "schwartz.eval.calls": "count", "schwartz.eval.self_s": "s",
    "schwartz.algebra.calls": "count", "schwartz.algebra.self_s": "s",
    "util.sum.adds": "count", "atoms.atoms_built": "count",
    "atoms.make_comb.self_s": "s", "atoms.pair.self_s": "s",
    "formulas.sum.self_s": "s", "formulas.verify.self_s": "s",
    "formulas.verify_shifted.self_s": "s", "formulas.lattice_points": "count",
    "radial.closed.self_s": "s", "radial.sphere.self_s": "s",
    "radial.quadrature.self_s": "s", "radial.quadrature.f_evals": "count",
    "cli.main.self_s": "s", "cli.output_bytes": "B",
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_gives_same_argv(workload):
    for index in range(3):
        first = workloads.job_list(workload, 7, index)
        assert first == workloads.job_list(workload, 7, index)
        assert first != workloads.job_list(workload, 8, index)
        assert first != workloads.job_list(workload, 7, index + 1)
        assert {family for family, _ in first} == set(workloads.WORKLOADS[workload])
        assert all(isinstance(arg, str) for _, argv in first for arg in argv)


def test_benchmark_json_matches_workloads():
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == workloads.WHY
    assert set(workloads.WHY) == set(workloads.WORKLOADS)


def test_rk_reference_counts_lattice_points():
    # r_3(n) by direct enumeration of the box, independent of both routes
    n_max = 30
    side = range(-6, 7)
    direct = [0] * (n_max + 1)
    for x in side:
        for y in side:
            for z in side:
                if x * x + y * y + z * z <= n_max:
                    direct[x * x + y * y + z * z] += 1
    assert checks.rk_reference(3, n_max) == direct
    assert checks.rk_reference(1, 10) == [1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0]


def test_radial_reference_gaussian_fixed_point():
    # exp(-pi t^2) is its own transform in every dimension; t^2 exp(-pi t^2)
    # maps to (k/(2 pi) - t^2) exp(-pi t^2)
    for k in (3, 7, 11):
        for t in (0.0, 0.4, 1.7):
            got = checks.radial_reference("(1.00)*exp(-pi*1*t^2)", k, t)
            assert math.isclose(got, math.exp(-math.pi * t * t), rel_tol=1e-14)
            got = checks.radial_reference("(1.00*t^2)*exp(-pi*1*t^2)", k, t)
            want = (k / (2 * math.pi) - t * t) * math.exp(-math.pi * t * t)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)


def _run(trace: int) -> tuple[list[str], dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lattice_radial",
         "--seed", "3", "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(
        (ROOT / ".perfbench" / f"lattice_radial-seed3-trace{trace}.json").read_text())
    return lines, report, json.loads(lines[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    lines, report, result = _run(0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the sphere-ft --k 3 job with default methods exits 1 at this commit
    assert report["metrics"]["failed_frac"]["value"] == result["failed"] / result["attempted"]
    for name, unit in REQUIRED_END_TO_END.items():
        assert report["metrics"][name]["unit"] == unit
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    env = report["env"]
    assert env["python"] and env["nproc"] and env["commit"] and len(env["loadavg"]) == 3


def test_traced_run_reports_every_per_layer_metric():
    lines, report, result = _run(1)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == \
        {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name, unit in REQUIRED_PER_LAYER.items():
        assert metrics[name]["unit"] == unit
    assert metrics["trace.stdout_mismatches"]["value"] == 0
    # self times plus the unattributed remainder add up to the job time
    assert math.isclose(sum(report["self_s"].values()) / report["lists"],
                        metrics["trace.job_s"]["value"], rel_tol=1e-9)
