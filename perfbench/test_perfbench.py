"""The benchmark's own tests: output schema and the deterministic fields.

Run from the repository root with `python3 -m pytest -q perfbench`. No test
asserts a timing.
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import tracer  # noqa: E402
from orepa import squeeze  # noqa: E402
from orepa.blocks import build_preset  # noqa: E402
from orepa.tensor import KernelTensor  # noqa: E402
from workloads import WORKLOADS, Case, Workload  # noqa: E402

TINY = Workload("tiny", "two small blocks", (
    Case("orepa3x3", 4, 3, (6, 6), 2),
    Case("deepstem", 4, 3, (6, 6), 2, {"stride": [2, 2]}, eta=3e-4),
))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert all(m["better"] == "lower" and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        harness.per_layer_names()


def test_expected_calls_follow_the_topology():
    block = build_preset("orepa3x3", 4, 4, k=3)
    online = harness.expected_calls(block, "online")
    # 4 in the loss squeeze and 4 in the backward prefix products
    assert online["squeeze.merge_sequential"] == 8
    assert online["dynamics._merge_backward"] == 4
    assert harness.expected_calls(block, "offline")["tensor.conv2d_direct"] == 1 + 10
    single = harness.expected_calls(build_preset("deepstem", 3, 4, k=3), "verify")
    assert single["squeeze.merge_parallel"] == 0


def _kernel(rng, shape, density):
    data = rng.standard_normal(shape) * (rng.random(shape) < density)
    return KernelTensor(data)


def test_merge_counters_match_a_loop_count():
    rng = np.random.default_rng(0)
    w1 = _kernel(rng, (3, 2, 2, 3), 0.5)
    w2 = _kernel(rng, (4, 3, 2, 2), 0.5)
    gout = rng.standard_normal((4, 2, 3, 4)) * (rng.random((4, 2, 3, 4)) < 0.5)
    mults, useful = tracer.COUNTERS["squeeze.merge_sequential"]({"w1": w1, "w2": w2}, None)
    pairs = [(w2.data[q, c, a, b], w1.data[c, p, i, j])
             for q, c, a, b, p, i, j in itertools.product(
                 range(4), range(3), range(2), range(2), range(2), range(2), range(3))]
    assert mults == len(pairs)
    assert useful == sum(x != 0 and y != 0 for x, y in pairs)

    mults, useful = tracer.COUNTERS["dynamics._merge_backward"](
        {"w1": w1, "w2": w2, "gout": gout}, None)
    want = 0
    for q, c, a, b, p, m, n in itertools.product(
            range(4), range(3), range(2), range(2), range(2), range(2), range(3)):
        g = gout[q, p, a + m, b + n]
        want += int(g != 0 and w1.data[c, p, m, n] != 0)
        want += int(g != 0 and w2.data[q, c, a, b] != 0)
    assert mults == 2 * len(pairs)
    assert useful == want


def test_a_nan_fails_a_check():
    checks = harness.Checks()
    checks.check(harness.max_abs_diff([0.0, math.nan], [0.0, 0.0]) <= 1e-9, "nan")
    checks.check(harness.max_abs_diff([1.0], [1.0]) <= 1e-9, "equal")
    assert (checks.attempted, checks.failed) == (2, 1)


def test_untraced_run_schema_peaks_and_checks(tmp_path):
    peaks = []
    for seed in (1, 2):
        run, metrics = harness.run_untraced(TINY, seed, 0.2, str(tmp_path))
        assert list(metrics) == [name for name, _ in harness.END_TO_END]
        assert all(m["unit"] == dict(harness.END_TO_END)[k] and m["value"] > 0
                   for k, m in metrics.items())
        assert run.checks.failed == 0 and run.checks.attempted > 0
        peaks.append({k: m["value"] for k, m in metrics.items() if k.endswith("_peak_mib")})
    # peak allocation depends on shapes, not on the seed; only a few KiB of
    # interpreter objects vary between runs
    assert peaks[0] == pytest.approx(peaks[1], abs=0.01)


def test_traced_run_counts_and_model(tmp_path):
    run, metrics, _, _ = harness.run_traced(TINY, 3, 0.2, str(tmp_path))
    assert run.checks.failed == 0
    assert [n for n, _, _ in harness.per_layer_names()] == list(metrics)
    v = {k: m["value"] for k, m in metrics.items()}
    blocks = [c.verify_block for c in run.cases]
    for route in harness.ROUTES:
        for func, want in harness.expected_calls(blocks[0], route).items():
            name = f"{route}.{func}.calls"
            if name in v:
                both = (want + harness.expected_calls(blocks[1], route)[func]) / 2
                assert v[name] == both, name
    # orepa3x3 at 4ch: one 6x6 output conv on the squeezed 3x3 kernel
    c = run.cases[0]
    conv = 2 * 4 * 6 * 6 * 4 * 3 * 3
    c2 = run.cases[1]
    conv2 = 2 * 4 * 3 * 3 * 4 * 7 * 7
    assert v["online.tensor.conv2d_direct.gmults"] == pytest.approx((conv + conv2) / 2 / 1e9)
    assert 0 < v["online.squeeze.merge_sequential.useful_frac"] <= 1
    reports = [squeeze.cost_report(x.verify_block, x.case.hw, x.case.batch) for x in (c, c2)]
    assert v["model.online.gmults"] == pytest.approx(
        sum(r["online"]["mults"] for r in reports) / 2 / 1e9)
    assert v["model.offline.buffer_mib"] == pytest.approx(
        sum(r["offline"]["buffer_elems"] for r in reports) / 2 * 8 / 2 ** 20)
    # the wrappers are gone again
    assert squeeze.merge_sequential.__module__ == "orepa.squeeze"
    assert not hasattr(squeeze.merge_sequential, "__wrapped__")


def _result_line(args, cwd):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc, proc.stdout.strip().splitlines()


def test_command_prints_one_result_line():
    proc, lines = _result_line(["--workload", "train_wide8", "--seed", "4",
                                "--seconds", "1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in harness.END_TO_END]


def test_command_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc, lines = _result_line(["--workload", "train_wide8", "--seed", "1",
                                "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
