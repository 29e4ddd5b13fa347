"""Tests of the benchmark itself: tiny runs, tamper detection, contract.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
from repro.amq import delta as amq_delta
from repro.webmodel import cohort_reference
from workloads import WORKLOADS

ROOT = run.ROOT
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _check_metrics(result: dict, kind: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    result, report = run.run(workload, seed=3, seconds=0.1, trace=False, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    _check_metrics(result, "end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert report["provenance"]["jobs"] == 1
    assert report["provenance"]["seed"] == 3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(workload):
    result, report = run.run(workload, seed=4, seconds=0.1, trace=True, tiny=True)
    assert result["correct"] is True
    _check_metrics(result, "per_layer")
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert values["traced_s"] > 0
    # The ledger closes: self times plus the unattributed rest are the
    # traced time, so the rest is a non-negative share of it.
    assert 0 <= values["unattributed_s"] < values["traced_s"]
    # Untraced figures ride along in the report.
    assert set(report["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_layers_are_restored_after_a_traced_run():
    from repro.amq.base import AMQFilter
    from repro.tls import session

    before = (session.run_handshake, AMQFilter.__dict__["contains_batch"])
    run.run("filter-sync", seed=5, seconds=0.05, trace=True, tiny=True)
    assert (session.run_handshake, AMQFilter.__dict__["contains_batch"]) == before


def test_timed_pass_reports_reference_time():
    import hostspeed

    assert hostspeed.scale([hostspeed.REFERENCE_KERNEL_S] * 3) == 1.0
    slow = hostspeed.scale([2 * hostspeed.REFERENCE_KERNEL_S])
    assert slow == pytest.approx(0.5**hostspeed.SENSITIVITY)
    workload, cpu_times, scaled = run.set_up(WORKLOADS["handshake"], 5, True, repeats=2)
    assert len(cpu_times) == len(scaled) == 2
    m = run.timed_pass(workload, 0.05)
    assert len(m.units) >= workload.min_units
    assert len(m.probes) >= run.MIN_PROBES
    e2e = run.end_to_end(m, 1.0)
    assert e2e["handshakes_per_s"] == pytest.approx(m.handshakes / (m.busy_s * m.scale))


def test_same_seed_gives_same_deterministic_figures():
    first, _ = run.run("churn-stale", seed=6, seconds=0.05, trace=False, tiny=True)
    second, _ = run.run("churn-stale", seed=6, seconds=0.05, trace=False, tiny=True)
    share = "suppressed_ica_share"
    assert first["metrics"][share] == second["metrics"][share]


def test_flipped_filter_sync_image_is_counted_as_failed(monkeypatch):
    original = amq_delta.DeltaApplier.image

    def flipped(self):
        image = bytearray(original(self))
        image[-1] ^= 0x01
        return bytes(image)

    monkeypatch.setattr(amq_delta.DeltaApplier, "image", flipped)
    result, _ = run.run("filter-sync", seed=3, seconds=0.05, trace=False, tiny=True)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["failed"] <= result["attempted"]


def test_cohort_reference_mismatch_is_counted_as_failed(monkeypatch):
    original = cohort_reference.run_cohort_reference

    def tampered(*args, **kwargs):
        result = original(*args, **kwargs)
        result.columns.handshakes[0] += 1
        return result

    monkeypatch.setattr(cohort_reference, "run_cohort_reference", tampered)
    result, report = run.run("cohort", seed=3, seconds=0.05, trace=False, tiny=True)
    assert report["check_mismatches"] == 1
    assert result["failed"] == 1
    assert result["correct"] is False


def test_cli_prints_the_result_object_last():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "2",
         "--seconds", "0.05", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    report = json.loads(lines[-2])
    assert {"commit", "python", "numpy", "cpu_count", "jobs", "seed"} <= set(
        report["provenance"]
    )


def test_cli_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cohort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    names = []
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
