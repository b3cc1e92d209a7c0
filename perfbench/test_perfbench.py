"""Tests of the benchmark harness itself, at toy input sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from layertrace import AUCTION_KINDS, Tracer  # noqa: E402
from workloads import TOY, make_inputs, outcome_digest, run_op  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> set[str]:
    return {m["name"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_toy_run_emits_every_declared_metric(workload, trace):
    record = run.run_workload(workload, seed=0, seconds=0.4, trace=trace,
                              sizes=TOY, references={})
    assert record["attempted"] >= 1 and record["failed"] == 0, record["failures"]
    assert set(record["metrics"]) == declared("per_layer" if trace else "end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
    for name, (value, unit) in record["metrics"].items():
        assert unit == units[name], name
        assert value == value and value >= 0, name
    line = json.loads(run.result_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_measure_runs_whole_laps_with_set_ups_across_the_run(tmp_path):
    phase, setup_times = run.measure("deep", 0, 1.5, TOY, {}, str(tmp_path))
    cycle = make_inputs("deep", 0, str(tmp_path), run.import_package(), TOY)
    assert len(phase.latencies) % len(cycle) == 0 and phase.failures == []
    assert len(setup_times) >= 2


def run_cycle(modules, cycle, references, phase):
    for spec in cycle:
        run.one_op(modules, spec, references, phase)


@pytest.fixture
def toy(tmp_path):
    modules = run.import_package()
    return modules, lambda workload: make_inputs(workload, 0, str(tmp_path), modules, TOY)


def test_outcome_differing_from_reference_is_a_failure(toy):
    modules, inputs = toy
    cycle = inputs("wide")
    references = {}
    for spec in cycle:
        code, stdout, _ = run_op(modules, spec)
        references[spec.reference_key] = outcome_digest(json.loads(stdout))
    clean = run.Phase()
    run_cycle(modules, cycle, references, clean)
    assert clean.failures == [] and clean.reference_checked == len(clean.latencies)

    real = modules["cli"].run_nrmf
    modules["cli"].run_nrmf = lambda *a: dataclasses.replace(real(*a), winner=None)
    corrupted = run.Phase()
    try:
        run_cycle(modules, cycle, references, corrupted)
    finally:
        modules["cli"].run_nrmf = real
    assert len(corrupted.failures) == len(corrupted.latencies) > 0
    assert all("reference" in f for f in corrupted.failures)


def test_negative_surplus_is_a_failure_without_references(toy):
    modules, inputs = toy
    cycle = inputs("deep")
    real = modules["cli"].run_nrmf
    modules["cli"].run_nrmf = lambda *a: dataclasses.replace(real(*a), surplus=-1)
    phase = run.Phase()
    try:
        run_cycle(modules, cycle, {}, phase)
    finally:
        modules["cli"].run_nrmf = real
    assert len(phase.failures) == len(phase.latencies) > 0
    assert all("negative surplus" in f for f in phase.failures)


def test_failing_audit_verdict_is_a_failure(toy):
    modules, inputs = toy
    cycle = inputs("audit")
    verify = modules["verify"]
    real = verify.run_nrmf

    def overcharging(*args):
        outcome = real(*args)
        charged = {i: p + 1000 for i, p in outcome.final_payment.items()}
        return dataclasses.replace(outcome, final_payment=charged)

    verify.run_nrmf = overcharging
    phase = run.Phase()
    try:
        run_cycle(modules, cycle, {}, phase)
    finally:
        verify.run_nrmf = real
    assert len(phase.failures) == len(phase.latencies) > 0
    record = run._record("audit", 0, [phase], {}, {})
    assert json.loads(run.result_line(record))["correct"] is False


def test_traced_evals_per_op_is_one_plus_branch_count(toy):
    """The trace counts the counterfactual loop: one auction for the
    outcome plus one per sponsor branch silenced."""
    modules, inputs = toy
    cycle = inputs("wide")
    tracer = Tracer()
    tracer.install(modules)
    branches = {}
    try:
        for k, spec in enumerate(cycle):
            tracer.op = k
            code, stdout, _ = run_op(modules, spec)
            assert code == 0
            branches[k] = len(json.loads(stdout)["branch_revenues"])
        metrics = tracer.layer_metrics(len(cycle))
    finally:
        tracer.disable()
    assert tracer.dropped == 0
    evals = Counter(op for _, name, _, _, _, op in tracer.spans if name in AUCTION_KINDS)
    assert evals == {k: 1 + b for k, b in branches.items()}
    expected = sum(1 + b for b in branches.values()) / len(cycle)
    assert metrics["auctions.evals_per_op"][0] == pytest.approx(expected)
    assert metrics["redistribution.run_nrmf.calls"][0] == 1
    # disabling restores every binding
    assert modules["redistribution"].run_auction is modules["auctions"].run_auction
    assert not hasattr(modules["cli"].run_nrmf, "__wrapped__")
    assert not hasattr(modules["profiles"].ReportProfile.replace, "__wrapped__")


def test_self_time_is_duration_minus_child_coverage(toy):
    modules, inputs = toy
    cycle = inputs("audit")[:20]
    tracer = Tracer()
    tracer.install(modules)
    try:
        for k, spec in enumerate(cycle):
            tracer.op = k
            run_op(modules, spec)
    finally:
        tracer.disable()
    assert tracer.dropped == 0
    children = defaultdict(float)
    for span_id, name, start, end, parent, op in tracer.spans:
        children[parent] += end - start
    self_time = defaultdict(float)
    for span_id, name, start, end, parent, op in tracer.spans:
        self_time[name] += (end - start) - children[span_id]
    for name, value in self_time.items():
        assert value == pytest.approx(tracer.self_time[name], abs=1e-9)
    assert self_time["verify.check_ic"] > 0


def test_fails_without_result_where_the_package_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "no package source" in proc.stderr
