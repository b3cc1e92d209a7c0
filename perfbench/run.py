"""netredist benchmark: one workload, one client, closed loop.

    python3 perfbench/run.py --workload wide --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Prints a table of every metric with its unit, then, as the last line, one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``).  ``--workload all`` runs each workload in its own process
and prints all of their tables.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import Tracer  # noqa: E402
from workloads import FULL, Sizes, check, make_inputs, run_op, warm_up_spec  # noqa: E402

WORKLOADS = ("wide", "deep", "audit")
MODULES = ("profiles", "critical_tree", "prst", "auctions", "redistribution",
           "verify", "render", "generators", "cli")
SETUP_EVERY_S = 1.0
ALLOC_OPS = 3
TAIL_SAMPLES_ABOVE = 10
REFERENCES = HERE / "references.json"
WORK_DIR = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package source, no references)."""


@dataclass
class Phase:
    """Per-op latencies and failures of one closed-loop phase."""

    latencies: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    reference_checked: int = 0


def import_package() -> dict:
    """Import netredist afresh from this checkout's ``src/``."""
    src = ROOT / "src"
    if not (src / "netredist" / "__init__.py").is_file():
        raise BenchError(f"no package source at {src / 'netredist'}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for key in list(sys.modules):
        if key == "netredist" or key.startswith("netredist."):
            del sys.modules[key]
    importlib.invalidate_caches()
    modules = {name: importlib.import_module(f"netredist.{name}") for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise BenchError(f"netredist imported from {origin}, not from {src}")
    return modules


def load_references() -> dict:
    if not REFERENCES.is_file():
        raise BenchError(f"missing {REFERENCES}")
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def one_op(modules: dict, spec, references: dict, phase: Phase) -> None:
    """Run, time and check one op; record it in ``phase``."""
    start = perf_counter()
    try:
        result = run_op(modules, spec)
        reason = None
    except (Exception, SystemExit) as exc:
        reason = f"raised {exc!r}"
    phase.latencies.append(perf_counter() - start)
    if reason is None:
        reason, compared = check(spec, result, references)
        phase.reference_checked += compared
    if reason is not None:
        phase.failures.append(reason)


def measure(workload: str, seed: int, seconds: float, sizes: Sizes, references: dict,
            workdir: str) -> tuple[Phase, list[float]]:
    """Closed loop in whole laps of the op cycle until ``seconds`` have
    passed; the lap running at the deadline is finished, so every input
    runs equally often.  A fresh, timed set-up runs between two ops every
    SETUP_EVERY_S seconds, and the ops after it use its package and inputs
    (the same cycle), so set-up times are sampled across the run like op
    times."""
    phase, setup_times = Phase(), []
    start = perf_counter()
    k = 0
    while k == 0 or k % len(cycle) or perf_counter() - start < seconds:
        if perf_counter() - start >= len(setup_times) * SETUP_EVERY_S:
            elapsed, modules, cycle = set_up(workload, seed, workdir, sizes, references)
            setup_times.append(elapsed)
            gc.collect()
        one_op(modules, cycle[k % len(cycle)], references, phase)
        k += 1
    return phase, setup_times


def measure_interleaved(modules: dict, cycle: list, seconds: float, references: dict,
                        tracer: Tracer) -> tuple[Phase, Phase, float]:
    """Closed loop in whole laps as in ``measure`` (at least two), tracing
    every other op: in lap c the op at position p is traced when p + c is
    odd.  Every input runs both ways, side by side, so the tracing overhead
    (traced over untraced time of the same inputs) is not swamped by drift
    in machine speed between two separate phases."""
    gc.collect()
    plain, traced = Phase(), Phase()
    times = [([], []) for _ in cycle]
    deadline = perf_counter() + seconds
    c = 0
    while c < 2 or perf_counter() < deadline:
        for position, spec in enumerate(cycle):
            on = (position + c) % 2 == 1
            phase = traced if on else plain
            if on:
                tracer.op = c * len(cycle) + position
                tracer.enable()
            one_op(modules, spec, references, phase)
            if on:
                tracer.disable()
            times[position][on].append(phase.latencies[-1])
        c += 1
    overhead = (sum(statistics.mean(t) for _, t in times)
                / sum(statistics.mean(p) for p, _ in times))
    return plain, traced, overhead


def set_up(workload: str, seed: int, workdir: str, sizes: Sizes,
           references: dict) -> tuple[float, dict, list]:
    """Import, generate and write inputs, run one warm-up op; time it all."""
    inputs = os.path.join(workdir, "inputs")
    shutil.rmtree(inputs, ignore_errors=True)
    os.mkdir(inputs)
    gc.collect()
    start = perf_counter()
    modules = import_package()
    cycle = make_inputs(workload, seed, inputs, modules, sizes)
    one_op(modules, warm_up_spec(cycle), references, Phase())
    return perf_counter() - start, modules, cycle


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sample count) at the highest percentile that
    still has TAIL_SAMPLES_ABOVE samples above it (the maximum if fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = n - 1 - TAIL_SAMPLES_ABOVE if n > TAIL_SAMPLES_ABOVE else n - 1
    return ordered[index], 100 * (index + 1) / n, n


def end_to_end(phase: Phase, setup_times: list[float]) -> dict:
    lat = phase.latencies
    tail_value, tail_pct, count = tail(lat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"tail_percentile": tail_pct, "samples": count, "setups": len(setup_times)}


def alloc_specs(cycle: list) -> list:
    """Ops on the ALLOC_OPS largest distinct inputs of the cycle."""
    distinct = {getattr(spec, "path", id(spec)): spec for spec in cycle}
    return sorted(distinct.values(), key=lambda spec: spec.agents, reverse=True)[:ALLOC_OPS]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL, references: dict | None = None) -> dict:
    """Set up, measure and check one workload; returns the result record."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    references = load_references() if references is None else references
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_DIR)
    try:
        if not trace:
            phase, setup_times = measure(workload, seed, seconds, sizes, references, workdir)
            metrics, notes = end_to_end(phase, setup_times)
            return _record(workload, seed, [phase], metrics, notes)
        _, modules, cycle = set_up(workload, seed, workdir, sizes, references)
        tracer = Tracer()
        tracer.install(modules)
        tracer.disable()
        try:
            plain, traced, overhead = measure_interleaved(
                modules, cycle, seconds, references, tracer)
            metrics = tracer.layer_metrics(len(traced.latencies))
            table = tracer.table(len(traced.latencies))
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
            tracer.op = -2
            tracer.enable()
            alloc = Phase()
            tracemalloc.start()
            try:
                for spec in alloc_specs(cycle):
                    one_op(modules, spec, references, alloc)
            finally:
                tracemalloc.stop()
            metrics["critical_tree.peak_alloc_mb"] = (tracer.alloc_peak_bytes / 2**20, "MB")
        finally:
            tracer.disable()
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        notes = {"spans": str(spans_path.relative_to(ROOT)), "traced_ops": len(traced.latencies),
                 "table": table}
        return _record(workload, seed, [plain, traced, alloc], metrics, notes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass


def _record(workload, seed, phases, metrics, notes) -> dict:
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    return {
        "workload": workload,
        "seed": seed,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "error_rate": len(failures) / attempted,
        "reference_checked": sum(p.reference_checked for p in phases),
        "metrics": metrics,
        "notes": notes,
    }


def print_table(record: dict) -> None:
    w, notes = record["workload"], record["notes"]
    print(f"# workload {w}, seed {record['seed']}: {record['attempted']} ops attempted, "
          f"{record['failed']} failed, {record['reference_checked']} compared "
          f"with recorded references")
    for reason in record["failures"][:5]:
        print(f"#   failure: {reason}")
    for name, (value, unit) in record["metrics"].items():
        extra = ""
        if name == "setup_s":
            extra = f"  (median of {notes['setups']} set-ups)"
        if name == "op_tail_ms":
            extra = (f"  (p{notes['tail_percentile']:.1f} of {notes['samples']} ops, "
                     f"{TAIL_SAMPLES_ABOVE} above)")
        print(f"{w:6s} {name:42s} {value:14.6f} {unit}{extra}")
    print(f"{w:6s} {'error_rate':42s} {record['error_rate']:14.6f} failed/attempted")
    if "table" in notes:
        print(f"# traced ops: {notes['traced_ops']}; spans: {notes['spans']}")
        print(f"# {'function':36s} {'calls/op':>12s} {'self ms/op':>12s}")
        for name, calls, self_ms in notes["table"]:
            print(f"# {name:36s} {calls:12.2f} {self_ms:12.4f}")


def result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    })


def run_all(args) -> int:
    """Each workload in a fresh process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
