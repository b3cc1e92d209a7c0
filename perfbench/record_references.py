"""Record the reference outcomes the benchmark compares ``run`` ops against.

    python3 perfbench/record_references.py

Runs every ``wide`` and ``deep`` op of the reference seeds once and writes
the digest of each outcome (see ``workloads.outcome_digest``), keyed by
the digest of the input file and the mechanism, to references.json.
Record only on a commit whose outcomes are known to be right; recording
on a later commit would turn a changed outcome into the expected one.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

import run
from workloads import FULL, make_inputs, outcome_digest, run_op

REFERENCE_SEEDS = (0,)


def main() -> int:
    modules = run.import_package()
    digests = {}
    run.WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK_DIR)
    try:
        for workload in ("wide", "deep"):
            for seed in REFERENCE_SEEDS:
                for spec in make_inputs(workload, seed, workdir, modules, FULL):
                    code, stdout, stderr = run_op(modules, spec)
                    if code != 0:
                        print(f"error: {spec}: {stderr}", file=sys.stderr)
                        return 1
                    digests[spec.reference_key] = outcome_digest(json.loads(stdout))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"seeds": list(REFERENCE_SEEDS), "digests": digests}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} reference outcomes in {run.REFERENCES}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
