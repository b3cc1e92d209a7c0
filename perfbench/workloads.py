"""The three workloads: inputs made from a seed, one op, and its check.

``wide`` and ``deep`` write network files and run ``netredist --output
json run`` on them in-process through ``cli.main``; ``audit`` hands
``small_tree_instances`` profiles to ``verify.check_ir``/``check_ic``.
Network files are built here from the seed alone, not with the package's
own generators, so a change to the package cannot change its inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

ALPHA = Fraction(1, 2)
VALUE_CENTS_MAX = 100_00
ROW_KEYS = ("agent", "allocation", "auction_payment", "redistribution",
            "final_payment", "utility")
NON_DEFICIT = ("idm", "tnm", "vcg")
DEEP_LEAVES_PER_CHAIN_AGENT = 0.5


@dataclass(frozen=True)
class Sizes:
    """Input sizes of all workloads; ``FULL`` is what the benchmark runs."""

    wide_agents: tuple[int, ...]
    wide_extra_edge_share: float
    deep_chain_agents: tuple[int, ...]
    deep_long_chain_agents: int
    audit_max_agents: int


# Graded sizes give a near-continuous spread of op costs, so medians and
# tails do not jump between a few cost levels from one seed to the next.
FULL = Sizes(
    wide_agents=tuple(range(200, 500, 25)),
    wide_extra_edge_share=0.01,
    deep_chain_agents=tuple(range(160, 400, 20)),
    deep_long_chain_agents=1000,
    audit_max_agents=6,
)

TOY = Sizes(
    wide_agents=(30, 45),
    wide_extra_edge_share=0.05,
    deep_chain_agents=(20, 30, 40),
    deep_long_chain_agents=60,
    audit_max_agents=3,
)

WIDE_MECHANISMS = ("idm", "tnm", "vcg", "fixed:50")
DEEP_MECHANISMS = ("idm", "tnm", "vcg")
#: The long chain runs only under vcg, whose auction is cheap: it is there
#: for critical_tree's O(depth**2) subtree sets, which set peak_rss_mb.
LONG_CHAIN_MECHANISM = "vcg"


@dataclass(frozen=True)
class RunSpec:
    """One ``netredist run`` op: a network file and a mechanism."""

    path: str
    mechanism: str
    agents: int
    input_digest: str

    @property
    def reference_key(self) -> str:
        return f"{self.input_digest}|{self.mechanism}"


@dataclass(frozen=True)
class AuditSpec:
    """One audit op: a small instance, and whether it is a star."""

    profile: object
    is_star: bool

    @property
    def agents(self) -> int:
        return len(self.profile.reports)


# --- network files ------------------------------------------------------


def _cents(c: int) -> str:
    return f"{c // 100}.{c % 100:02d}"


def _network(parents: list[int], values: list[int],
             extra_edges: list[tuple[int, int]], ids: list[str]) -> dict:
    """Network dict from a parent vector (-1 = sponsor) plus extra edges."""
    neighbors: dict[int, set[int]] = {k: set() for k in range(-1, len(parents))}
    for k, p in enumerate(parents):
        neighbors[p].add(k)
    for a, b in extra_edges:
        neighbors[a].add(b)
    return {
        "sponsor_neighbors": sorted(ids[k] for k in neighbors[-1]),
        "agents": [
            {"id": ids[k], "value": _cents(values[k]),
             "neighbors": sorted(ids[j] for j in neighbors[k])}
            for k in range(len(parents))
        ],
    }


def wide_network(rng: random.Random, n: int, extra_share: float) -> dict:
    """Evenly growing tree (a branch opens whenever branches**2 <= k), plus
    a seeded share of extra invitation edges between random agents, which
    re-hang some agents directly under the sponsor in the critical tree."""
    parents: list[int] = []
    branches: list[list[int]] = []
    for k in range(n):
        if len(branches) ** 2 <= k:
            parents.append(-1)
            branches.append([k])
        else:
            branch = rng.choice(branches)
            parents.append(rng.choice(branch))
            branch.append(k)
    values = [rng.randint(0, VALUE_CENTS_MAX) for _ in range(n)]
    extra = [tuple(rng.sample(range(n), 2)) for _ in range(round(extra_share * n))]
    return _network(parents, values, extra, [f"w{k:05d}" for k in range(n)])


def deep_network(rng: random.Random, branches: int, chain_agents: int) -> dict:
    """``branches`` sponsor branches, each one long critical chain, with
    leaves hanging off random chain agents; the chain agents are split
    evenly between the branches.  Bids rise strictly down each chain and
    the top bidder is the bottom of the first one, so every chain auction,
    actual or counterfactual, walks a whole chain instead of stopping at a
    random depth."""
    parents: list[int] = []
    values: list[int] = []
    on_chain: list[int] = []
    for b in range(branches):
        length = chain_agents // branches + (b < chain_agents % branches)
        parent = -1
        for d in range(length):
            parents.append(parent)
            values.append(VALUE_CENTS_MAX * (d + 1) // (length + 1))
            parent = len(parents) - 1
            on_chain.append(parent)
        if b == 0:
            values[parent] = VALUE_CENTS_MAX + 1
    for _ in range(round(DEEP_LEAVES_PER_CHAIN_AGENT * chain_agents)):
        parents.append(rng.choice(on_chain))
        values.append(rng.randint(0, VALUE_CENTS_MAX))
    return _network(parents, values, [], [f"d{k:05d}" for k in range(len(parents))])


def _write(network: dict, path: str) -> tuple[str, int, str]:
    """Write ``network`` to ``path``: (path, agents, digest of the file)."""
    data = json.dumps(network, indent=1).encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return path, len(network["agents"]), hashlib.sha256(data).hexdigest()


def make_inputs(workload: str, seed: int, workdir: str, modules: dict,
                sizes: Sizes = FULL) -> list:
    """The op cycle of ``workload`` for ``seed``; network files go to ``workdir``."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "audit":
        generators = modules["generators"]
        instances = generators.small_tree_instances(sizes.audit_max_agents, seed=seed)
        rng.shuffle(instances)
        return [AuditSpec(p, _is_star(p)) for p in instances]
    long_chain = None
    if workload == "wide":
        networks = [wide_network(rng, n, sizes.wide_extra_edge_share)
                    for n in sizes.wide_agents]
        mechanisms = WIDE_MECHANISMS
    elif workload == "deep":
        # 1, 2, 3, 1, 2, 3, ... branches: the same mix on every seed
        networks = [deep_network(rng, 1 + k % 3, chain)
                    for k, chain in enumerate(sizes.deep_chain_agents)]
        mechanisms = DEEP_MECHANISMS
        long_chain = deep_network(rng, 1, sizes.deep_long_chain_agents)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(networks)
    files = [_write(network, os.path.join(workdir, f"{workload}-{k}.json"))
             for k, network in enumerate(networks)]
    # Each round runs every network once, each with the next mechanism, so
    # every mechanism runs on every network once per lap of the cycle.
    cycle = [
        RunSpec(path, mechanisms[(k + r) % len(mechanisms)], agents, digest)
        for r in range(len(mechanisms))
        for k, (path, agents, digest) in enumerate(files)
    ]
    if long_chain is not None:
        path, agents, digest = _write(long_chain, os.path.join(workdir, f"{workload}-long.json"))
        cycle.append(RunSpec(path, LONG_CHAIN_MECHANISM, agents, digest))
    return cycle


def warm_up_spec(cycle: list):
    """The same op on every seed: the smallest input, first mechanism."""
    return min(cycle, key=lambda spec: (spec.agents, getattr(spec, "mechanism", "")))


def _is_star(profile) -> bool:
    return set(profile.sponsor_neighbors) == set(profile.reports) and all(
        not t.neighbors for t in profile.reports.values())


# --- ops ------------------------------------------------------------------


def run_op(modules: dict, spec):
    """Run one op and return its raw result for ``check``."""
    if isinstance(spec, AuditSpec):
        verify = modules["verify"]
        mechanism_id = modules["auctions"].MechanismId
        reports = []
        for inner in ("idm", "tnm"):
            mechanism = verify.nrmf_mechanism(mechanism_id(inner), ALPHA)
            reports.append(verify.check_ir(mechanism, [spec.profile]))
            reports.append(verify.check_ic(mechanism, [spec.profile]))
        if spec.is_star:
            reports.append(verify.check_ic(verify.cavallo_mechanism(), [spec.profile]))
        return reports
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = modules["cli"].main(
            ["--output", "json", "run", spec.path, "--mechanism", spec.mechanism])
    return code, out.getvalue(), err.getvalue()


def outcome_digest(data: dict) -> str:
    """Digest of the outcome fields a later change must keep exactly."""
    fields = {k: data[k] for k in ("winner", "surplus_exact", "branch_revenues")}
    rows = [{k: row[k] for k in ROW_KEYS} for row in data["agents"]]
    text = json.dumps([fields, rows], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def check(spec, result, references: dict) -> tuple[Optional[str], bool]:
    """(failure reason or None, whether a recorded reference was compared)."""
    if isinstance(spec, AuditSpec):
        for report in result:
            if not report.verdict or report.witness is not None:
                return f"{report.property} verdict is not PASS", False
        return None, False
    code, stdout, stderr = result
    if code != 0:
        return f"exit code {code}: {stderr.strip()[:200]}", False
    try:
        data = json.loads(stdout)
        digest = outcome_digest(data)
        surplus = Fraction(data["surplus_exact"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", False
    if len(data["agents"]) != spec.agents:
        return f"{len(data['agents'])} agent rows, expected {spec.agents}", False
    if spec.mechanism in NON_DEFICIT and surplus < 0:
        return f"negative surplus {surplus} under {spec.mechanism}", False
    expected = references.get(spec.reference_key)
    if expected is None:
        return None, False
    if expected != digest:
        return "outcome differs from the recorded reference", True
    return None, True
