"""Random network generators, exhaustive tree enumeration and experiments.

Two growth processes realise the asymptotic regimes studied by the
convergence experiments.  Both pick a sponsor branch uniformly and a host
inside it uniformly; they differ in the branch count: the evenly growing
model keeps opening new branches (about sqrt(n) of them), so every
branch's share of the market vanishes, while the branch-independent model
freezes the sponsor's neighbour set up front, so shares stay bounded away
from zero.  Profiles carry invitation edges only, so the generated tree
is its own critical tree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations, product
from statistics import median
from typing import Iterator, Optional, Sequence

from netredist.auctions import MechanismId, market
from netredist.critical_tree import CriticalTree
from netredist.profiles import SPONSOR, AgentType, ReportProfile
from netredist.prst import SharingParams
from netredist.redistribution import run_nrmf
from netredist.render import fraction_str

ZERO = Fraction(0)

VALUE_DENOMINATOR = 100

EVENLY_GROWING = "evenly_growing"
BRANCH_INDEPENDENT = "branch_independent"


class GenerationError(ValueError):
    """Raised for invalid growth-model, sweep or command-line parameters."""


@dataclass(frozen=True)
class GrowthModel:
    """How a random invitation tree grows and how values are drawn.

    Values are uniform on the multiples of ``1 / VALUE_DENOMINATOR`` from 0
    to ``value_max``; the fixed denominator keeps them exact rationals.
    """

    kind: str = EVENLY_GROWING
    initial_branches: int = 4
    value_max: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in (EVENLY_GROWING, BRANCH_INDEPENDENT):
            raise GenerationError(f"unknown growth model {self.kind!r}")
        if self.initial_branches < 1:
            raise GenerationError("initial_branches must be >= 1")
        if self.value_max <= 0:
            raise GenerationError("value distribution bounds must be positive")

    def with_seed(self, seed: int) -> "GrowthModel":
        return replace(self, seed=seed)


def _agent_id(k: int) -> str:
    return f"a{k:05d}"


def generate(model: GrowthModel, n: int) -> ReportProfile:
    """Grow an ``n``-agent invitation tree; reproducible from the seed."""
    if n < 1:
        raise GenerationError("need at least one agent")
    rng = random.Random(f"{model.seed}:{model.kind}:{n}")
    evenly = model.kind == EVENLY_GROWING
    parents: dict[str, str] = {}
    branches: list[list[str]] = []
    for k in range(n):
        i = _agent_id(k)
        # a new sponsor branch whenever k reaches the branch count squared
        # (~sqrt(n) branches, each holding a vanishing share), or only the
        # initial branches of the branch-independent model
        if (len(branches) ** 2 <= k) if evenly else (k < model.initial_branches):
            parents[i] = SPONSOR
            branches.append([i])
        else:
            branch = rng.choice(branches)
            parents[i] = rng.choice(branch)
            branch.append(i)

    children: dict[str, set[str]] = {}
    for i, p in parents.items():
        children.setdefault(p, set()).add(i)
    reports = {}
    for i in parents:
        value = Fraction(rng.randint(0, model.value_max * VALUE_DENOMINATOR),
                         VALUE_DENOMINATOR)
        reports[i] = AgentType(value, frozenset(children.get(i, ())))
    return ReportProfile(frozenset(children.get(SPONSOR, ())), reports)


def branch_fractions(tree: CriticalTree) -> dict[str, Fraction]:
    """Share of participants sitting in each branch of the critical tree."""
    n = len(tree.parent)
    return {root: Fraction(tree.size[root], n) for root in tree.root_branches}


# --- exhaustive enumeration of small tree instances ---------------------


def rooted_tree_shapes(max_agents: int) -> Iterator[tuple[int, ...]]:
    """All unlabeled rooted tree shapes with 1..max_agents agents.

    A shape is a parent vector: entry k is the parent index of agent k,
    with -1 meaning the root, and agent k hangs under the root or an agent
    before her.  Of the vectors in lexicographic order, the first of each
    shape is kept, by a canonical form.
    """
    for n in range(1, max_agents + 1):
        seen = set()
        for rest in product(*(range(-1, k) for k in range(1, n))):
            parents = (-1, *rest)
            form = _canonical_form(parents)
            if form not in seen:
                seen.add(form)
                yield parents


def _canonical_form(parents: tuple[int, ...]):
    children: dict[int, list[int]] = {}
    for k, p in enumerate(parents):
        children.setdefault(p, []).append(k)

    def form(v: int):
        return tuple(sorted(form(c) for c in children.get(v, [])))

    return form(-1)


def tree_profile(parents: Sequence[int], values: Sequence) -> ReportProfile:
    """Turn a parent vector plus valuations into an invitation-tree profile."""
    ids = [chr(ord("A") + k) if len(parents) <= 26 else f"a{k:03d}"
           for k in range(len(parents))]
    children: dict[int, list[str]] = {}
    for k, p in enumerate(parents):
        children.setdefault(p, []).append(ids[k])
    reports = {
        ids[k]: AgentType(Fraction(values[k]), frozenset(children.get(k, ())))
        for k in range(len(parents))
    }
    return ReportProfile(frozenset(children.get(-1, ())), reports)


def small_tree_instances(max_agents: int, seed: int = 0) -> list[ReportProfile]:
    """Every tree shape up to ``max_agents``, with valuation assignments.

    Shapes are exhaustive; valuations are all permutations of {1..n} up
    to four agents and three seeded permutations beyond that.
    """
    rng = random.Random(seed)
    instances = []
    for parents in rooted_tree_shapes(max_agents):
        n = len(parents)
        base = list(range(1, n + 1))
        if n <= 4:
            assignments = list(permutations(base))
        else:
            assignments = []
            for _ in range(3):
                perm = base[:]
                rng.shuffle(perm)
                assignments.append(tuple(perm))
        for values in assignments:
            instances.append(tree_profile(parents, values))
    return instances


# --- experiments ---------------------------------------------------------


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    seed: int
    surplus: Fraction
    max_branch_fraction: Fraction
    branch_count: int
    bound: Optional[Fraction] = None

    def to_dict(self) -> dict:
        data = {
            "n": self.n,
            "seed": self.seed,
            "surplus": fraction_str(self.surplus),
            "max_branch_fraction": fraction_str(self.max_branch_fraction),
            "branch_count": self.branch_count,
        }
        if self.bound is not None:
            data["bound"] = fraction_str(self.bound)
        return data


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[ExperimentRecord, ...]

    def for_size(self, n: int) -> list[ExperimentRecord]:
        return [r for r in self.records if r.n == n]

    def median_surplus(self, n: int) -> Fraction:
        return median(r.surplus for r in self.for_size(n))

    def mean_surplus(self, n: int) -> Fraction:
        rows = self.for_size(n)
        return sum((r.surplus for r in rows), ZERO) / len(rows)

    def sizes(self) -> list[int]:
        return sorted({r.n for r in self.records})

    def to_dict(self) -> dict:
        return {
            "records": [r.to_dict() for r in self.records],
            "aggregates": [
                {
                    "n": n,
                    "median_surplus": fraction_str(self.median_surplus(n)),
                    "mean_surplus": fraction_str(self.mean_surplus(n)),
                }
                for n in self.sizes()
            ],
        }


def _sweep(mechanism: MechanismId,
           model: GrowthModel,
           sizes: Sequence[int],
           seeds: Sequence[int],
           alpha: Fraction,
           bound: Optional[Fraction] = None,
           ) -> Iterator[tuple[ExperimentRecord, ReportProfile, CriticalTree]]:
    """Run the mechanism with redistribution on one generated network per
    (size, seed), sizes ascending; yields each record with its profile and
    critical tree."""
    params = SharingParams(alpha)
    for n in sorted(sizes):
        for seed in seeds:
            profile = generate(model.with_seed(seed), n)
            outcome = run_nrmf(mechanism, profile, params)
            tree = market(profile).tree
            fractions = branch_fractions(tree)
            record = ExperimentRecord(
                n=n, seed=seed, surplus=outcome.surplus,
                max_branch_fraction=max(fractions.values()),
                branch_count=len(fractions), bound=bound,
            )
            yield record, profile, tree


def abb_experiment(mechanism: MechanismId,
                   model: GrowthModel,
                   sizes: Sequence[int],
                   seeds: Sequence[int],
                   alpha: Fraction = Fraction(1, 2)) -> ExperimentResult:
    """Surplus left undistributed across a ladder of network sizes.

    For fixed-branch growth every record also carries the surplus bound
    ``2 / initial_branches * value_max``.
    """
    bound = None
    if model.kind == BRANCH_INDEPENDENT:
        bound = Fraction(2, model.initial_branches) * model.value_max
    sweep = _sweep(mechanism, model, sizes, seeds, alpha, bound)
    return ExperimentResult(tuple(record for record, _, _ in sweep))


def bb_experiment(price: Fraction,
                  model: GrowthModel,
                  sizes: Sequence[int],
                  seeds: Sequence[int],
                  alpha: Fraction = Fraction(1, 2)) -> tuple[ExperimentResult, dict]:
    """Fixed-price sale: how often the sponsor ends exactly even.

    Returns the per-run records plus a summary with the fraction of runs
    ending at surplus exactly 0 and the count of runs where at least two
    branches contained a willing buyer (the structural condition under
    which the surplus must vanish).
    """
    mechanism = MechanismId("fixed_price", price)
    records = []
    two_branch_buyers = 0
    exact_zero = 0
    for record, profile, tree in _sweep(mechanism, model, sizes, seeds, alpha):
        buyer_branches = {
            tree.branch_of[i] for i in tree.parent if profile.value_of(i) >= price
        }
        if len(buyer_branches) >= 2:
            two_branch_buyers += 1
        if record.surplus == 0:
            exact_zero += 1
        records.append(record)
    summary = {
        "runs": len(records),
        "exact_zero": exact_zero,
        "runs_with_two_buyer_branches": two_branch_buyers,
    }
    return ExperimentResult(tuple(records)), summary
