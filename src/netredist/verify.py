"""Brute-force audits of mechanism properties.

Every checker enumerates a finite space and returns a report whose FAIL
verdict always carries a replayable witness: re-running the witness must
reproduce the same utility delta.  A PASS only ever claims "no violation
in the enumerated space", and the report records that space.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Optional, Sequence

from netredist.profiles import AgentType, ReportProfile, induce_graph
from netredist.auctions import (
    AuctionOutcome,
    EmptyMarketError,
    MechanismId,
    run_auction,
    utility,
)
from netredist.critical_tree import critical_tree
from netredist.prst import SharingParams
from netredist.redistribution import RedistributionOutcome, cavallo, run_nrmf

ZERO = Fraction(0)

#: A mechanism under audit: report profile in, outcome out.
Mechanism = Callable[[ReportProfile], "AuctionOutcome | RedistributionOutcome"]


def auction_mechanism(mechanism: MechanismId) -> Mechanism:
    return lambda profile: run_auction(mechanism, profile)


def nrmf_mechanism(mechanism: MechanismId, alpha: Fraction) -> Mechanism:
    params = SharingParams(alpha)
    return lambda profile: run_nrmf(mechanism, profile, params)


def cavallo_mechanism() -> Mechanism:
    return cavallo


def _utility(outcome, i: str, true_value: Fraction) -> Fraction:
    if isinstance(outcome, RedistributionOutcome):
        return utility(outcome.allocation[i], true_value, outcome.final_payment[i])
    return utility(outcome.allocation[i], true_value, outcome.payment[i])


@dataclass(frozen=True)
class DeviationSpace:
    """Finite stand-in for "all possible reports" of a single agent.

    The valuation grid always contains 0, every distinct value present in
    the instance, and each of those shifted by one unit step up and down;
    the implemented mechanisms are piecewise constant between the order
    statistics of the reports, so this grid separates all outcome regions.
    Neighbour deviations enumerate the full powerset up to the degree cap
    and fall back to seeded sampling above it.
    """

    unit_step: Fraction = Fraction(1)
    extra_values: tuple[Fraction, ...] = ()
    powerset_degree_cap: int = 8
    subset_samples: int = 32
    seed: int = 0

    def valuation_grid(self, profile: ReportProfile) -> list[Fraction]:
        values = {ZERO}
        for i in profile.agents:
            v = profile.value_of(i)
            values.update((v, v + self.unit_step))
            if v >= self.unit_step:
                values.add(v - self.unit_step)
        values.update(self.extra_values)
        return sorted(values)

    def neighbor_subsets(self, neighbors: frozenset[str]) -> list[frozenset[str]]:
        items = sorted(neighbors)
        if len(items) <= self.powerset_degree_cap:
            return [
                frozenset(c)
                for r in range(len(items) + 1)
                for c in combinations(items, r)
            ]
        rng = random.Random(self.seed)
        subsets = {frozenset(), frozenset(items)}
        while len(subsets) < self.subset_samples:
            subsets.add(frozenset(i for i in items if rng.random() < 0.5))
        return sorted(subsets, key=sorted)

    def describe(self) -> str:
        return (
            f"valuation grid = instance order statistics +/- {self.unit_step} and 0; "
            f"neighbour powerset up to degree {self.powerset_degree_cap}, "
            f"{self.subset_samples} seeded samples beyond"
        )


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample: one agent, one deviation, the gain."""

    profile: ReportProfile
    agent: str
    truthful_report: AgentType
    deviation: AgentType
    truthful_utility: Fraction
    deviation_utility: Fraction

    @property
    def gain(self) -> Fraction:
        return self.deviation_utility - self.truthful_utility

    def replay(self, mechanism: Mechanism) -> tuple[Fraction, Fraction]:
        """Recompute both utilities from scratch; must match the stored ones."""
        true_value = self.truthful_report.value
        honest = _utility(mechanism(self.profile), self.agent, true_value)
        deviated = _utility(
            mechanism(self.profile.replace(self.agent, self.deviation)),
            self.agent, true_value,
        )
        return honest, deviated


@dataclass(frozen=True)
class PropertyReport:
    property: str
    verdict: bool
    witness: Optional[Witness] = None
    checked: int = 0
    skipped: int = 0
    space: str = ""
    warnings: tuple[str, ...] = field(default=())

    def to_dict(self) -> dict:
        data = {
            "property": self.property,
            "verdict": "pass" if self.verdict else "fail",
            "checked": self.checked,
            "skipped": self.skipped,
            "space": self.space,
            "warnings": list(self.warnings),
        }
        if self.witness is not None:
            w = self.witness
            data["witness"] = {
                "agent": w.agent,
                "deviation_value": str(w.deviation.value),
                "deviation_neighbors": sorted(w.deviation.neighbors),
                "truthful_utility": str(w.truthful_utility),
                "deviation_utility": str(w.deviation_utility),
                "gain": str(w.gain),
            }
        return data


def check_ir(mechanism: Mechanism,
             instances: Sequence[ReportProfile]) -> PropertyReport:
    """Truthful valuation never yields negative utility.

    Each agent keeps her true valuation but may invite any subset of her
    true neighbours; utility must stay non-negative throughout.
    """
    warnings = ()
    if not instances:
        warnings = ("no instances supplied; vacuous pass",)
    space = DeviationSpace()
    checked = 0
    for profile in instances:
        for i in profile.agents:
            truth = profile.reports[i]
            for subset in space.neighbor_subsets(truth.neighbors):
                report = AgentType(truth.value, subset)
                outcome = mechanism(profile.replace(i, report))
                u = _utility(outcome, i, truth.value)
                checked += 1
                if u < 0:
                    witness = Witness(profile, i, truth, report,
                                      _utility(mechanism(profile), i, truth.value), u)
                    return PropertyReport("IR", False, witness, checked,
                                          space=space.describe())
    return PropertyReport("IR", True, None, checked, space=space.describe(),
                          warnings=warnings)


def check_ic(mechanism: Mechanism,
             instances: Sequence[ReportProfile],
             space: Optional[DeviationSpace] = None) -> PropertyReport:
    """Truthful reporting is utility-maximising within the deviation space."""
    space = space or DeviationSpace()
    warnings = ()
    if not instances:
        warnings = ("no instances supplied; vacuous pass",)
    checked = 0
    for profile in instances:
        grid = space.valuation_grid(profile)
        for i in profile.agents:
            truth = profile.reports[i]
            honest = _utility(mechanism(profile), i, truth.value)
            for subset in space.neighbor_subsets(truth.neighbors):
                for v in grid:
                    deviation = AgentType(v, subset)
                    if deviation == truth:
                        continue
                    outcome = mechanism(profile.replace(i, deviation))
                    u = _utility(outcome, i, truth.value)
                    checked += 1
                    if u > honest:
                        witness = Witness(profile, i, truth, deviation, honest, u)
                        return PropertyReport("IC", False, witness, checked,
                                              space=space.describe())
    return PropertyReport("IC", True, None, checked, space=space.describe(),
                          warnings=warnings)


def check_nd(mechanism: Mechanism,
             instances: Sequence[ReportProfile]) -> PropertyReport:
    """Sponsor surplus is non-negative on every instance."""
    checked = 0
    for profile in instances:
        outcome = mechanism(profile)
        checked += 1
        if outcome.surplus < 0:
            agent = profile.agents[0]
            truth = profile.reports[agent]
            witness = Witness(profile, agent, truth, truth,
                              ZERO, -outcome.surplus)
            return PropertyReport("ND", False, witness, checked,
                                  space="all supplied instances")
    return PropertyReport("ND", True, None, checked,
                          space="all supplied instances")


def _valid_growth_pair(smaller: ReportProfile, larger: ReportProfile) -> bool:
    d_small = induce_graph(smaller).reachable
    d_large = induce_graph(larger).reachable
    if not d_small <= d_large:
        return False
    for i in d_small:
        a, b = smaller.reports[i], larger.reports[i]
        if a.value != b.value or not a.neighbors <= b.neighbors:
            return False
    return True


def check_revenue_monotonic(mechanism: Mechanism,
                            instance_pairs: Sequence[tuple[ReportProfile, ReportProfile]]
                            ) -> PropertyReport:
    """Revenue never drops when participation grows.

    Pairs must satisfy the growth precondition (participants of the smaller
    profile keep their values and can only gain neighbours); malformed
    pairs are skipped with a warning.
    """
    checked = skipped = 0
    warnings: list[str] = []
    for smaller, larger in instance_pairs:
        if not _valid_growth_pair(smaller, larger):
            skipped += 1
            if len(warnings) < 5:
                warnings.append("skipped pair violating the growth precondition")
            continue
        checked += 1
        if mechanism(smaller).surplus > mechanism(larger).surplus:
            agent = smaller.agents[0]
            truth = smaller.reports[agent]
            witness = Witness(smaller, agent, truth, truth,
                              mechanism(larger).surplus, mechanism(smaller).surplus)
            return PropertyReport("RevenueMonotonic", False, witness, checked,
                                  skipped, space="supplied growth pairs",
                                  warnings=tuple(warnings))
    return PropertyReport("RevenueMonotonic", True, None, checked, skipped,
                          space="supplied growth pairs", warnings=tuple(warnings))


def _no_new_potential_winner(mechanism: Mechanism,
                             smaller: ReportProfile,
                             larger: ReportProfile) -> bool:
    """New agents may never win, even with the old winner's line removed."""
    d_small = induce_graph(smaller).reachable
    new_agents = induce_graph(larger).reachable - d_small
    if not new_agents:
        return True
    base = mechanism(smaller)
    if base.winner is None:
        return True
    tree = critical_tree(induce_graph(smaller))
    removed = set(tree.ancestors(base.winner))
    stripped = larger
    for i in removed:
        # silence the bid but keep the invitations, so agents reachable
        # only through the winner's line still get their shot
        stripped = stripped.replace(
            i, AgentType(ZERO, larger.reports[i].neighbors))
    try:
        shadow = mechanism(stripped)
    except EmptyMarketError:
        return True
    return shadow.winner not in new_agents


def check_revenue_invariant(mechanism: Mechanism,
                            instance_pairs: Sequence[tuple[ReportProfile, ReportProfile]]
                            ) -> PropertyReport:
    """Adding agents who can never win leaves revenue exactly unchanged.

    On top of the growth precondition, a pair qualifies only if none of the
    added agents could win even after the original winner and all her
    critical ancestors are silenced (checked by simulation).
    """
    checked = skipped = 0
    for smaller, larger in instance_pairs:
        if not _valid_growth_pair(smaller, larger):
            skipped += 1
            continue
        if not _no_new_potential_winner(mechanism, smaller, larger):
            skipped += 1
            continue
        checked += 1
        s_small, s_large = mechanism(smaller).surplus, mechanism(larger).surplus
        if s_small != s_large:
            agent = smaller.agents[0]
            truth = smaller.reports[agent]
            witness = Witness(smaller, agent, truth, truth, s_small, s_large)
            return PropertyReport("RevenueInvariant", False, witness, checked,
                                  skipped, space="qualifying growth pairs")
    return PropertyReport("RevenueInvariant", True, None, checked, skipped,
                          space="qualifying growth pairs")


# --- growth-pair construction -------------------------------------------


def shrink_pairs(profile: ReportProfile) -> list[tuple[ReportProfile, ReportProfile]]:
    """(reduced, full) pairs made by dropping single invitation edges."""
    pairs = []
    for i in profile.agents:
        t = profile.reports[i]
        for j in sorted(t.neighbors):
            reduced = profile.replace(i, AgentType(t.value, t.neighbors - {j}))
            pairs.append((reduced, profile))
    return pairs


def leaf_extension_pairs(profile: ReportProfile,
                         leaf_value: Fraction,
                         count: int = 1) -> list[tuple[ReportProfile, ReportProfile]]:
    """(original, extended) pairs appending low-value leaves to each agent."""
    pairs = []
    reachable = induce_graph(profile).reachable
    for host in sorted(reachable):
        reports = dict(profile.reports)
        host_type = reports[host]
        new_ids = []
        for k in range(count):
            new_id = f"zz_{host}_{k}"
            reports[new_id] = AgentType(leaf_value, frozenset())
            new_ids.append(new_id)
        reports[host] = AgentType(host_type.value,
                                  host_type.neighbors | frozenset(new_ids))
        pairs.append((profile, ReportProfile(profile.sponsor_neighbors, reports)))
    return pairs
