"""Brute-force audits of mechanism properties.

Every checker enumerates a finite space; a FAIL carries a witness, and a
PASS only claims "no violation in the enumerated space", which the report
records.  IR and IC witnesses replay (``Witness.replay``) to the same
utilities.  ND and revenue witnesses hold surpluses in the utility fields
and do not replay yet (ROADMAP item 8).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, count
from typing import Callable, Optional, Sequence, TypeAlias

from netredist.profiles import ZERO, AgentType, ReportProfile, induce_graph
from netredist.auctions import (
    MechanismId,
    Outcome,
    market,
    run_auction,
    utility,
)
from netredist.prst import SharingParams
from netredist.redistribution import cavallo, run_nrmf
from netredist.render import fraction_str


#: A mechanism under audit: report profile in, outcome out.  Left
#: unevaluated: ``typing`` caches every subscription it evaluates, and a
#: cached one would keep these classes, and the modules behind them, alive
#: after the package is imported afresh.
Mechanism: TypeAlias = "Callable[[ReportProfile], Outcome]"


def auction_mechanism(mechanism: MechanismId) -> Mechanism:
    return lambda profile: run_auction(mechanism, profile)


def nrmf_mechanism(mechanism: MechanismId, alpha: Fraction, nrmf=None) -> Mechanism:
    params = SharingParams(alpha)
    return lambda profile: (nrmf or run_nrmf)(mechanism, profile, params)


def cavallo_mechanism() -> Mechanism:
    return cavallo


def parse_mechanism(spec: str, alpha: Fraction, bare: str, nrmf=None) -> Mechanism:
    """``cavallo``, ``auction:<kind>`` (the plain auction) or ``nrmf:<kind>``
    (NRMF over it at ``alpha``, by ``nrmf`` or else ``run_nrmf``), ``<kind>`` as
    ``MechanismId.parse`` reads it; a bare ``<kind>`` takes the form ``bare``."""
    if spec == "cavallo":
        return cavallo_mechanism()
    form, kind = spec.split(":", 1) if spec.startswith(("auction:", "nrmf:")) else (bare, spec)
    mech = MechanismId.parse(kind)
    return nrmf_mechanism(mech, alpha, nrmf) if form == "nrmf" else auction_mechanism(mech)


def _utility(outcome: Outcome, i: str, true_value: Fraction) -> Fraction:
    return utility(outcome.allocation[i], true_value, outcome.final_payment[i])


# The deviation space: a finite stand-in for "all possible reports" of a
# single agent.  The valuation grid holds 0, every distinct value present in
# the instance, and each of those shifted one unit up and down.  The
# mechanisms are piecewise constant between the reports' order statistics
# and a posted price p, but the grid can miss a region: the open interval
# between two other agents' values less than a unit apart, the deviating
# agent's id between theirs, and [p, v) for p less than a unit below a
# value v (ROADMAP item 5).
# Neighbour deviations enumerate the full powerset up to the degree cap and
# fall back to seeded sampling above it.
UNIT_STEP = Fraction(1)
POWERSET_DEGREE_CAP = 8
SUBSET_SAMPLES = 32
SUBSET_SEED = 0
DEVIATION_SPACE = (
    f"valuation grid = instance order statistics +/- {UNIT_STEP} and 0; "
    f"neighbour powerset up to degree {POWERSET_DEGREE_CAP}, "
    f"{SUBSET_SAMPLES} seeded samples beyond"
)


def valuation_grid(profile: ReportProfile) -> list[Fraction]:
    values = {ZERO}
    for i in profile.agents:
        v = profile.value_of(i)
        values.update((v, v + UNIT_STEP))
        if v >= UNIT_STEP:
            values.add(v - UNIT_STEP)
    return sorted(values)


def neighbor_subsets(neighbors: frozenset[str]) -> list[frozenset[str]]:
    items = sorted(neighbors)
    if len(items) <= POWERSET_DEGREE_CAP:
        return [
            frozenset(c)
            for r in range(len(items) + 1)
            for c in combinations(items, r)
        ]
    rng = random.Random(SUBSET_SEED)
    subsets = {frozenset(), frozenset(items)}
    while len(subsets) < SUBSET_SAMPLES:
        subsets.add(frozenset(i for i in items if rng.random() < 0.5))
    return sorted(subsets, key=sorted)


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
                "deviation_value": fraction_str(w.deviation.value),
                "deviation_neighbors": sorted(w.deviation.neighbors),
                "truthful_utility": fraction_str(w.truthful_utility),
                "deviation_utility": fraction_str(w.deviation_utility),
            }
            if self.property == "IR":  # IR's bar is 0, not the truthful utility
                data["witness"]["shortfall"] = fraction_str(-w.deviation_utility)
            else:
                data["witness"]["gain"] = fraction_str(w.gain)
        return data


def _report(prop: str, space: str, instances: Sequence, checked: int,
            witness: Optional[Witness] = None,
            skips: Optional[Counter] = None) -> PropertyReport:
    """Every audit's report: FAIL iff a witness; warn on no input and per skip reason."""
    skips = skips or Counter()
    warnings = [] if instances else ["no instances supplied; vacuous pass"]
    warnings += [f"skipped pairs {reason}: {n}" for reason, n in skips.items()]
    return PropertyReport(prop, witness is None, witness, checked,
                          sum(skips.values()), space, tuple(warnings))


def _deviation_scan(prop: str, mechanism: Mechanism,
                    instances: Sequence[ReportProfile]) -> PropertyReport:
    """Walk profile, agent, neighbour subset, value; stop at the first
    deviation past the bar.  IC walks the valuation grid without the truthful
    report, bar the honest utility.  IR holds the true value, bar 0, and
    runs the truthful profile only for a FAIL's witness."""
    ic = prop == "IC"
    checked = 0
    for profile in instances:
        if not profile.reports:
            continue
        grid = valuation_grid(profile) if ic else None
        truthful = mechanism(profile) if ic else None
        for i in profile.agents:
            truth = profile.reports[i]
            honest = _utility(truthful, i, truth.value) if ic else None
            for subset in neighbor_subsets(truth.neighbors):
                for v in grid if ic else (truth.value,):
                    deviation = AgentType(v, subset)
                    if ic and deviation == truth:
                        continue
                    outcome = mechanism(profile.replace(i, deviation))
                    u = _utility(outcome, i, truth.value)
                    checked += 1
                    if (u > honest) if ic else (u < 0):
                        honest = _utility(truthful if ic else mechanism(profile), i, truth.value)
                        witness = Witness(profile, i, truth, deviation, honest, u)
                        return _report(prop, DEVIATION_SPACE, instances, checked, witness)
    return _report(prop, DEVIATION_SPACE, instances, checked)


def check_ir(mechanism: Mechanism,
             instances: Sequence[ReportProfile]) -> PropertyReport:
    """Truthful valuation never yields negative utility, whichever subset
    of her true neighbours an agent invites."""
    return _deviation_scan("IR", mechanism, instances)


def check_ic(mechanism: Mechanism,
             instances: Sequence[ReportProfile]) -> PropertyReport:
    """Truthful reporting is utility-maximising within the deviation space."""
    return _deviation_scan("IC", mechanism, instances)


def check_nd(mechanism: Mechanism,
             instances: Sequence[ReportProfile]) -> PropertyReport:
    """Sponsor surplus is non-negative on every instance."""
    for checked, profile in enumerate(instances, 1):
        surplus = mechanism(profile).surplus
        if surplus < 0:
            agent = profile.agents[0]
            truth = profile.reports[agent]
            witness = Witness(profile, agent, truth, truth, ZERO, -surplus)
            return _report("ND", "all supplied instances", instances, checked, witness)
    return _report("ND", "all supplied instances", instances, len(instances))


def _new_participants(smaller: ReportProfile,
                      larger: ReportProfile) -> Optional[frozenset[str]]:
    """The participants ``larger`` adds to ``smaller``, or None when the
    pair violates the growth precondition."""
    d_small = induce_graph(smaller).reachable
    d_large = induce_graph(larger).reachable
    if not d_small <= d_large:
        return None
    for i in d_small:
        a, b = smaller.reports[i], larger.reports[i]
        if a.value != b.value or not a.neighbors <= b.neighbors:
            return None
    return d_large - d_small


def _no_new_potential_winner(mechanism: Mechanism,
                             smaller: ReportProfile,
                             base: Outcome,
                             larger: ReportProfile,
                             new_agents: frozenset[str]) -> bool:
    """``new_agents`` may never win, even with the old winner's line
    removed; ``base`` is the mechanism's outcome on ``smaller``."""
    if not new_agents or base.winner is None:
        return True
    removed = set(market(smaller).tree.ancestors(base.winner))
    # silence the bids but keep the invitations, so agents reachable only
    # through the winner's line still get their shot
    stripped = ReportProfile(larger.sponsor_neighbors, {
        i: AgentType(ZERO, t.neighbors) if i in removed else t
        for i, t in larger.reports.items()})
    return mechanism(stripped).winner not in new_agents


def _growth_pair_audit(prop: str, mechanism: Mechanism,
                       instance_pairs: Sequence[tuple[ReportProfile, ReportProfile]]
                       ) -> PropertyReport:
    """Both revenue audits: compare each growth pair's two surpluses up to
    the first violation."""
    invariant = prop == "RevenueInvariant"
    space = "qualifying growth pairs" if invariant else "supplied growth pairs"
    checked = 0
    skips: Counter = Counter()
    for smaller, larger in instance_pairs:
        new_agents = _new_participants(smaller, larger)
        if new_agents is None:
            skips["violating the growth precondition"] += 1
            continue
        base = mechanism(smaller)
        if invariant and not _no_new_potential_winner(mechanism, smaller, base,
                                                      larger, new_agents):
            skips["with a potential new winner"] += 1
            continue
        checked += 1
        before, after = base.surplus, mechanism(larger).surplus
        if (before != after) if invariant else (before > after):
            agent = smaller.agents[0]
            truth = smaller.reports[agent]
            surpluses = (before, after) if invariant else (after, before)
            witness = Witness(smaller, agent, truth, truth, *surpluses)
            return _report(prop, space, instance_pairs, checked, witness, skips)
    return _report(prop, space, instance_pairs, checked, skips=skips)


def check_revenue_monotonic(mechanism: Mechanism,
                            instance_pairs: Sequence[tuple[ReportProfile, ReportProfile]]
                            ) -> PropertyReport:
    """Revenue never drops when participation grows.  Pairs that break the
    growth precondition (participants of the smaller profile keep their
    values and can only gain neighbours) are skipped with a warning."""
    return _growth_pair_audit("RevenueMonotonic", mechanism, instance_pairs)


def check_revenue_invariant(mechanism: Mechanism,
                            instance_pairs: Sequence[tuple[ReportProfile, ReportProfile]]
                            ) -> PropertyReport:
    """Adding agents who can never win leaves revenue exactly unchanged.  A
    growth pair qualifies only if no added agent wins even once the original
    winner and all her critical ancestors are silenced (by simulation)."""
    return _growth_pair_audit("RevenueInvariant", mechanism, instance_pairs)


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
                         leaf_value: Fraction) -> list[tuple[ReportProfile, ReportProfile]]:
    """(original, extended) pairs appending one leaf to each participant.
    The leaf of ``host`` is the first ``zz_{host}_{k}`` that is no agent's
    id yet."""
    pairs = []
    reachable = induce_graph(profile).reachable
    for host in sorted(reachable):
        reports = dict(profile.reports)
        host_type = reports[host]
        leaf = next(leaf for leaf in (f"zz_{host}_{k}" for k in count())
                    if leaf not in reports)
        reports[leaf] = AgentType(leaf_value, frozenset())
        reports[host] = AgentType(host_type.value, host_type.neighbors | {leaf})
        pairs.append((profile, ReportProfile(profile.sponsor_neighbors, reports)))
    return pairs
