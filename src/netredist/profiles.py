"""Agents, report profiles and the invitation graph they induce.

An agent's type is a pair (valuation, invited neighbours).  A report profile
collects every agent's reported type together with the sponsor's own
neighbour set.  The profile induces a directed graph whose root is the
sponsor; only agents reachable from the sponsor can take part in any
mechanism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from netredist.render import exact_decimal_str

#: Reserved identifier of the sponsor (the item owner / root of invitations).
SPONSOR = "s"


class ProfileError(ValueError):
    """Raised when a report profile or network file is malformed."""


@dataclass(frozen=True)
class AgentType:
    """A (valuation, invited-neighbour-set) pair."""

    value: Fraction
    neighbors: frozenset[str]

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ProfileError(f"negative valuation {self.value!r}")

    @staticmethod
    def of(value, neighbors: Iterable[str] = ()) -> "AgentType":
        return AgentType(Fraction(value), frozenset(neighbors))


#: The "stay silent" report used when a whole branch is blocked.
NULL_TYPE = AgentType(Fraction(0), frozenset())


@dataclass(frozen=True)
class ReportProfile:
    """Reported types of all agents plus the sponsor's neighbour set.

    The sponsor always reports truthfully.  Every identifier mentioned
    anywhere must have an entry in ``reports``; the sponsor id is reserved.
    """

    sponsor_neighbors: frozenset[str]
    reports: Mapping[str, AgentType]

    def __post_init__(self) -> None:
        if SPONSOR in self.reports:
            raise ProfileError(f"agent id {SPONSOR!r} is reserved for the sponsor")
        for j in self.sponsor_neighbors:
            if j not in self.reports:
                raise ProfileError(f"sponsor invites unknown agent {j!r}")
        for i, t in self.reports.items():
            if i in t.neighbors:
                raise ProfileError(f"agent {i!r} lists itself as a neighbour")
            for j in t.neighbors:
                if j != SPONSOR and j not in self.reports:
                    raise ProfileError(f"agent {i!r} references unknown agent {j!r}")

    @property
    def agents(self) -> list[str]:
        """All agent ids in canonical (sorted) order."""
        return sorted(self.reports)

    def value_of(self, i: str) -> Fraction:
        return self.reports[i].value

    def replace(self, i: str, report: AgentType) -> "ReportProfile":
        """A copy of the profile with agent ``i``'s report swapped out."""
        if i not in self.reports:
            raise ProfileError(f"unknown agent {i!r}")
        reports = dict(self.reports)
        reports[i] = report
        return ReportProfile(self.sponsor_neighbors, reports)


def make_profile(sponsor_neighbors: Iterable[str],
                 reports: Mapping[str, AgentType]) -> ReportProfile:
    return ReportProfile(frozenset(sponsor_neighbors), dict(reports))


def star_profile(values: Mapping[str, object]) -> ReportProfile:
    """All agents directly adjacent to the sponsor, no further invitations."""
    reports = {i: AgentType.of(v) for i, v in values.items()}
    return ReportProfile(frozenset(reports), reports)


@dataclass(frozen=True)
class InducedGraph:
    """The directed graph induced by a report profile.

    ``successors`` maps each vertex to its invitees in sorted order (the
    sponsor included, edges into the sponsor dropped); ``reachable`` is the
    participant set: every vertex with a directed path from the sponsor.
    """

    successors: Mapping[str, tuple[str, ...]] = field(compare=False, repr=False)
    reachable: frozenset[str]

    def reachable_from(self, root: str, removed: frozenset[str] = frozenset()) -> frozenset[str]:
        """Vertices reachable from ``root`` when ``removed`` vertices are deleted."""
        if root in removed:
            return frozenset()
        seen = {root}
        stack = [root]
        while stack:
            u = stack.pop()
            for v in self.successors.get(u, ()):
                if v not in seen and v not in removed:
                    seen.add(v)
                    stack.append(v)
        seen.discard(root)
        return frozenset(seen)


def induce_graph(profile: ReportProfile) -> InducedGraph:
    """Build the invitation graph of a profile and its participant set."""
    succ = {SPONSOR: tuple(sorted(profile.sponsor_neighbors))}
    for i, t in profile.reports.items():
        succ[i] = tuple(sorted(j for j in t.neighbors if j != SPONSOR))
    graph = InducedGraph(succ, frozenset())
    return InducedGraph(succ, graph.reachable_from(SPONSOR))


# --- JSON network format ------------------------------------------------
#
# {"sponsor_neighbors": ["A", "B"],
#  "agents": [{"id": "A", "value": "3.5", "neighbors": ["C"]}, ...]}
#
# Values are decimal strings so that files round-trip exactly.


def profile_from_dict(data: dict) -> ReportProfile:
    if not isinstance(data, dict):
        raise ProfileError("network file must contain a JSON object")
    try:
        sponsor_neighbors = data["sponsor_neighbors"]
        agents = data["agents"]
    except KeyError as e:
        raise ProfileError(f"missing field: {e}") from None
    if not isinstance(agents, list):
        raise ProfileError("agents must be a list of agent entries")
    reports = {}
    for entry in agents:
        try:
            agent_id = entry["id"]
            raw_value = entry["value"]
            neighbors = entry.get("neighbors", [])
        except (KeyError, TypeError) as e:
            raise ProfileError(f"malformed agent entry {entry!r}: {e}") from None
        if not isinstance(agent_id, str):
            raise ProfileError(f"agent id {agent_id!r} must be a string")
        if not isinstance(raw_value, str):
            raise ProfileError(f"agent {agent_id!r}: value must be a decimal string")
        try:
            value = Fraction(raw_value)
        except (ValueError, ZeroDivisionError):
            raise ProfileError(f"agent {agent_id!r}: bad value {raw_value!r}") from None
        if agent_id in reports:
            raise ProfileError(f"duplicate agent id {agent_id!r}")
        neighbors = _id_set(neighbors, f"agent {agent_id!r}: neighbors")
        reports[agent_id] = AgentType(value, neighbors)
    return ReportProfile(_id_set(sponsor_neighbors, "sponsor_neighbors"), reports)


def _id_set(raw, what: str) -> frozenset[str]:
    if not isinstance(raw, list) or not all(isinstance(j, str) for j in raw):
        raise ProfileError(f"{what} must be a list of string ids")
    return frozenset(raw)


def profile_to_dict(profile: ReportProfile) -> dict:
    return {
        "sponsor_neighbors": sorted(profile.sponsor_neighbors),
        "agents": [
            {
                "id": i,
                "value": exact_decimal_str(profile.reports[i].value),
                "neighbors": sorted(profile.reports[i].neighbors),
            }
            for i in profile.agents
        ],
    }


def load_profile(path) -> ReportProfile:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise ProfileError(f"{path}: invalid JSON ({e})") from None
    try:
        return profile_from_dict(data)
    except ProfileError as e:
        raise ProfileError(f"{path}: {e}") from None


def save_profile(profile: ReportProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)
        fh.write("\n")
