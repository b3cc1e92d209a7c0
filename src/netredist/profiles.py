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
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Optional

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
            raise ProfileError(f"negative valuation {_echo(self.value)}")

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
                raise ProfileError(f"sponsor invites unknown agent {_echo(j)}")
        for i, t in self.reports.items():
            self._check_report(i, t)

    def _check_report(self, i: str, report: AgentType) -> None:
        """Reject ``i``'s report if she invites herself or an unknown agent."""
        if i in report.neighbors:
            raise ProfileError(f"agent {_echo(i)} lists itself as a neighbour")
        for j in report.neighbors:
            if j != SPONSOR and j not in self.reports:
                raise ProfileError(
                    f"agent {_echo(i)} references unknown agent {_echo(j)}")

    @cached_property
    def agents(self) -> tuple[str, ...]:
        """All agent ids in canonical (sorted) order, sorted once."""
        return tuple(sorted(self.reports))

    def value_of(self, i: str) -> Fraction:
        return self.reports[i].value

    def replace(self, i: str, report: AgentType) -> "ReportProfile":
        """A copy of the profile with agent ``i``'s report swapped out.  Only
        the new report is checked: the rest is valid already, and the sorted
        ids carry over."""
        if i not in self.reports:
            raise ProfileError(f"unknown agent {_echo(i)}")
        self._check_report(i, report)
        changed = object.__new__(ReportProfile)
        changed.__dict__.update(sponsor_neighbors=self.sponsor_neighbors,
                                reports={**self.reports, i: report}, agents=self.agents)
        return changed


def make_profile(sponsor_neighbors: Iterable[str],
                 reports: Mapping[str, AgentType]) -> ReportProfile:
    return ReportProfile(frozenset(sponsor_neighbors), dict(reports))


def star_profile(values: Mapping[str, object]) -> ReportProfile:
    """All agents directly adjacent to the sponsor, no further invitations."""
    reports = {i: AgentType.of(v) for i, v in values.items()}
    return ReportProfile(frozenset(reports), reports)


@dataclass(frozen=True, eq=False)
class InducedGraph:
    """The directed graph induced by a report profile.

    ``successors`` maps each vertex to its invitees in sorted order (the
    sponsor included, edges into the sponsor dropped); ``reachable`` is the
    participant set: every vertex with a directed path from the sponsor,
    found on first read.
    """

    successors: Mapping[str, tuple[str, ...]] = field(repr=False)

    @cached_property
    def reachable(self) -> frozenset[str]:
        return self.reachable_from(SPONSOR)

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
    """Build the invitation graph of a profile."""
    succ = {SPONSOR: tuple(sorted(profile.sponsor_neighbors))}
    for i, t in profile.reports.items():
        succ[i] = tuple(sorted(j for j in t.neighbors if j != SPONSOR))
    return InducedGraph(succ)


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
            raise ProfileError(f"malformed agent entry {_echo(entry)}: {e}") from None
        if not isinstance(agent_id, str):
            raise ProfileError(f"agent id {_echo(agent_id)} must be a string")
        if not isinstance(raw_value, str):
            raise ProfileError(f"agent {_echo(agent_id)}: value must be a decimal string")
        try:
            value = parse_value(raw_value)
        except (ValueError, ZeroDivisionError):
            raise ProfileError(
                f"agent {_echo(agent_id)}: bad value {_echo(raw_value)}") from None
        if agent_id in reports:
            raise ProfileError(f"duplicate agent id {_echo(agent_id)}")
        neighbors = _id_set(neighbors, agent_id)
        reports[agent_id] = AgentType(value, neighbors)
    return ReportProfile(_id_set(sponsor_neighbors), reports)


#: The most characters of an offending input that an error message echoes.
ECHO_CHARS = 80


def _echo(raw: object) -> str:
    """``repr(raw)``, cut to ``ECHO_CHARS`` characters with its full length
    appended when it is longer, so the error stays one short line."""
    text = repr(raw)
    if len(text) <= ECHO_CHARS:
        return text
    return f"{text[:ECHO_CHARS]}... ({len(text)} characters)"


def parse_value(text: str) -> Fraction:
    """``Fraction(text)``, read directly when ``text`` is a plain decimal.

    ASCII digits with at most one point become an integer over a power of
    ten, without ``Fraction``'s pattern match, however many digits they
    have, so every value ``profile_to_dict`` writes reads back.  Any other
    string goes to ``Fraction(text)``, which accepts or rejects it as it
    always has.
    """
    whole, _, frac = text.partition(".")
    digits = whole + frac
    if digits.isascii() and digits.isdigit():
        return Fraction(_long_int(digits), 10 ** len(frac))
    return Fraction(text)


def _long_int(digits: str) -> int:
    """``int(digits)`` for ASCII digits, read through ``Decimal`` when there
    are more than the interpreter converts at once (4,300 by default)."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))  # exact, and free of that limit


def _id_set(raw, agent_id: Optional[str] = None) -> frozenset[str]:
    """``raw`` as a set of ids: agent ``agent_id``'s neighbours, or the
    sponsor's when ``agent_id`` is None."""
    if not isinstance(raw, list) or not all(isinstance(j, str) for j in raw):
        owner = ("sponsor_neighbors" if agent_id is None
                 else f"agent {_echo(agent_id)}: neighbors")
        raise ProfileError(f"{owner} must be a list of string ids")
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
        except UnicodeDecodeError as e:
            raise ProfileError(f"{path}: not UTF-8 text ({e})") from None
        except ValueError as e:  # bad JSON, or an integer literal too long to read
            raise ProfileError(f"{path}: invalid JSON ({e})") from None
        except RecursionError:
            raise ProfileError(f"{path}: invalid JSON (nested too deeply)") from None
    try:
        return profile_from_dict(data)
    except ProfileError as e:
        raise ProfileError(f"{path}: {e}") from None


def save_profile(profile: ReportProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(profile_to_dict(profile), fh, indent=2)
        fh.write("\n")
