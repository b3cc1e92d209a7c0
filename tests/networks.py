"""Shared reference networks used across the test suite.

The named constructors return small hand-checked profiles; the quantities
asserted about them in the tests were verified by hand or against the
brute-force oracles in ``oracles.py``.
"""

from __future__ import annotations

from fractions import Fraction

from netredist.profiles import AgentType, ReportProfile, make_profile


def T(value, neighbors=()) -> AgentType:
    return AgentType(Fraction(value), frozenset(neighbors))


def star_profile(values) -> ReportProfile:
    """All agents directly adjacent to the sponsor, no further invitations."""
    reports = {i: T(v) for i, v in values.items()}
    return ReportProfile(frozenset(reports), reports)


def misreport_network() -> ReportProfile:
    """Nine agents; E, H and I are reachable only through B's invitation."""
    return make_profile(
        ["A", "B"],
        {
            "A": T(1, ["C"]),
            "B": T(5, ["D", "E"]),
            "C": T(2, ["F"]),
            "D": T(3, ["G"]),
            "E": T(4, ["H", "I"]),
            "F": T(6),
            "G": T(2),
            "H": T(1),
            "I": T(3),
        },
    )


def misreport_deviation() -> ReportProfile:
    """Same network after B drops E from her invitation list."""
    return misreport_network().replace("B", T(5, ["D"]))


def reach_diamond() -> ReportProfile:
    """H is reachable through both C and D, so her nearest cut point is A."""
    return make_profile(
        ["A", "B"],
        {
            "A": T(3, ["C", "D"]),
            "B": T(1),
            "C": T(2, ["H"]),
            "D": T(4, ["H"]),
            "H": T(5, ["J"]),
            "J": T(1),
        },
    )


def bidder_star() -> ReportProfile:
    """Three direct bidders with values 2, 3, 4."""
    return star_profile({"A": 2, "B": 3, "C": 4})


def star_with_tail() -> ReportProfile:
    """The same three bidders, plus a low bidder D invited by C."""
    return make_profile(
        ["A", "B", "C"],
        {
            "A": T(2),
            "B": T(3),
            "C": T(4, ["D"]),
            "D": T(1),
        },
    )


def share_tree_18() -> ReportProfile:
    """18-agent invitation tree with hand-checked sharing coefficients.

    Branch A has 5 descendants; A's child B has 2.  The remaining 12
    agents hang off two other branches, whose shape does not affect the
    coefficients of A and B.
    """
    reports = {
        "A": T(1, ["B", "Ac", "Ad"]),
        "B": T(1, ["Ba", "Bb"]),
        "Ac": T(1),
        "Ad": T(1),
        "Ba": T(1),
        "Bb": T(1),
        "P": T(1, [f"P{k}" for k in range(10)]),
        "Q": T(1),
    }
    reports.update({f"P{k}": T(1) for k in range(10)})
    return make_profile(["A", "P", "Q"], reports)


def reference_network_10() -> ReportProfile:
    """Ten-agent network behind the worked auction examples.

    Critical chain of the top bidder J is s -> A -> H -> J.  Key
    quantities (all hand-checked): the best bid without A's branch is 9,
    without H's line 10, without J 13; blocking branch A leaves a
    two-bidder market with revenue 7.
    """
    return make_profile(
        ["A", "M", "N"],
        {
            "A": T(8, ["H", "G", "E", "F"]),
            "H": T(11, ["J", "K"]),
            "J": T(14),
            "K": T(13, ["L"]),
            "L": T(3),
            "G": T(10),
            "E": T(2),
            "F": T(1),
            "M": T(9),
            "N": T(7),
        },
    )


def chain(values) -> ReportProfile:
    """A single invitation chain s -> c0 -> c1 -> ... with given values."""
    ids = [f"c{k}" for k in range(len(values))]
    reports = {}
    for k, i in enumerate(ids):
        nbrs = [ids[k + 1]] if k + 1 < len(ids) else []
        reports[i] = T(values[k], nbrs)
    return make_profile(ids[:1], reports)


def cross_invited() -> ReportProfile:
    """R is invited by A and B, not by the sponsor, so it roots its own
    branch; with A silenced it hangs under B, with B silenced under A."""
    return make_profile(
        ["A", "B", "C"],
        {
            "A": T(1, ["R"]),
            "B": T(5, ["R"]),
            "C": T(3),
            "R": T(2, ["Rc"]),
            "Rc": T(10),
        },
    )


def nearest_cut() -> ReportProfile:
    """R is invited by B and, along A -> X -> Y, by Y.  With B silenced R
    keeps one path, cut at A, X and Y, and hangs under the nearest, Y."""
    return make_profile(
        ["A", "B"],
        {
            "A": T(1, ["X"]),
            "B": T(2, ["X", "R"]),
            "X": T(3, ["Y"]),
            "Y": T(4, ["R"]),
            "R": T(9, ["Rc"]),
            "Rc": T(5),
        },
    )


def unreached() -> ReportProfile:
    """The sponsor invites nobody: A invites B, but no agent takes part, so
    every auction sells nothing."""
    return make_profile([], {"A": T(5, ["B"]), "B": T(3)})


def leaf_named_taken() -> ReportProfile:
    """A already invites an agent named ``zz_A_0``, the id the first leaf
    added to A would take, so the leaf added to A is ``zz_A_1``."""
    return make_profile(["A"], {"A": T(3, ["zz_A_0"]), "zz_A_0": T(7)})
