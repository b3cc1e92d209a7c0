"""Work pins and outcome checks on the named hard families.

A work pin counts what machine speed cannot move: the line events
``sys.settrace`` sees inside ``critical_tree.py`` while one call runs.
Doubling ``n`` should at most about double a near-linear pass.
"""

import random
import sys
from fractions import Fraction

import pytest

from netredist.auctions import MechanismId
from netredist.critical_tree import immediate_dominators
from netredist.profiles import SPONSOR, induce_graph
from netredist.prst import SharingParams
from netredist.redistribution import cavallo, run_nrmf

from families import FAMILIES
from oracles import cavallo_rerun_oracle, nrmf_rerun_oracle

HALF = SharingParams.of(Fraction(1, 2))
MECHANISMS = [MechanismId.parse(m) for m in ("idm", "tnm", "vcg", "fixed:7")]


def traced_lines(run, *args) -> int:
    """The line events in ``critical_tree.py`` while ``run(*args)`` runs."""
    filename = immediate_dominators.__code__.co_filename
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename == filename else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run(*args)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("family", FAMILIES)
def test_dominator_work_at_most_about_doubles_with_n(family):
    work = []
    for n in (200, 400):
        successors = induce_graph(FAMILIES[family](n, random.Random(n))).successors
        work.append(traced_lines(immediate_dominators, successors, SPONSOR))
    assert work[1] <= 2.2 * work[0], work


@pytest.mark.parametrize("family", FAMILIES)
def test_outcomes_match_the_rerun_oracles(family):
    for n in (5, 12, 30):
        # values up to 3 make ties common, up to 20 rare
        for seed, value_max in enumerate((3, 20, 20)):
            profile = FAMILIES[family](n, random.Random(seed), value_max)
            for mech in MECHANISMS:
                assert run_nrmf(mech, profile, HALF) == nrmf_rerun_oracle(mech, profile, HALF)
            assert cavallo(profile) == cavallo_rerun_oracle(profile)

