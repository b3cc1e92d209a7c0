"""One outcome contract for every mechanism entry point, plain auctions
included, and no class of the package outliving a fresh import of it."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from netredist.auctions import (
    MechanismId,
    Outcome,
    fixed_price,
    idm,
    run_auction,
    tnm,
    vcg,
)
from netredist.profiles import ReportProfile
from netredist.prst import SharingParams
from netredist.redistribution import cavallo, run_nrmf
from netredist.verify import auction_mechanism, cavallo_mechanism, nrmf_mechanism

from networks import T, bidder_star, reference_network_10
from oracles import exact

ZERO = Fraction(0)
HALF = SharingParams.of(Fraction(1, 2))
IDS = ("vcg", "idm", "tnm", "fixed:3")

#: (name, entry point, whether it is a plain auction)
ENTRY_POINTS = [
    *((f"run_auction:{m}", lambda p, m=m: run_auction(MechanismId.parse(m), p), True)
      for m in IDS),
    ("vcg", vcg, True),
    ("idm", idm, True),
    ("tnm", tnm, True),
    ("fixed_price:3", lambda p: fixed_price(p, Fraction(3)), True),
    *((f"run_nrmf:{m}", lambda p, m=m: run_nrmf(MechanismId.parse(m), p, HALF), False)
      for m in IDS),
    ("cavallo", cavallo, False),
    ("verify.auction_mechanism:idm", auction_mechanism(MechanismId("idm")), True),
    ("verify.nrmf_mechanism:tnm", nrmf_mechanism(MechanismId("tnm"), Fraction(1, 2)), False),
    ("verify.cavallo_mechanism", cavallo_mechanism(), False),
]


def unreachable_only():
    """Two agents, neither invited by the sponsor."""
    return ReportProfile(frozenset(), {"A": T(3, ["B"]), "B": T(5)})


PROFILES = {"reference": reference_network_10, "bidder_star": bidder_star,
            "unreachable_only": unreachable_only}


@pytest.mark.parametrize("profile_name", list(PROFILES))
@pytest.mark.parametrize("name, run, plain", ENTRY_POINTS,
                         ids=[name for name, _, _ in ENTRY_POINTS])
def test_every_entry_point_returns_one_outcome_type(name, run, plain, profile_name):
    profile = PROFILES[profile_name]()
    outcome = run(profile)
    assert type(outcome) is Outcome
    assert outcome.profile is profile
    maps = (outcome.allocation, outcome.auction_payment, outcome.redistribution,
            outcome.final_payment)
    assert all(tuple(m) == profile.agents for m in maps)
    for i in profile.agents:
        expected = outcome.auction_payment[i] - outcome.redistribution[i]
        assert exact(outcome.final_payment[i]) == exact(expected)
    assert exact(outcome.surplus) == exact(sum(outcome.final_payment.values(), ZERO))
    if plain:
        assert all(exact(r) == exact(ZERO) for r in outcome.redistribution.values())
        assert (outcome.branch_revenues, outcome.branch_roots) == ({}, ())
    if profile_name == "unreachable_only":  # no one to sell to: no sale
        assert (outcome.winner, exact(outcome.surplus)) == (None, exact(ZERO))
        assert all(exact(p) == exact(ZERO) for p in outcome.final_payment.values())



def test_an_outcome_shows_its_final_payments_as_a_dict():
    assert ("final_payment=FinalPayments({'A': Fraction(0, 1), 'B': Fraction(0, 1), "
            "'C': Fraction(3, 1)})") in repr(vcg(bidder_star()))

FRESH_IMPORT = """
import gc, sys, weakref
from fractions import Fraction

def first_import():
    from netredist import auctions, profiles, redistribution, verify
    from netredist.critical_tree import CriticalTree
    from netredist.prst import SharingParams
    profile = profiles.ReportProfile(frozenset({"A", "B"}), {
        "A": profiles.AgentType(Fraction(3), frozenset({"C"})),
        "B": profiles.AgentType(Fraction(2), frozenset()),
        "C": profiles.AgentType(Fraction(5), frozenset())})
    outcome = redistribution.run_nrmf(auctions.MechanismId("idm"), profile,
                                      SharingParams(Fraction(1, 2)))
    kept = {"ReportProfile": profiles.ReportProfile, "outcome class": type(outcome),
            "CriticalTree": CriticalTree, "memo tree": auctions._last_structure[1]}
    return {name: weakref.ref(obj) for name, obj in kept.items()}

refs = first_import()
for key in [k for k in sys.modules if k == "netredist" or k.startswith("netredist.")]:
    del sys.modules[key]
import netredist.verify
gc.collect()
print(sorted(name for name, ref in refs.items() if ref() is not None))
"""


def test_a_fresh_import_frees_the_old_classes_and_memo():
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", FRESH_IMPORT], capture_output=True,
                            text=True, timeout=60,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\n"
