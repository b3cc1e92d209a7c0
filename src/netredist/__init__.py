"""Revenue redistribution for auctions on social networks.

The package wraps single-item auctions that run over an invitation graph:
agents report a valuation and the set of neighbours they invite, only agents
reachable from the sponsor participate, and the auction revenue is shared
back to participants through the invitation structure.  All money amounts
are exact rationals; floating point never enters a mechanism.
"""

from netredist.profiles import (
    SPONSOR,
    AgentType,
    InducedGraph,
    ProfileError,
    ReportProfile,
    induce_graph,
)
from netredist.critical_tree import CriticalTree, critical_tree
from netredist.prst import SharingParams, ShareVector, prst, share_totals
from netredist.auctions import (
    MechanismId,
    Outcome,
    fixed_price,
    idm,
    run_auction,
    tnm,
    vcg,
)
from netredist.redistribution import (
    cavallo,
    check_cavallo_equivalence,
    run_nrmf,
)

__all__ = [
    "SPONSOR",
    "AgentType",
    "CriticalTree",
    "InducedGraph",
    "MechanismId",
    "Outcome",
    "ProfileError",
    "ReportProfile",
    "SharingParams",
    "ShareVector",
    "cavallo",
    "check_cavallo_equivalence",
    "critical_tree",
    "fixed_price",
    "idm",
    "induce_graph",
    "prst",
    "run_auction",
    "run_nrmf",
    "share_totals",
    "tnm",
    "vcg",
]
