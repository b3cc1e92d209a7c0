"""
Three ways to treat the auction's revenue, side by side
=======================================================

The paper sets its redistribution framework against two baselines: the
plain diffusion auction, which keeps its whole revenue, and Cavallo's
rebates (Cavallo, AAMAS 2006), which hand every agent a share of the
second-price revenue of the market without her.  This script runs all
three on the same seeded networks, read from their canonical names the
way ``netredist experiment abb --mechanism`` reads them, and prints the
median surplus the sponsor keeps:

* ``nrmf:idm``    - the resale-chain auction with network redistribution;
* ``auction:idm`` - the same auction with nothing given back;
* ``cavallo``     - second price with Cavallo's rebates.

The networks are small and the seeds few, so the medians describe these
runs and nothing more.  Cavallo's rebates are not incentive compatible on
networks: an agent can gain by withholding an invitation.
"""

from fractions import Fraction

from netredist.generators import BRANCH_INDEPENDENT, EVENLY_GROWING, GrowthModel, abb_experiment
from netredist.render import decimal_str
from netredist.verify import parse_mechanism

SPECS = ["nrmf:idm", "auction:idm", "cavallo"]
SIZES = [20, 50]
SEEDS = range(8)
ALPHA = Fraction(1, 2)

for label, kind in (("evenly grown networks", EVENLY_GROWING),
                    ("branch-independent networks, 4 branches", BRANCH_INDEPENDENT)):
    model = GrowthModel(kind=kind)
    results = {spec: abb_experiment(parse_mechanism(spec, ALPHA, "nrmf"), model, SIZES, SEEDS)
               for spec in SPECS}
    print(f"{label}, values 0 to {model.value_max}, "
          f"seeds 0-{len(SEEDS) - 1}: median surplus")
    print("     n" + "".join(f"{spec:>14}" for spec in SPECS))
    for n in SIZES:
        medians = (decimal_str(results[spec].median_surplus(n), 4) for spec in SPECS)
        print(f"  {n:4}" + "".join(f"{m:>14}" for m in medians))
    print()

print("measured on these seeds only; see README for the medians at n = 50, 200 "
      "and 1000 over 20 seeds.")
