"""Command-line front end.

Subcommands: ``run`` (auction + redistribution on a network file),
``verify`` (property audits over an instance directory), ``generate``
(random network), ``experiment abb`` / ``experiment bb`` (convergence and
budget-balance sweeps), ``tree`` (critical tree) and ``shares`` (reward
sharing vector).  Exit codes: 0 success, 1 a property audit failed,
2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from netredist.auctions import MechanismError, MechanismId
from netredist.critical_tree import critical_tree
from netredist.generators import (
    BRANCH_INDEPENDENT,
    EVENLY_GROWING,
    GenerationError,
    GrowthModel,
    abb_experiment,
    bb_experiment,
    generate,
)
from netredist.profiles import (
    ProfileError,
    induce_graph,
    load_profile,
    profile_to_dict,
)
from netredist.prst import SharingError, SharingParams, prst, share_totals
from netredist.redistribution import cavallo, run_nrmf
from netredist.render import DEFAULT_PRECISION, decimal_str
from netredist.verify import (
    auction_mechanism,
    cavallo_mechanism,
    check_ic,
    check_ir,
    check_nd,
    check_revenue_invariant,
    check_revenue_monotonic,
    leaf_extension_pairs,
    nrmf_mechanism,
    shrink_pairs,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netredist",
        description="Auctions on invitation networks with revenue redistribution.",
    )
    parser.add_argument("--alpha", default="1/2",
                        help="sharing split in (0,1), e.g. 1/2 or 0.8")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--precision", type=int, default=DEFAULT_PRECISION,
                        help="decimal digits in rendered output")
    parser.add_argument("--output", choices=("json", "csv", "table"),
                        default="table")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a mechanism with redistribution")
    run_p.add_argument("network", help="network JSON file")
    run_p.add_argument("--mechanism", default="idm",
                       help="vcg | idm | tnm | fixed:<price> | cavallo")
    run_p.add_argument("--true-values",
                       help="network JSON with private types, for utilities")

    ver_p = sub.add_parser("verify", help="audit a mechanism property")
    ver_p.add_argument("--property", required=True,
                       choices=("ir", "ic", "nd", "rev-mono", "rev-inv"))
    ver_p.add_argument("--mechanism", required=True,
                       help="vcg | idm | tnm | fixed:<price> | cavallo | nrmf:<inner>")
    ver_p.add_argument("--instances", required=True,
                       help="directory of network JSON files")

    gen_p = sub.add_parser("generate", help="generate a random network")
    gen_p.add_argument("--model", choices=("evenly", "branch-independent"),
                       default="evenly")
    gen_p.add_argument("--n", type=int, required=True)
    gen_p.add_argument("--branches", type=int, default=4)
    gen_p.add_argument("--vmax", type=int, default=100)

    exp_p = sub.add_parser("experiment", help="run a sweep")
    exp_sub = exp_p.add_subparsers(dest="experiment", required=True)
    abb_p = exp_sub.add_parser("abb", help="surplus convergence sweep")
    abb_p.add_argument("--mechanism", default="idm", help="idm | tnm")
    abb_p.add_argument("--model", choices=("evenly", "branch-independent"),
                       default="evenly")
    abb_p.add_argument("--branches", type=int, default=4)
    abb_p.add_argument("--vmax", type=int, default=100)
    abb_p.add_argument("--sizes", default="50,200,1000",
                       help="comma-separated network sizes")
    abb_p.add_argument("--num-seeds", type=int, default=20)
    bb_p = exp_sub.add_parser("bb", help="fixed-price budget-balance sweep")
    bb_p.add_argument("--price", required=True)
    bb_p.add_argument("--model", choices=("evenly", "branch-independent"),
                      default="evenly")
    bb_p.add_argument("--branches", type=int, default=4)
    bb_p.add_argument("--vmax", type=int, default=100)
    bb_p.add_argument("--sizes", default="30", help="comma-separated sizes")
    bb_p.add_argument("--num-seeds", type=int, default=50)

    tree_p = sub.add_parser("tree", help="print the critical tree")
    tree_p.add_argument("network")

    shares_p = sub.add_parser("shares", help="print the reward sharing vector")
    shares_p.add_argument("network")
    shares_p.add_argument("--reward", default="1")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError):
        print(f"error: bad --alpha {args.alpha!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        if args.command == "run":
            return _cmd_run(args, alpha)
        if args.command == "verify":
            return _cmd_verify(args, alpha)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "experiment":
            return _cmd_experiment(args, alpha)
        if args.command == "tree":
            return _cmd_tree(args)
        if args.command == "shares":
            return _cmd_shares(args, alpha)
        raise AssertionError(args.command)
    except (ProfileError, MechanismError, SharingError, GenerationError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _growth_model(args) -> GrowthModel:
    kind = EVENLY_GROWING if args.model == "evenly" else BRANCH_INDEPENDENT
    return GrowthModel(kind=kind, initial_branches=args.branches,
                       value_max=args.vmax, seed=args.seed)


def _emit(args, data: dict, rows: list[dict]) -> None:
    """Emit one result as JSON (structured), CSV or a text table (rows)."""
    if args.output == "json":
        print(json.dumps(data, indent=2, sort_keys=True))
    elif args.output == "csv":
        if rows:
            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
            sys.stdout.write(buf.getvalue())
    else:
        if not rows:
            return
        headers = list(rows[0])
        widths = [
            max(len(h), *(len(str(r[h])) for r in rows)) for h in headers
        ]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in rows:
            print("  ".join(str(r[h]).ljust(w) for h, w in zip(headers, widths)))


def _cmd_run(args, alpha: Fraction) -> int:
    profile = load_profile(args.network)
    true_values = None
    if args.true_values:
        truth = load_profile(args.true_values)
        true_values = {i: truth.value_of(i) for i in truth.agents}
    if args.mechanism == "cavallo":
        outcome = cavallo(profile, true_values)
    else:
        mech = MechanismId.parse(args.mechanism)
        outcome = run_nrmf(mech, profile, SharingParams(alpha), true_values)
    digits = args.precision
    rows = [
        {
            "agent": i,
            "allocation": outcome.allocation[i],
            "auction_payment": decimal_str(outcome.auction_payment[i], digits),
            "redistribution": decimal_str(outcome.redistribution[i], digits),
            "final_payment": decimal_str(outcome.final_payment[i], digits),
            "utility": decimal_str(outcome.utilities[i], digits),
        }
        for i in profile.agents
    ]
    data = {
        "mechanism": args.mechanism,
        "alpha": str(alpha),
        "winner": outcome.winner,
        "surplus": decimal_str(outcome.surplus, digits),
        "surplus_exact": str(outcome.surplus),
        "branch_revenues": {
            root: str(outcome.branch_revenues[root])
            for root in outcome.branch_roots
        },
        "agents": rows,
    }
    _emit(args, data, rows)
    if args.output == "table":
        print(f"winner: {outcome.winner}  "
              f"surplus: {decimal_str(outcome.surplus, digits)}")
    return EXIT_OK


def _make_audit_mechanism(spec: str, alpha: Fraction):
    if spec == "cavallo":
        return cavallo_mechanism()
    if spec.startswith("nrmf:"):
        return nrmf_mechanism(MechanismId.parse(spec[len("nrmf:"):]), alpha)
    return auction_mechanism(MechanismId.parse(spec))


def _cmd_verify(args, alpha: Fraction) -> int:
    import os

    paths = sorted(
        os.path.join(args.instances, f)
        for f in os.listdir(args.instances)
        if f.endswith(".json")
    )
    if not paths:
        print(f"error: no .json instances in {args.instances}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    instances = [load_profile(p) for p in paths]
    mechanism = _make_audit_mechanism(args.mechanism, alpha)

    if args.property == "ir":
        report = check_ir(mechanism, instances)
    elif args.property == "ic":
        report = check_ic(mechanism, instances)
    elif args.property == "nd":
        report = check_nd(mechanism, instances)
    elif args.property == "rev-mono":
        pairs = [p for profile in instances for p in shrink_pairs(profile)]
        report = check_revenue_monotonic(mechanism, pairs)
    else:
        pairs = [
            p for profile in instances
            for p in leaf_extension_pairs(profile, Fraction(0))
        ]
        report = check_revenue_invariant(mechanism, pairs)

    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK if report.verdict else EXIT_PROPERTY_FAILURE


def _cmd_generate(args) -> int:
    profile = generate(_growth_model(args), args.n)
    print(json.dumps(profile_to_dict(profile), indent=2))
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise GenerationError(f"bad --sizes {text!r}") from None


def _experiment_rows(result, digits: int) -> list[dict]:
    return [
        {
            "n": r.n,
            "seed": r.seed,
            "surplus": decimal_str(r.surplus, digits),
            "max_branch_fraction": decimal_str(r.max_branch_fraction, digits),
            "branch_count": r.branch_count,
        }
        for r in result.records
    ]


def _cmd_experiment(args, alpha: Fraction) -> int:
    sizes = _parse_sizes(args.sizes)
    seeds = [args.seed + k for k in range(args.num_seeds)]
    model = _growth_model(args)
    if args.experiment == "abb":
        mech = MechanismId.parse(args.mechanism)
        result = abb_experiment(mech, model, sizes, seeds, alpha)
        data = result.to_dict()
    else:
        try:
            price = Fraction(args.price)
        except (ValueError, ZeroDivisionError):
            raise GenerationError(f"bad --price {args.price!r}") from None
        result, summary = bb_experiment(price, model, sizes, seeds, alpha)
        data = result.to_dict()
        data["summary"] = summary
    rows = _experiment_rows(result, args.precision)
    _emit(args, data, rows)
    if args.output == "table":
        for n in result.sizes():
            print(f"n={n}: median surplus "
                  f"{decimal_str(result.median_surplus(n), args.precision)}")
    return EXIT_OK


def _cmd_tree(args) -> int:
    profile = load_profile(args.network)
    tree = critical_tree(induce_graph(profile))
    rows = [
        {
            "agent": i,
            "parent": tree.parent[i],
            "branch": tree.root_branches[tree.branch_of[i]],
            "subtree_size": tree.size[i] - 1,
        }
        for i in tree.agents
    ]
    data = {
        "root_branches": list(tree.root_branches),
        "parents": dict(tree.parent),
    }
    _emit(args, data, rows)
    return EXIT_OK


def _cmd_shares(args, alpha: Fraction) -> int:
    try:
        reward = Fraction(args.reward)
    except (ValueError, ZeroDivisionError):
        print(f"error: bad --reward {args.reward!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    profile = load_profile(args.network)
    tree = critical_tree(induce_graph(profile))
    shares = prst(tree, SharingParams(alpha, reward))
    rows = [
        {
            "agent": i,
            "omega": str(shares.omega[i]),
            "share": decimal_str(shares.share[i], args.precision),
        }
        for i in tree.agents
    ]
    data = {
        "alpha": str(alpha),
        "reward": str(reward),
        "total": str(share_totals(shares)),
        "shares": rows,
    }
    _emit(args, data, rows)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
