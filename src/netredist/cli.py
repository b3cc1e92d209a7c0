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
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from netredist.auctions import MechanismError, market, utility
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
    MAX_EXPONENT,
    ProfileError,
    _cut,
    _echo,
    load_profile,
    parse_value,
    profile_to_dict,
)
from netredist.prst import SharingError, SharingParams, prst, shares
from netredist.redistribution import run_nrmf
from netredist.render import DEFAULT_PRECISION, decimal_str, fraction_str
from netredist.verify import (
    check_ic,
    check_ir,
    check_nd,
    check_revenue_invariant,
    check_revenue_monotonic,
    leaf_extension_pairs,
    parse_mechanism,
    shrink_pairs,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_INPUT_ERROR = 2

#: ``--model`` choice -> generator growth kind.
GROWTH_KINDS = {"evenly": EVENLY_GROWING, "branch-independent": BRANCH_INDEPENDENT}

#: ``verify --property`` choice -> audit of a mechanism over the instances.
#: Each ``check_*`` is looked up in this module when the audit runs, so
#: rebinding the module attribute reaches it.
AUDITS = {
    "ir": lambda mechanism, instances: check_ir(mechanism, instances),
    "ic": lambda mechanism, instances: check_ic(mechanism, instances),
    "nd": lambda mechanism, instances: check_nd(mechanism, instances),
    "rev-mono": lambda mechanism, instances: check_revenue_monotonic(
        mechanism, [p for profile in instances for p in shrink_pairs(profile)]),
    "rev-inv": lambda mechanism, instances: check_revenue_invariant(
        mechanism, [p for profile in instances
                    for p in leaf_extension_pairs(profile, Fraction(0))]),
}


#: ``--mechanism``'s help; the bare form differs between subcommands.
MECHANISM_HELP = ("cavallo | auction:<kind> | nrmf:<kind>, <kind> = vcg | idm | tnm | "
                  "fixed:<price>; a bare <kind> is {}:<kind>")

#: A quoted value in an argparse message, or a bare word.
_WORD = re.compile(r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*"|\S+""")


class _Parser(argparse.ArgumentParser):
    """argparse whose error messages echo a long value in part, as
    ``profiles._cut`` cuts it; subparsers are built from this class too."""

    def error(self, message):
        super().error(_WORD.sub(lambda word: _cut(word[0]), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    run_p.add_argument("--mechanism", default="idm", help=MECHANISM_HELP.format("nrmf"))
    run_p.add_argument("--true-values",
                       help="network JSON with private types, for utilities")

    ver_p = sub.add_parser("verify", help="audit a mechanism property")
    ver_p.add_argument("--property", required=True, choices=tuple(AUDITS))
    ver_p.add_argument("--mechanism", required=True,
                       help=MECHANISM_HELP.format("auction"))
    ver_p.add_argument("--instances", required=True,
                       help="directory of network JSON files")

    growth = argparse.ArgumentParser(add_help=False)
    growth.add_argument("--model", choices=tuple(GROWTH_KINDS), default="evenly")
    growth.add_argument("--branches", type=int, default=4,
                        help="initial sponsor branches; only the "
                             "branch-independent model uses them")
    growth.add_argument("--vmax", type=int, default=100)

    gen_p = sub.add_parser("generate", parents=[growth],
                           help="generate a random network")
    gen_p.add_argument("--n", type=int, required=True)

    exp_p = sub.add_parser("experiment", help="run a sweep")
    exp_sub = exp_p.add_subparsers(dest="experiment", required=True)
    abb_p = exp_sub.add_parser("abb", parents=[growth],
                               help="surplus convergence sweep")
    abb_p.add_argument("--mechanism", default="idm", help=MECHANISM_HELP.format("nrmf"))
    abb_p.add_argument("--sizes", default="50,200,1000",
                       help="comma-separated network sizes")
    abb_p.add_argument("--num-seeds", type=int, default=20)
    bb_p = exp_sub.add_parser("bb", parents=[growth],
                              help="fixed-price budget-balance sweep")
    bb_p.add_argument("--price", required=True)
    bb_p.add_argument("--sizes", default="30", help="comma-separated sizes")
    bb_p.add_argument("--num-seeds", type=int, default=50)

    tree_p = sub.add_parser("tree", help="print the critical tree")
    tree_p.add_argument("network")

    shares_p = sub.add_parser("shares", help="print the reward sharing vector")
    shares_p.add_argument("network")
    shares_p.add_argument("--reward", default="1")

    return parser


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        alpha = _rational("--alpha", args.alpha)
        if args.precision < 0:
            raise GenerationError(f"--precision must be >= 0, got {args.precision}")
        if args.precision > MAX_EXPONENT:  # rendering time and memory grow with it
            raise GenerationError(
                f"--precision must be <= {MAX_EXPONENT}, got {args.precision}")
        SharingParams(alpha)  # every subcommand rejects an alpha outside (0, 1)
        return COMMANDS[args.command](args, alpha)
    except (ProfileError, MechanismError, SharingError, GenerationError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def _rational(flag: str, text: str) -> Fraction:
    """The exact value of a rational flag; a bad one is an input error."""
    try:
        return parse_value(text)
    except (ValueError, ZeroDivisionError):
        raise GenerationError(f"bad {flag} {_echo(text)}") from None


def _growth_model(args) -> GrowthModel:
    return GrowthModel(kind=GROWTH_KINDS[args.model], initial_branches=args.branches,
                       value_max=args.vmax, seed=args.seed)


#: Kinds of a row's column: an agent id, which JSON escapes; an int; and
#: text JSON writes as it is, between quotes (``decimal_str`` and
#: ``fraction_str`` output is digits, signs, points and slashes).
ID, INT, PLAIN = "id", "int", "plain"

#: Each kind's field in a row's JSON template.
JSON_SPECS = {ID: "%s", INT: "%d", PLAIN: '"%s"'}


@dataclass(frozen=True)
class Rows:
    """The rows of one result: ``columns`` are (name, kind) pairs, fixed
    once by the rows' builder, and each of ``values`` is one row's values
    in column order.  JSON writes the rows as records; CSV and the text
    table write them as they are."""

    columns: tuple[tuple[str, str], ...]
    values: list[tuple]

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.columns]


RUN_COLUMNS = (("agent", ID), ("allocation", INT), ("auction_payment", PLAIN),
               ("redistribution", PLAIN), ("final_payment", PLAIN), ("utility", PLAIN))
TREE_COLUMNS = (("agent", ID), ("parent", ID), ("branch", ID), ("subtree_size", INT))
SHARES_COLUMNS = (("agent", ID), ("omega", PLAIN), ("share", PLAIN))
EXPERIMENT_COLUMNS = (("n", INT), ("seed", INT), ("surplus", PLAIN),
                      ("max_branch_fraction", PLAIN), ("branch_count", INT))


def _emit(args, data: dict, rows: Rows) -> None:
    """Emit one result as JSON (structured), CSV or a text table (rows)."""
    if args.output == "json":
        print(_json_text(data))
    elif args.output == "csv":
        if rows.values:
            buf = io.StringIO()
            writer = csv.writer(buf)
            writer.writerow(rows.names)
            writer.writerows(rows.values)
            sys.stdout.write(buf.getvalue())
    else:
        if not rows.values:
            return
        headers = rows.names
        widths = [
            max(len(h), *(len(str(r[k])) for r in rows.values))
            for k, h in enumerate(headers)
        ]
        print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        for r in rows.values:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, nested at ``indent``,
    where ``Rows`` stand for the list of their records.

    With ``indent=2`` the ``json`` module falls back to its pure-Python
    encoder, which is slow on long lists.  So strings, dicts with str keys,
    lists and rows are written here, every row from one template, and every
    other value by ``json.dumps``.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if kind is dict and obj and all(type(k) is str for k in obj):
        items = [f"{encode_basestring_ascii(k)}: {_json_text(obj[k], inner)}"
                 for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is Rows:
        items = _json_rows(obj, inner)
    elif kind is list:
        items = [_json_text(v, inner) for v in obj]
    else:
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", indent)
    if not items:
        return "[]"
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _json_rows(rows: Rows, indent: str) -> list[str]:
    """The JSON text of each row, a record nested at ``indent``, from one
    ``%`` template with a field per column in key order, the row's values
    read column by column: ids escaped, ints and plain text as they are."""
    inner = indent + "  "
    fields, columns = [], []
    for k in sorted(range(len(rows.columns)), key=rows.columns.__getitem__):
        name, kind = rows.columns[k]
        column = map(itemgetter(k), rows.values)
        columns.append(map(encode_basestring_ascii, column) if kind == ID else column)
        fields.append(f"{inner}{encode_basestring_ascii(name)}: ".replace("%", "%%")
                      + JSON_SPECS[kind])
    template = "{" + ",".join(fields) + indent + "}"
    return list(map(template.__mod__, zip(*columns)))


def _run_rows(outcome, truth, digits: int) -> Rows:
    """One row per agent of the outcome's profile, amounts rendered at
    ``digits``, utilities at the values in ``truth``."""
    zero = decimal_str(Fraction(0), digits)
    values = []
    for i in outcome.profile.agents:
        allocated = outcome.allocation[i]
        paid = outcome.auction_payment[i]
        rebate = outcome.redistribution[i]
        if allocated or paid:
            final = outcome.final_payment[i]
            values.append((
                i, allocated, decimal_str(paid, digits), decimal_str(rebate, digits),
                decimal_str(final, digits),
                decimal_str(utility(allocated, truth.value_of(i), final), digits)))
            continue
        # With nothing won and nothing paid at auction, the final payment is
        # -rebate and the utility +rebate at any value.  A rebate is never
        # negative and rounding keeps the sign, so a nonzero rebate's final
        # payment renders as the rebate with a minus sign.
        given = decimal_str(rebate, digits) if rebate else zero
        taken = "-" + given if rebate else zero
        values.append((i, allocated, zero, given, taken, given))
    return Rows(RUN_COLUMNS, values)


def _cmd_run(args, alpha: Fraction) -> int:
    # a bad spec fails before any read; NRMF runs cli.run_nrmf, which tests rebind
    _, mechanism = parse_mechanism(args.mechanism, alpha, "nrmf", run_nrmf)
    profile = load_profile(args.network)
    truth = profile
    if args.true_values:
        truth = load_profile(args.true_values)
        missing = profile.reports.keys() - truth.reports.keys()
        unknown = truth.reports.keys() - profile.reports.keys()
        if missing or unknown:
            raise ProfileError(
                f"{args.true_values}: agents differ from the network's "
                f"({len(missing)} missing, {len(unknown)} unknown)")
    outcome = mechanism(profile)
    rows = _run_rows(outcome, truth, args.precision)
    data = {
        "mechanism": args.mechanism,
        "alpha": fraction_str(alpha),
        "winner": outcome.winner,
        "surplus": decimal_str(outcome.surplus, args.precision),
        "surplus_exact": fraction_str(outcome.surplus),
        "branch_revenues": {
            root: fraction_str(outcome.branch_revenues[root])
            for root in outcome.branch_roots
        },
        "agents": rows,
    }
    _emit(args, data, rows)
    if args.output == "table":
        print(f"winner: {outcome.winner}  surplus: {data['surplus']}")
    return EXIT_OK


def _cmd_verify(args, alpha: Fraction) -> int:
    # a bad mechanism is rejected before the instances are listed or read
    name, mechanism = parse_mechanism(args.mechanism, alpha, "auction")
    paths = sorted(
        os.path.join(args.instances, f)
        for f in os.listdir(args.instances)
        if f.endswith(".json")
    )
    if not paths:
        raise ProfileError(f"no .json instances in {args.instances}")
    instances = [load_profile(p) for p in paths]
    report = AUDITS[args.property](mechanism, instances)
    print(_json_text(dict(report.to_dict(), mechanism=name, alpha=fraction_str(alpha))))
    return EXIT_OK if report.verdict else EXIT_PROPERTY_FAILURE


def _cmd_generate(args, alpha: Fraction) -> int:
    profile = generate(_growth_model(args), args.n)
    print(json.dumps(profile_to_dict(profile), indent=2))
    return EXIT_OK


def _parse_sizes(text: str) -> list[int]:
    try:
        sizes = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise GenerationError(f"bad --sizes {_echo(text)}") from None
    if not sizes:
        raise GenerationError(f"--sizes {_echo(text)} names no size")
    return sizes


def _experiment_rows(result, digits: int) -> Rows:
    return Rows(EXPERIMENT_COLUMNS, [
        (r.n, r.seed, decimal_str(r.surplus, digits),
         decimal_str(r.max_branch_fraction, digits), r.branch_count)
        for r in result.records
    ])


def _cmd_experiment(args, alpha: Fraction) -> int:
    sizes = _parse_sizes(args.sizes)
    if args.num_seeds < 1:
        raise GenerationError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    seeds = [args.seed + k for k in range(args.num_seeds)]
    model = _growth_model(args)
    if args.experiment == "abb":
        name, mechanism = parse_mechanism(args.mechanism, alpha, "nrmf", run_nrmf)
        result = abb_experiment(mechanism, model, sizes, seeds)
        data = dict(result.to_dict(), mechanism=name)
    else:
        price = _rational("--price", args.price)
        result, summary = bb_experiment(price, model, sizes, seeds, alpha)
        data = dict(result.to_dict(), summary=summary, mechanism=f"nrmf:fixed:{price}")
    data["alpha"] = fraction_str(alpha)
    rows = _experiment_rows(result, args.precision)
    _emit(args, data, rows)
    if args.output == "table":
        for n in result.sizes():
            print(f"n={n}: median surplus "
                  f"{decimal_str(result.median_surplus(n), args.precision)}")
    return EXIT_OK


def _cmd_tree(args, alpha: Fraction) -> int:
    tree = market(load_profile(args.network)).tree
    parent, roots, branch_of, size = tree.parent, tree.root_branches, tree.branch_of, tree.size
    rows = Rows(TREE_COLUMNS, [(i, parent[i], roots[branch_of[i]], size[i] - 1)
                               for i in tree.agents])
    data = {
        "root_branches": list(tree.root_branches),
        "parents": dict(tree.parent),
    }
    _emit(args, data, rows)
    return EXIT_OK


def _cmd_shares(args, alpha: Fraction) -> int:
    reward = _rational("--reward", args.reward)
    tree = market(load_profile(args.network)).tree
    omega = prst(tree, SharingParams(alpha, reward)).omega
    share = shares(omega, reward)
    rows = Rows(SHARES_COLUMNS, [
        (i, fraction_str(omega[i]), decimal_str(share[i], args.precision))
        for i in tree.agents
    ])
    data = {
        "alpha": fraction_str(alpha),
        "reward": fraction_str(reward),
        "total": fraction_str(sum(share.values(), Fraction(0))),
        "shares": rows,
    }
    _emit(args, data, rows)
    return EXIT_OK


#: Subcommand -> handler; every handler takes the parsed flags and alpha.
COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "generate": _cmd_generate,
    "experiment": _cmd_experiment,
    "tree": _cmd_tree,
    "shares": _cmd_shares,
}

PARSER = build_parser()


if __name__ == "__main__":
    raise SystemExit(main())
