import csv
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from netredist import cli
from netredist.auctions import MechanismId
from netredist.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROPERTY_FAILURE, main
from netredist.generators import EVENLY_GROWING, GrowthModel, generate
from netredist.profiles import (
    AgentType,
    ReportProfile,
    load_profile,
    make_profile,
    profile_to_dict,
    save_profile,
    star_profile,
)
from netredist.prst import SharingParams
from netredist.redistribution import cavallo, run_nrmf

from networks import T, bidder_star, reference_network_10, star_with_tail
from oracles import (
    json_text_oracle,
    random_digraph_profile,
    run_rows_oracle,
    without_digit_limit,
)


@pytest.fixture()
def network_file(tmp_path):
    path = tmp_path / "network.json"
    save_profile(reference_network_10(), path)
    return str(path)


@pytest.fixture()
def star_file(tmp_path):
    path = tmp_path / "star.json"
    save_profile(bidder_star(), path)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_json_output(capsys, network_file):
    code, out = run_cli(capsys, "--output", "json", "run", network_file,
                        "--mechanism", "idm")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["winner"] == "J"
    assert data["surplus_exact"] == "9/5"
    assert data["branch_revenues"] == {"A": "7", "M": "7", "N": "9"}


def test_run_table_output_mentions_winner(capsys, network_file):
    code, out = run_cli(capsys, "run", network_file, "--mechanism", "tnm")
    assert code == EXIT_OK
    assert "winner: H" in out


def test_run_cavallo(capsys, star_file):
    code, out = run_cli(capsys, "--output", "json", "run", star_file,
                        "--mechanism", "cavallo")
    assert code == EXIT_OK
    data = json.loads(out)
    rows = {row["agent"]: row for row in data["agents"]}
    assert rows["A"]["redistribution"] == "1.000000"
    assert rows["B"]["redistribution"] == "0.666667"


def test_run_with_true_values(capsys, tmp_path, star_file):
    truth_path = tmp_path / "truth.json"
    save_profile(bidder_star().replace(
        "C", bidder_star().reports["C"].__class__(7, frozenset())), truth_path)
    code, out = run_cli(capsys, "--output", "json", "run", star_file,
                        "--mechanism", "vcg", "--true-values", str(truth_path))
    data = json.loads(out)
    rows = {row["agent"]: row for row in data["agents"]}
    # winner C pays 3 minus her redistribution; utility uses true value 7
    assert rows["C"]["utility"].startswith("4.")


@pytest.mark.parametrize("truth", [
    reference_network_10(),                   # not one agent in common
    star_profile({"A": 2, "B": 3}),           # C missing
    star_profile({"A": 2, "B": 3, "C": 4, "D": 1}),  # D unknown
])
def test_true_values_for_other_agents_are_a_one_line_input_error(
        capsys, tmp_path, star_file, truth):
    truth_path = tmp_path / "truth.json"
    save_profile(truth, truth_path)
    code = main(["run", star_file, "--true-values", str(truth_path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_missing_network_file_is_input_error(capsys, tmp_path):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT_ERROR


def test_bad_alpha_is_input_error(capsys, network_file):
    code = main(["--alpha", "zero", "run", network_file])
    assert code == EXIT_INPUT_ERROR


@pytest.fixture()
def unreached_file(tmp_path):
    """A network whose sponsor invites nobody, alone in its directory."""
    directory = tmp_path / "unreached"
    directory.mkdir()
    path = directory / "unreached.json"
    save_profile(ReportProfile(frozenset(), {"A": AgentType.of(5, ["B"]),
                                             "B": AgentType.of(3)}), path)
    return str(path)


def test_run_cavallo_on_an_empty_market_matches_vcg(capsys, unreached_file):
    outputs = {}
    for mechanism in ("cavallo", "vcg"):
        code = main(["--output", "json", "run", unreached_file, "--mechanism", mechanism])
        captured = capsys.readouterr()
        assert (code, captured.err) == (EXIT_OK, "")
        outputs[mechanism] = json.loads(captured.out)
    assert outputs["cavallo"].pop("mechanism") == "cavallo"
    assert outputs["vcg"].pop("mechanism") == "vcg"
    assert outputs["cavallo"] == outputs["vcg"]
    assert outputs["cavallo"]["winner"] is None
    assert outputs["cavallo"]["surplus_exact"] == "0"


@pytest.mark.parametrize("prop", ["ir", "ic", "nd"])
def test_verify_cavallo_on_an_empty_market_passes(capsys, unreached_file, prop):
    code = main(["verify", "--property", prop, "--mechanism", "cavallo",
                 "--instances", str(Path(unreached_file).parent)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    assert json.loads(captured.out)["verdict"] == "pass"


@pytest.mark.parametrize("mechanism", ["vcg", "idm", "tnm"])
@pytest.mark.parametrize("prop", ["ir", "ic", "nd"])
def test_verify_a_plain_auction_on_an_empty_market_passes(capsys, unreached_file, prop,
                                                          mechanism):
    # with no participant a plain auction sells nothing, as cavallo does
    code = main(["verify", "--property", prop, "--mechanism", mechanism,
                 "--instances", str(Path(unreached_file).parent)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (EXIT_OK, "")
    assert json.loads(captured.out)["verdict"] == "pass"


@pytest.mark.parametrize("command", [
    ["run", "{network}", "--mechanism", "cavallo"],
    ["run", "{network}", "--mechanism", "idm"],
    ["verify", "--property", "ic", "--mechanism", "vcg", "--instances", "{directory}"],
    ["verify", "--property", "ic", "--mechanism", "cavallo", "--instances", "{directory}"],
    ["generate", "--n", "5"],
    ["experiment", "abb", "--sizes", "5", "--num-seeds", "1"],
    ["tree", "{network}"],
    ["shares", "{network}"],
], ids=["run-cavallo", "run-idm", "verify-vcg", "verify-cavallo", "generate",
        "experiment", "tree", "shares"])
def test_alpha_outside_the_unit_interval_is_a_one_line_input_error(
        capsys, network_file, command):
    directory = str(Path(network_file).parent)
    argv = [arg.format(network=network_file, directory=directory) for arg in command]
    code = main(["--alpha", "2", *argv])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err == "error: alpha must lie in (0, 1), got 2\n"


def test_bad_mechanism_is_input_error(capsys, network_file):
    code = main(["run", network_file, "--mechanism", "dutch"])
    assert code == EXIT_INPUT_ERROR


def test_negative_fixed_price_says_why(capsys, network_file):
    # the same message as ``experiment bb --price -1``
    code = main(["run", network_file, "--mechanism", "fixed:-1"])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err == "error: fixed_price requires a price >= 0\n"


def test_verify_pass_exits_zero(capsys, tmp_path, network_file):
    code, out = run_cli(capsys, "verify", "--property", "ir",
                        "--mechanism", "nrmf:idm", "--instances",
                        str(tmp_path))
    assert code == EXIT_OK
    assert json.loads(out)["verdict"] == "pass"


def test_verify_failure_exits_one(capsys, tmp_path):
    save_profile(star_with_tail(), tmp_path / "star.json")
    code, out = run_cli(capsys, "verify", "--property", "ic",
                        "--mechanism", "cavallo", "--instances", str(tmp_path))
    assert code == EXIT_PROPERTY_FAILURE
    data = json.loads(out)
    assert data["verdict"] == "fail"
    assert data["witness"]["agent"] == "C"
    assert data["witness"]["gain"] == "1/6"


def test_verify_empty_directory_is_input_error(capsys, tmp_path):
    code = main(["verify", "--property", "ir", "--mechanism", "vcg",
                 "--instances", str(tmp_path)])
    assert code == EXIT_INPUT_ERROR


def test_generate_is_deterministic_and_loadable(capsys, tmp_path):
    code, first = run_cli(capsys, "--seed", "9", "generate", "--n", "25")
    assert code == EXIT_OK
    code, second = run_cli(capsys, "--seed", "9", "generate", "--n", "25")
    assert first == second  # byte-identical under identical seeds
    code, third = run_cli(capsys, "--seed", "10", "generate", "--n", "25")
    assert first != third
    from netredist.profiles import profile_from_dict
    profile = profile_from_dict(json.loads(first))
    assert len(profile.agents) == 25


def test_tree_command_lists_parents(capsys, network_file):
    code, out = run_cli(capsys, "--output", "json", "tree", network_file)
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["parents"]["J"] == "H"
    assert data["root_branches"] == ["A", "M", "N"]


def test_shares_command_reports_exact_total(capsys, network_file):
    code, out = run_cli(capsys, "--output", "json", "--alpha", "1/5",
                        "shares", network_file, "--reward", "10")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["total"] == "10"
    omega = {row["agent"]: row["omega"] for row in data["shares"]}
    assert omega["J"] == "4/125"


def test_experiment_abb_runs_small(capsys):
    code, out = run_cli(capsys, "--output", "json", "experiment", "abb",
                        "--sizes", "10,15", "--num-seeds", "3")
    assert code == EXIT_OK
    data = json.loads(out)
    assert len(data["records"]) == 6
    assert {a["n"] for a in data["aggregates"]} == {10, 15}


def test_experiment_bb_reports_summary(capsys):
    code, out = run_cli(capsys, "--output", "json", "experiment", "bb",
                        "--price", "50", "--model", "branch-independent",
                        "--sizes", "12", "--num-seeds", "4")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["summary"]["runs"] == 4


def test_experiment_bad_sizes_is_input_error(capsys):
    code = main(["experiment", "abb", "--sizes", "ten"])
    assert code == EXIT_INPUT_ERROR


def test_csv_and_json_agree_on_rendered_numbers(capsys, network_file):
    code, json_out = run_cli(capsys, "--output", "json", "run", network_file)
    code, csv_out = run_cli(capsys, "--output", "csv", "run", network_file)
    json_rows = json.loads(json_out)["agents"]
    csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert len(csv_rows) == len(json_rows)
    for json_row, csv_row in zip(json_rows, csv_rows):
        assert {k: str(v) for k, v in json_row.items()} == csv_row


def test_precision_flag_controls_rendering(capsys, network_file):
    _, out = run_cli(capsys, "--output", "json", "--precision", "2",
                     "run", network_file)
    assert json.loads(out)["surplus"] == "1.80"


def test_high_precision_renders_large_amounts_in_plain_digits(capsys, tmp_path):
    path = tmp_path / "big.json"
    save_profile(star_profile({"A": 2 * 10**10, "B": 10**10}), path)
    code, out = run_cli(capsys, "--output", "json", "--precision", "20",
                        "run", str(path), "--mechanism", "vcg")
    assert code == EXIT_OK
    data = json.loads(out)
    rows = {row["agent"]: row for row in data["agents"]}
    assert rows["A"]["auction_payment"] == "10000000000.00000000000000000000"
    assert rows["B"]["auction_payment"] == "0.00000000000000000000"
    assert Fraction(data["surplus"]) == Fraction(data["surplus_exact"])


@pytest.mark.parametrize("network", [
    {"sponsor_neighbors": ["A"], "agents": 5},
    {"sponsor_neighbors": ["B"],
     "agents": [{"id": 1, "value": "1"}, {"id": "B", "value": "2"}]},
    {"sponsor_neighbors": ["A"],
     "agents": [{"id": "A", "value": "1", "neighbors": [["B"]]},
                {"id": "B", "value": "2"}]},
    {"sponsor_neighbors": ["A"],
     "agents": [{"id": "A", "value": "1", "neighbors": "BC"},
                {"id": "B", "value": "2"}, {"id": "C", "value": "3"}]},
    {"sponsor_neighbors": "AB",
     "agents": [{"id": "A", "value": "1"}, {"id": "B", "value": "2"}]},
], ids=["agents-not-a-list", "numeric-id", "nested-neighbor", "neighbors-string",
        "sponsor-neighbors-string"])
def test_malformed_network_is_a_one_line_input_error(capsys, tmp_path, network):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(network))
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_negative_precision_is_a_one_line_input_error(capsys, network_file):
    code = main(["--precision", "-1", "run", network_file])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv,message", [
    (["--alpha", "zero", "run", "{network}"], "bad --alpha 'zero'"),
    (["--precision", "-1", "run", "{network}"], "--precision must be >= 0, got -1"),
    (["shares", "{network}", "--reward", "ten"], "bad --reward 'ten'"),
    (["experiment", "bb", "--price", "ten"], "bad --price 'ten'"),
    (["experiment", "abb", "--sizes", "ten"], "bad --sizes 'ten'"),
    (["verify", "--property", "ir", "--mechanism", "vcg", "--instances", "{empty}"],
     "no .json instances in {empty}"),
], ids=["alpha", "precision", "reward", "price", "sizes", "no-instances"])
def test_every_bad_flag_is_one_pinned_error_line(capsys, tmp_path, network_file,
                                                  argv, message):
    names = {"network": network_file, "empty": str(tmp_path / "empty")}
    (tmp_path / "empty").mkdir()
    code = main([arg.format(**names) for arg in argv])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**names)}\n"


def test_main_does_not_build_a_parser_per_call(capsys, monkeypatch, network_file):
    def refuse():
        raise AssertionError("build_parser called after import")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, out = run_cli(capsys, "tree", network_file)
    assert code == EXIT_OK
    assert out.startswith("agent")


@pytest.mark.parametrize("prop,check", [
    ("ir", "check_ir"), ("ic", "check_ic"), ("nd", "check_nd"),
    ("rev-mono", "check_revenue_monotonic"), ("rev-inv", "check_revenue_invariant"),
])
def test_verify_reads_each_check_from_the_cli_module_when_it_runs(
        capsys, monkeypatch, network_file, prop, check):
    real = getattr(cli, check)
    calls = []

    def traced(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, check, traced)
    directory = str(Path(network_file).parent)
    main(["verify", "--property", prop, "--mechanism", "vcg", "--instances", directory])
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["run", "{bad}"],
    ["run", "{network}", "--true-values", "{bad}"],
    ["verify", "--property", "ir", "--mechanism", "vcg", "--instances", "{directory}"],
], ids=["run", "run-true-values", "verify"])
def test_network_file_not_in_utf8_is_a_one_line_input_error(
        capsys, tmp_path, network_file, command):
    directory = tmp_path / "instances"
    directory.mkdir()
    bad = directory / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = [arg.format(bad=bad, network=network_file, directory=directory)
            for arg in command]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad}: not UTF-8 text")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("command", [
    ["tree", "{deep}"],
    ["run", "{deep}"],
    ["verify", "--property", "ir", "--mechanism", "vcg", "--instances", "{directory}"],
], ids=["tree", "run", "verify"])
def test_json_nested_too_deeply_is_a_one_line_input_error(capsys, tmp_path, command):
    directory = tmp_path / "instances"
    directory.mkdir()
    deep = directory / "deep.json"
    deep.write_text("[" * 1000)
    code = main([arg.format(deep=deep, directory=directory) for arg in command])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT_ERROR, "")
    assert captured.err == f"error: {deep}: invalid JSON (nested too deeply)\n"


@pytest.mark.parametrize("experiment", [["abb"], ["bb", "--price", "30"]],
                         ids=["abb", "bb"])
@pytest.mark.parametrize("sweep", [["--num-seeds", "0"], ["--num-seeds", "-2"],
                                   ["--sizes", ",,"], ["--sizes", ""]],
                         ids=["no-seeds", "negative-seeds", "only-commas", "empty"])
def test_empty_sweep_is_a_one_line_input_error(capsys, experiment, sweep):
    code = main(["experiment", *experiment, *sweep])
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# --- huge values ----------------------------------------------------------


def _same_as_unlimited(capsys, argv):
    """Run ``argv`` as is and with the digit limit lifted: (exit code, stdout)
    of the first, after checking that both runs print the same bytes."""
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (without_digit_limit(main, argv), capsys.readouterr().out) == (code, captured.out)
    return code, captured.out


@pytest.mark.parametrize("values", [("1e5000", "2", "3", "1"),
                                    ("3", "2", "1e-5000", "1e-5000"),
                                    ("2e4000", "1e4000", "1e-4000", "1e-4000")],
                         ids=["1e5000", "1e-5000", "1e4000-and-1e-4000"])
@pytest.mark.parametrize("output", ["json", "csv", "table"])
def test_values_past_the_int_text_limit_render_exactly(capsys, tmp_path, values, output):
    # next to 1e4000 and 1e-4000 no value has more than 4,001 digits, but
    # the surplus has 12,003
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "sponsor_neighbors": ["A", "B", "C"],
        "agents": [{"id": i, "value": v, "neighbors": ["D"] if i == "A" else []}
                   for i, v in zip("ABCD", values)]}))
    for mechanism in ("idm", "vcg", "fixed:1", "cavallo"):
        code, out = _same_as_unlimited(
            capsys, ["--output", output, "run", str(path), "--mechanism", mechanism])
        assert code == EXIT_OK
        if output == "json":
            assert len(json.loads(out)["agents"]) == 4


@pytest.mark.parametrize("value", ["1e5000", "1e-5000"])
@pytest.mark.parametrize("mechanism", ["nrmf:idm", "nrmf:tnm", "idm"])
def test_verify_on_values_past_the_int_text_limit(capsys, tmp_path, value, mechanism):
    directory = tmp_path / "instances"
    directory.mkdir()
    (directory / "huge.json").write_text(json.dumps({
        "sponsor_neighbors": ["A", "B"],
        "agents": [{"id": "A", "value": value, "neighbors": ["C"]},
                   {"id": "B", "value": "2"}, {"id": "C", "value": "3"}]}))
    for prop in ("ir", "ic"):
        code, out = _same_as_unlimited(capsys, [
            "verify", "--property", prop, "--mechanism", mechanism,
            "--instances", str(directory)])
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "pass"


def test_a_witness_past_the_int_text_limit_renders_exactly(capsys, tmp_path):
    # star_with_tail scaled by 10**5000: cavallo's IC witness is 10**5000 / 6
    directory = tmp_path / "instances"
    directory.mkdir()
    network = profile_to_dict(star_with_tail())
    for agent in network["agents"]:
        agent["value"] += "e5000"
    (directory / "tail.json").write_text(json.dumps(network))
    code, out = _same_as_unlimited(capsys, [
        "verify", "--property", "ic", "--mechanism", "cavallo",
        "--instances", str(directory)])
    assert code == EXIT_PROPERTY_FAILURE
    assert json.loads(out)["witness"]["gain"] == "5" + "0" * 4999 + "/3"


def test_a_profile_past_the_int_text_limit_round_trips(capsys, tmp_path):
    # star_with_tail scaled by 10**5000 is saved as plain digits past the limit
    tail = star_with_tail()
    scaled = ReportProfile(tail.sponsor_neighbors, {
        i: AgentType(t.value * 10**5000, t.neighbors) for i, t in tail.reports.items()})
    directory = tmp_path / "instances"
    directory.mkdir()
    save_profile(scaled, directory / "tail.json")
    assert load_profile(directory / "tail.json") == scaled
    code, out = _same_as_unlimited(capsys, [
        "verify", "--property", "ir", "--mechanism", "nrmf:idm",
        "--instances", str(directory)])
    assert (code, json.loads(out)["verdict"]) == (EXIT_OK, "pass")


def test_a_json_integer_past_the_int_text_limit_is_a_one_line_input_error(
        capsys, tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"sponsor_neighbors": ["A"], "agents": [{"id": "A", "value": '
                    + "1" * 5000 + "}]}")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT_ERROR, "")
    assert captured.err.startswith(f"error: {path}: invalid JSON (")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("entry,error", [
    ({"id": "A", "value": "1/" + "3" * 5000}, "agent 'A': bad value '1/333"),
    ({"id": "A", "neighbors": ["B" * 5000]}, "malformed agent entry {'id': 'A', "),
], ids=["bad-value", "malformed-entry"])
def test_a_long_bad_entry_is_echoed_in_part_on_one_line(capsys, tmp_path, entry, error):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"sponsor_neighbors": ["A"], "agents": [entry]}))
    code = main(["tree", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT_ERROR, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: {error}")
    assert len(lines[0]) < len(str(path)) + 160
    assert "characters)" in lines[0]


LONG_ID = "L" * 5000


@pytest.mark.parametrize("network", [
    {"sponsor_neighbors": [], "agents": [{"id": LONG_ID, "value": "x"}]},
    {"sponsor_neighbors": [], "agents": [{"id": LONG_ID, "value": 5}]},
    {"sponsor_neighbors": [], "agents": [{"id": [LONG_ID], "value": "1"}]},
    {"sponsor_neighbors": [], "agents": [{"id": LONG_ID, "value": "1"},
                                         {"id": LONG_ID, "value": "2"}]},
    {"sponsor_neighbors": [], "agents": [{"id": LONG_ID, "value": "1",
                                          "neighbors": [LONG_ID]}]},
    {"sponsor_neighbors": ["A"], "agents": [{"id": "A", "value": "1",
                                             "neighbors": [LONG_ID]}]},
    {"sponsor_neighbors": [LONG_ID], "agents": []},
    {"sponsor_neighbors": [], "agents": [{"id": LONG_ID, "value": "1", "neighbors": "A"}]},
    {"sponsor_neighbors": [], "agents": [{"id": "A", "value": "-" + "1" * 4000}]},
], ids=["bad-value", "non-string-value", "non-string-id", "duplicate-id", "self-invite",
        "unknown-neighbour", "sponsor-invites-unknown", "neighbors-not-a-list",
        "negative-value"])
def test_a_long_id_is_echoed_in_part_on_one_line(capsys, tmp_path, monkeypatch, network):
    monkeypatch.chdir(tmp_path)
    Path("long.json").write_text(json.dumps(network))
    code = main(["tree", "long.json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_INPUT_ERROR, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and len(lines[0]) < 300
    assert lines[0].startswith("error: long.json: ") and "characters)" in lines[0]


# --- the run path against the slow oracles ---------------------------------

HALF = SharingParams.of(Fraction(1, 2))
RUN_MECHANISMS = ("idm", "tnm", "vcg", "fixed:30", "fixed:3", "cavallo")


def _outcome(profile, mechanism):
    if mechanism == "cavallo":
        return cavallo(profile)
    return run_nrmf(MechanismId.parse(mechanism), profile, HALF)


def _revalued(profile):
    """The same agents and invitations with other values, as a truth file."""
    return ReportProfile(profile.sponsor_neighbors, {
        i: AgentType(t.value * 3 + Fraction(1, 7), t.neighbors)
        for i, t in profile.reports.items()})


def _row_networks():
    rng = random.Random(5)
    # every rebate rounds to zero at 6 digits: final payments of -0.000000
    tiny = star_profile({"A": Fraction(3, 10**7), "B": Fraction(2, 10**7),
                         "C": Fraction(1, 10**7), "D": Fraction(1, 10**7)})
    generated = [generate(GrowthModel(kind=EVENLY_GROWING, initial_branches=4,
                                      value_max=100, seed=seed), 60) for seed in (3, 4)]
    digraphs = [random_digraph_profile(rng, rng.randint(1, 9), value_max=rng.choice([3, 20]))
                for _ in range(40)]
    return [reference_network_10(), bidder_star(), star_with_tail(), tiny,
            *generated, *digraphs]


@pytest.mark.parametrize("digits", [0, 6, 20])
def test_run_rows_match_four_renders_per_agent(digits):
    for profile in _row_networks():
        for mechanism in RUN_MECHANISMS:
            outcome = _outcome(profile, mechanism)
            for truth in (profile, _revalued(profile)):
                assert cli._run_rows(outcome, truth, digits) == run_rows_oracle(
                    outcome, truth, digits)


@pytest.mark.parametrize("digits,minus_zero", [(6, "-0.000000"), (0, "-0")])
def test_a_rebate_that_rounds_to_zero_is_paid_as_minus_zero(
        capsys, tmp_path, digits, minus_zero):
    path = tmp_path / "tiny.json"
    values = {"A": "0.0000003", "B": "0.0000002", "C": "0.0000001", "D": "0.0000001"}
    save_profile(star_profile({i: Fraction(v) for i, v in values.items()}), path)
    code, out = run_cli(capsys, "--output", "json", "--precision", str(digits),
                        "run", str(path), "--mechanism", "vcg")
    assert code == EXIT_OK
    rows = {row["agent"]: row for row in json.loads(out)["agents"]}
    assert rows["B"]["final_payment"] == minus_zero
    assert rows["B"]["redistribution"] == minus_zero[1:]
    assert rows["B"]["utility"] == minus_zero[1:]


def _recorded_json_texts(monkeypatch):
    """Every payload the command line writes as JSON, with its text."""
    texts = []
    real = cli._json_text

    def recording(obj, indent="\n"):
        text = real(obj, indent)
        if indent == "\n":
            texts.append((obj, text))
        return text

    monkeypatch.setattr(cli, "_json_text", recording)
    return texts


def test_every_json_payload_matches_the_standard_encoder(capsys, monkeypatch, tmp_path):
    texts = _recorded_json_texts(monkeypatch)
    network = tmp_path / "network.json"
    save_profile(generate(GrowthModel(kind=EVENLY_GROWING, initial_branches=4,
                                      value_max=100, seed=3), 60), network)
    truth = tmp_path / "truth.json"
    save_profile(_revalued(reference_network_10()), truth)
    escapes = tmp_path / "escapes.json"
    save_profile(make_profile(["Å", 'q"', "b\\"], {
        "Å": T(3, ["50%"]), 'q"': T(5), "b\\": T(4, [" \n"]),
        "50%": T(2), " \n": T(6)}), escapes)
    empty = tmp_path / "empty.json"
    save_profile(ReportProfile(frozenset(), {}), empty)
    reference = tmp_path / "reference.json"
    save_profile(reference_network_10(), reference)
    commands = [
        *(["run", str(path), "--mechanism", mechanism]
          for path in (network, escapes, empty) for mechanism in RUN_MECHANISMS),
        ["run", str(reference), "--true-values", str(truth)],
        ["--precision", "0", "run", str(network)],
        *(["tree", str(path)] for path in (network, escapes, empty)),
        *(["--alpha", "1/5", "shares", str(path), "--reward", "10"]
          for path in (network, escapes)),
        ["experiment", "abb", "--sizes", "10,15", "--num-seeds", "3"],
        ["experiment", "bb", "--price", "30", "--sizes", "12", "--num-seeds", "4"],
    ]
    instances = tmp_path / "instances"
    instances.mkdir()
    save_profile(star_with_tail(), instances / "tail.json")
    verdicts = [  # a PASS and a FAIL with its witness
        (["verify", "--property", "ir", "--mechanism", "nrmf:idm",
          "--instances", str(instances)], EXIT_OK),
        (["verify", "--property", "ic", "--mechanism", "cavallo",
          "--instances", str(instances)], EXIT_PROPERTY_FAILURE),
    ]
    for argv, code in [(argv, EXIT_OK) for argv in commands] + verdicts:
        assert main(["--output", "json", *argv]) == code
        obj, text = texts[-1]
        assert text == json_text_oracle(obj)
        assert capsys.readouterr().out == text + "\n"
    assert len(texts) == len(commands) + len(verdicts)


def _random_json(rng, depth):
    strings = ["", "A", "Å", 'q"', "b\\", "%s", "50%", "\n\t", " ", "\x00", "\U0001f600"]
    scalars = [lambda: rng.choice(strings), lambda: rng.randint(-10**6, 10**6),
               lambda: None, lambda: rng.random() < 0.5, lambda: rng.random() * 100]
    kind = rng.randrange(len(scalars) + (6 if depth else 0))
    if kind < len(scalars):
        return scalars[kind]()
    size = rng.randint(0, 4)
    if kind == len(scalars):  # str keys
        return {rng.choice(strings): _random_json(rng, depth - 1) for _ in range(size)}
    if kind == len(scalars) + 1:  # other keys
        return {rng.randint(0, 9): _random_json(rng, depth - 1) for _ in range(size)}
    if kind == len(scalars) + 2:
        return [_random_json(rng, depth - 1) for _ in range(size)]
    if kind == len(scalars) + 3:
        return tuple(_random_json(rng, depth - 1) for _ in range(size))
    # a list of records: same keys, values mostly int or str
    keys = rng.sample(strings, rng.randint(0, 4))
    make = [rng.choice(scalars[:2] + scalars[:2] + scalars) for _ in keys]
    return [{k: f() for k, f in zip(keys, make)} for _ in range(size)]


def test_random_payloads_match_the_standard_encoder():
    rng = random.Random(12)
    for _ in range(3000):
        obj = _random_json(rng, 3)
        assert cli._json_text(obj) == json_text_oracle(obj)
