import csv
import io
import json

import pytest

from netredist.cli import EXIT_INPUT_ERROR, EXIT_OK, EXIT_PROPERTY_FAILURE, main
from netredist.profiles import save_profile

from networks import bidder_star, reference_network_10, star_with_tail


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


def test_missing_network_file_is_input_error(capsys, tmp_path):
    code = main(["run", str(tmp_path / "nope.json")])
    assert code == EXIT_INPUT_ERROR


def test_bad_alpha_is_input_error(capsys, network_file):
    code = main(["--alpha", "zero", "run", network_file])
    assert code == EXIT_INPUT_ERROR


def test_bad_mechanism_is_input_error(capsys, network_file):
    code = main(["run", network_file, "--mechanism", "dutch"])
    assert code == EXIT_INPUT_ERROR


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
