import json
from fractions import Fraction

import pytest

from netredist.profiles import (
    SPONSOR,
    AgentType,
    ProfileError,
    ReportProfile,
    induce_graph,
    load_profile,
    make_profile,
    profile_from_dict,
    profile_to_dict,
    save_profile,
    star_profile,
)

from networks import T, misreport_deviation, misreport_network, reference_network_10


def test_agent_type_rejects_negative_value():
    with pytest.raises(ProfileError, match="negative"):
        AgentType.of(-1)


def test_sponsor_id_is_reserved():
    with pytest.raises(ProfileError, match="reserved"):
        make_profile(["s"], {"s": T(1)})


def test_unknown_neighbor_error_names_the_id():
    with pytest.raises(ProfileError, match="GHOST"):
        make_profile(["A"], {"A": T(1, ["GHOST"])})


def test_self_invitation_rejected():
    with pytest.raises(ProfileError, match="itself"):
        make_profile(["A"], {"A": T(1, ["A"])})


def test_sponsor_inviting_unknown_agent_rejected():
    with pytest.raises(ProfileError, match="NOPE"):
        make_profile(["NOPE"], {"A": T(1)})


def test_agents_are_sorted():
    profile = star_profile({"C": 1, "A": 2, "B": 3})
    assert profile.agents == ["A", "B", "C"]


def test_replace_swaps_a_single_report():
    profile = star_profile({"A": 1, "B": 2})
    changed = profile.replace("A", T(7))
    assert changed.value_of("A") == 7
    assert changed.value_of("B") == 2
    assert profile.value_of("A") == 1  # original untouched


def test_replace_unknown_agent_rejected():
    with pytest.raises(ProfileError):
        star_profile({"A": 1}).replace("Z", T(1))


def test_participant_set_follows_invitations():
    graph = induce_graph(misreport_network())
    assert graph.reachable == frozenset("ABCDEFGHI")


def test_dropping_an_invitation_cuts_off_the_subtree():
    graph = induce_graph(misreport_deviation())
    # E, H and I were reachable only through B's invitation of E.
    assert graph.reachable == frozenset("ABCDFG")


def test_unreachable_agents_are_in_vertices_but_not_reachable():
    profile = make_profile(["A"], {"A": T(1), "Z": T(9)})
    graph = induce_graph(profile)
    assert graph.successors["Z"] == ()
    assert "Z" not in graph.reachable


def test_reachable_from_with_removals():
    graph = induce_graph(misreport_network())
    assert graph.reachable_from(SPONSOR, frozenset({"B"})) == frozenset("ACF")
    assert graph.reachable_from(SPONSOR, frozenset({SPONSOR})) == frozenset()


def test_round_trip_through_dict_is_identity():
    profile = reference_network_10()
    assert profile_from_dict(profile_to_dict(profile)) == profile


def test_round_trip_through_file_is_identity(tmp_path):
    profile = make_profile(["A"], {"A": T(Fraction(7, 2), ["B"]),
                                   "B": T(Fraction(1, 3))})
    path = tmp_path / "net.json"
    save_profile(profile, path)
    assert load_profile(path) == profile


def test_values_serialize_as_exact_decimal_strings(tmp_path):
    profile = star_profile({"A": Fraction("3.5"), "B": Fraction(1, 3)})
    data = profile_to_dict(profile)
    values = {entry["id"]: entry["value"] for entry in data["agents"]}
    assert values == {"A": "3.5", "B": "1/3"}
    assert profile_from_dict(json.loads(json.dumps(data))) == profile


def test_malformed_file_reports_path_and_reason(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"sponsor_neighbors": ["A"], "agents": []}')
    with pytest.raises(ProfileError, match=r"bad\.json.*unknown agent 'A'"):
        load_profile(path)


def test_numeric_json_values_are_rejected():
    data = {"sponsor_neighbors": ["A"],
            "agents": [{"id": "A", "value": 3.5, "neighbors": []}]}
    with pytest.raises(ProfileError, match="decimal string"):
        profile_from_dict(data)


def test_duplicate_agent_ids_rejected():
    data = {"sponsor_neighbors": ["A"],
            "agents": [{"id": "A", "value": "1"}, {"id": "A", "value": "2"}]}
    with pytest.raises(ProfileError, match="duplicate"):
        profile_from_dict(data)
