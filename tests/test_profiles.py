import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netredist.profiles import (
    MAX_EXPONENT,
    SPONSOR,
    ProfileError,
    ReportProfile,
    induce_graph,
    load_profile,
    make_profile,
    parse_value,
    profile_from_dict,
    profile_to_dict,
    save_profile,
)

from networks import T, misreport_deviation, misreport_network, reference_network_10, star_profile
from oracles import agent_value_oracle, profile_from_dict_oracle


def test_agent_type_rejects_negative_value():
    with pytest.raises(ProfileError, match="negative"):
        T(-1)


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
    assert profile.agents == ("A", "B", "C")


def test_agents_are_sorted_once_and_cannot_be_mutated():
    profile = star_profile({"C": 1, "A": 2, "B": 3})
    assert isinstance(profile.agents, tuple)
    assert profile.agents is profile.agents
    changed = profile.replace("B", T(9))
    assert changed.agents is profile.agents  # the same ids, passed on
    assert changed == ReportProfile(profile.sponsor_neighbors,
                                    {**profile.reports, "B": T(9)})


def test_replace_swaps_a_single_report():
    profile = star_profile({"A": 1, "B": 2})
    changed = profile.replace("A", T(7))
    assert changed.value_of("A") == 7
    assert changed.value_of("B") == 2
    assert profile.value_of("A") == 1  # original untouched


def test_replace_unknown_agent_rejected():
    with pytest.raises(ProfileError):
        star_profile({"A": 1}).replace("Z", T(1))


def test_replacing_an_unknown_long_id_echoes_it_in_part():
    with pytest.raises(ProfileError, match=r"^unknown agent 'ZZZ.*\(5002 characters\)$") as e:
        star_profile({"A": 1}).replace("Z" * 5000, T(1))
    assert len(str(e.value)) < 300


def test_replace_checks_the_new_report_as_the_full_profile_would():
    profile = ReportProfile(frozenset({"A"}), {"A": T(1, ["B"]), "B": T(2), "C": T(3)})
    with pytest.raises(ProfileError, match="^unknown agent 'Z'$"):
        profile.replace("Z", T(1))
    for bad in (T(1, ["B", "A"]), T(1, ["Y"]), T(1, ["s", "X"])):
        with pytest.raises(ProfileError) as full:
            ReportProfile(profile.sponsor_neighbors, {**profile.reports, "A": bad})
        with pytest.raises(ProfileError) as replaced:
            profile.replace("A", bad)
        assert str(replaced.value) == str(full.value)
    for i, report in [("A", T(4, ["C", "s"])), ("C", T(0, ["A", "B"])), ("B", T(2))]:
        changed = profile.replace(i, report)
        full = ReportProfile(profile.sponsor_neighbors, {**profile.reports, i: report})
        assert changed == full
        assert list(changed.reports) == list(full.reports)
        assert changed.agents == full.agents


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


def test_an_invitation_of_the_sponsor_is_no_edge():
    profile = make_profile(["A"], {"A": T(1, ["B", SPONSOR]), "B": T(2)})
    graph = induce_graph(profile)
    assert graph.successors == {SPONSOR: ("A",), "A": ("B",), "B": ()}
    assert graph.reachable == frozenset("AB")


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


# A plain decimal (ASCII digits[.digits]) is read without Fraction's
# pattern match; everything else still goes through Fraction(str).
VALUE_TEXTS = ["0", "7", "3.5", "0.25", "007.100", "1.", ".5", "+1.5", " 2.5 ",
               "1_000", "1e3", "1E-2", "1e10000", "1E-10001", "\u0661\u0662", "\u00b2", "1/3", "-0", "-1", "-1.5",
               "", ".", "1..2", "1.2.3", "abc", "1/0", "nan", "inf", "0x10",
               "1" * 5000, "1" * 3000 + "." + "1" * 3000, "0." + "0" * 4999 + "1"]


def _read_value(text):
    """(value, error text) of agent A in a one-agent network."""
    network = {"sponsor_neighbors": ["A"], "agents": [{"id": "A", "value": text}]}
    try:
        return profile_from_dict(network).value_of("A"), None
    except ProfileError as e:
        return None, str(e)


def _oracle_value(text):
    try:
        return agent_value_oracle("A", text), None
    except ProfileError as e:
        return None, str(e)


@pytest.mark.parametrize("text", VALUE_TEXTS,
                         ids=[repr(t) if len(t) < 20 else f"{len(t)}-chars" for t in VALUE_TEXTS])
def test_values_read_as_fraction_of_the_string_reads_them(text):
    value, error = _read_value(text)
    expected, expected_error = _oracle_value(text)
    assert error == expected_error
    if expected is not None:
        assert type(value) is Fraction
        assert (value.numerator, value.denominator) == (
            expected.numerator, expected.denominator)


def test_random_value_strings_parse_as_fraction_parses_them():
    # with one exception: an exponent past the bound is a ValueError
    rng = random.Random(11)
    alphabet = "0123456789" * 3 + "._+-e/ \u0661"
    past_bound = []
    for _ in range(5000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
        try:
            expected = Fraction(text)
        except (ValueError, ZeroDivisionError) as e:
            with pytest.raises(type(e)):
                parse_value(text)
        else:
            if "e" in text and abs(int(text.rpartition("e")[2])) > MAX_EXPONENT:
                past_bound.append(text)
                with pytest.raises(ValueError, match="exponent"):
                    parse_value(text)
                continue
            value = parse_value(text)
            assert (type(value), value) == (Fraction, expected), text
    assert len(past_bound) == 6 and "6e97534" in past_bound


def test_a_json_integer_past_the_int_text_limit_is_a_profile_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text('{"sponsor_neighbors": [], "agents": [], "n": ' + "1" * 5000 + "}")
    with pytest.raises(ProfileError, match="invalid JSON"):
        load_profile(path)


class Name(str):
    """An id of a str subclass, which a neighbour list may hold."""


IDS = ["A", "B", "C", "D", "E"]
VALID_VALUES = st.sampled_from(["3", "0.5", "12.34", "007.10", "1.", ".5", "0", "-0", "+4",
                                "1/3", "1e3", "\u0663", "5" * 5000, "0." + "7" * 5000])
# One fault each: a field replaced, an entry replaced or cut short, or the
# sponsor's list.  A network gets up to two, often in one entry.
FAULTS = st.one_of(
    st.tuples(st.just("id"), st.sampled_from([SPONSOR, "repeat", "", 1, None, ["A"]])),
    st.tuples(st.just("value"), st.sampled_from([
        "-1", "-2.5", "-1/3", "2/0", "1E-2", "1e10001", "x", "", ".", "1.2.3", " 6 ",
        "\u00b2", "-" + "5" * 5000, 3, 2.5, None])),
    st.tuples(st.just("neighbors"), st.sampled_from([
        "A", ("A",), None, [1], ["A", None], {"A"}, ["Z"], ["B", "Z"], [Name("B")], "self"])),
    st.tuples(st.just("entry"), st.sampled_from([5, "A", ["A"], None, "no id", "no value"])),
    st.tuples(st.just("sponsor"), st.sampled_from(["A", [1], ["Z"], ("A",)])),
)


@st.composite
def entry_lists(draw) -> dict:
    """A valid network object on up to five agents with up to two faults."""
    ids = IDS[:draw(st.integers(min_value=0, max_value=len(IDS)))]
    entries = []
    for i in ids:
        entry = {"id": i, "value": draw(VALID_VALUES)}
        invited = draw(st.lists(st.sampled_from([j for j in IDS if j != i] + [SPONSOR]),
                                max_size=3))
        if invited or draw(st.booleans()):
            entry["neighbors"] = [j for j in invited if j in ids or j == SPONSOR]
        entries.append(entry)
    data = {"sponsor_neighbors": draw(st.lists(st.sampled_from(ids), max_size=2))
                                 if ids else [],
            "agents": entries}
    k = None
    for field, fault in draw(st.lists(FAULTS, max_size=2)):
        if field == "sponsor":
            data["sponsor_neighbors"] = fault
            continue
        if not entries:
            continue
        if k is None or draw(st.booleans()):  # else the same entry again
            k = draw(st.integers(min_value=0, max_value=len(entries) - 1))
        if fault == "repeat":  # the id of the entry before, or of the last
            fault = ids[k - 1]
        elif fault == "self":
            fault = [ids[k]]
        if field != "entry":
            if type(entries[k]) is dict:
                entries[k][field] = fault
        elif fault in ("no id", "no value"):
            if type(entries[k]) is dict:
                entries[k].pop(fault[3:], None)
        else:
            entries[k] = fault
    return data


def _read(read, data):
    """(profile, error text) of ``read(data)``."""
    try:
        return read(data), None
    except ProfileError as e:
        return None, str(e)


@settings(max_examples=1500, deadline=None)
@given(entry_lists())
def test_the_one_pass_loader_equals_the_entry_by_entry_oracle(data):
    profile, error = _read(profile_from_dict, data)
    expected, expected_error = _read(profile_from_dict_oracle, data)
    assert error == expected_error
    assert profile == expected
    if expected is not None:
        assert list(profile.reports) == list(expected.reports)
        for i, report in expected.reports.items():
            value = profile.value_of(i)
            assert type(value) is Fraction
            assert (value.numerator, value.denominator) == (
                report.value.numerator, report.value.denominator)


# Every fault an entry can have, applied to agent B of a valid network.
ENTRY_FAULTS = [
    ("id", SPONSOR), ("id", "A"), ("id", 1), ("id", None),
    ("value", "-1"), ("value", "-1/3"), ("value", "2/0"), ("value", "x"), ("value", 3),
    ("value", "-" + "5" * 5000), ("value", "1e10001"),
    ("neighbors", "A"), ("neighbors", [1]), ("neighbors", None), ("neighbors", ["Z"]),
    ("neighbors", ["B"]), ("neighbors", [Name("A")]),
    ("id", ...), ("value", ...),  # the field left out
]


def test_every_two_faults_of_one_entry_read_as_the_oracle_reads_them():
    for faults in itertools.product(ENTRY_FAULTS, repeat=2):
        entry = {"id": "B", "value": "2.5", "neighbors": ["A", SPONSOR]}
        for field, fault in faults:
            if fault is ...:
                entry.pop(field, None)
            else:
                entry[field] = fault
        data = {"sponsor_neighbors": ["A"],
                "agents": [{"id": "A", "value": "1", "neighbors": ["B"]}, entry]}
        assert _read(profile_from_dict, data) == _read(profile_from_dict_oracle, data), faults
