"""Command-line surface: parsing, presets, overrides, exit codes."""

import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import permachain
from conftest import BUNDLED_INPUTS
from permachain.cli import (ENV_SEED, EXIT_IO, EXIT_OK, EXIT_VALIDATION, list_scenarios,
                            load_scenario, main)
from permachain.config import NUMBERS, RunConfig
from permachain.errors import ConfigError, NodeTableError, ScheduleError
from permachain.faults import ByzantineType
from permachain.nodetable import parse_node_rows, parse_node_table
from permachain.workload import parse_schedule

NODE_ROWS = [
    {"id": 1, "authority": 1, "location": "Portland", "data": "", "byzantine": 2},
    {"id": 2, "authority": 1, "location": "Minneapolis", "data": "", "byzantine": 1},
    {"id": 3, "authority": 1, "location": "Honolulu", "data": "", "byzantine": 0},
    {"id": 4, "authority": 0, "location": "Chicago", "data": "", "byzantine": 0},
]


def test_import_loads_neither_dataclasses_nor_importlib_resources():
    # a fresh interpreter without `site`, which loads none of them itself; each
    # costs every CLI run several ms of start-up (see README "Start-up")
    src = Path(permachain.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import permachain, permachain.orchestrator, permachain.cli; "
            "print(*(m for m in ('dataclasses', 'inspect', 'importlib.resources', 'typing') "
            "if m in sys.modules))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code, str(src)], check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == []


def test_loading_a_config_loads_no_simulator_module():
    # the delay tables a config builds live in distributions.py, so parsing a
    # config loads neither the network nor the ledger, nor what they import
    src = Path(permachain.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import permachain.config; "
            "print(*sorted(m for m in sys.modules if m.startswith('permachain.')))")
    loaded = subprocess.run([sys.executable, "-S", "-c", code, str(src)], check=True,
                            capture_output=True, text=True).stdout.split()
    assert loaded == ["permachain.config", "permachain.distributions", "permachain.errors"]


def test_parse_node_rows_types_and_flags():
    table = parse_node_rows(NODE_ROWS)
    row1, row2 = table.rows[:2]
    assert row1.id == 1 and row1.authority and row1.byzantine is ByzantineType.PASSIVE
    assert row2.id == 2 and row2.authority and row2.byzantine is ByzantineType.ACTIVE
    assert table.authorities == [1, 2, 3]
    assert [r.id for r in table.rows if not r.authority] == [4]
    assert table.benign() == {3, 4}


def test_parse_node_table_json_and_csv(tmp_path):
    jpath = tmp_path / "nodes.json"
    jpath.write_text(json.dumps(NODE_ROWS))
    cpath = tmp_path / "nodes.csv"
    cpath.write_text(
        "NodeID,Authority,Location,Data,Byzantine\n"
        "1,1,Portland,,2\n"
        "2,1,Minneapolis,,1\n"
        "3,1,Honolulu,,0\n"
        "4,0,Chicago,,\n")
    from_json = parse_node_table(jpath)
    from_csv = parse_node_table(cpath)
    assert from_json == from_csv


def test_invalid_byzantine_code_rejected():
    rows = [dict(NODE_ROWS[0], byzantine=3)]
    with pytest.raises(NodeTableError, match="Byzantine code"):
        parse_node_rows(rows)


def test_duplicate_id_and_zero_authorities_rejected():
    with pytest.raises(NodeTableError, match="duplicate"):
        parse_node_rows([NODE_ROWS[0], dict(NODE_ROWS[1], id=1)])
    with pytest.raises(NodeTableError, match="zero authorities"):
        parse_node_rows([dict(r, authority=0) for r in NODE_ROWS])


def test_integer_location_is_its_decimal_text():
    table = parse_node_rows([dict(NODE_ROWS[0], location=7), NODE_ROWS[1]])
    assert table.rows[0].id == 1 and table.rows[0].location == "7"


def test_location_threshold_authority_rule():
    rows = [{"id": i, "authority": 0, "location": str(i), "byzantine": 0}
            for i in range(1, 7)]
    table = parse_node_rows(rows, {"kind": "location_threshold", "threshold": 4})
    assert table.authorities == [1, 2, 3]
    with pytest.raises(NodeTableError, match="location-threshold"):
        parse_node_rows(NODE_ROWS, {"kind": "location_threshold", "threshold": 4})
    with pytest.raises(NodeTableError, match="row 1: location 'xxx") as err:
        parse_node_rows([dict(NODE_ROWS[0], location="x" * 5000)],
                        {"kind": "location_threshold", "threshold": 4})
    assert len(str(err.value)) < 200  # a long cell is cut short, not echoed whole


@pytest.mark.parametrize("rule, echoed, authorities", [
    pytest.param({"kind": "location_threshold"}, {"kind": "location_threshold", "threshold": 4},
                 [1, 2, 3], id="threshold_default"),
    pytest.param({"kind": "location_threshold", "threshold": 2},
                 {"kind": "location_threshold", "threshold": 2}, [1], id="threshold_given"),
])
def test_authority_rule_is_echoed_as_applied(rule, echoed, authorities):
    config = RunConfig.from_dict({"protocol": "pbft", "authority_rule": rule})
    assert config.to_echo_dict()["authority_rule"] == echoed
    rows = [{"id": i, "authority": int(i == 1), "location": str(i), "byzantine": 0}
            for i in range(1, 7)]
    assert parse_node_rows(rows, config.authority_rule).authorities == authorities


def test_a_derived_pbft_timeout_is_capped_and_its_echo_reloads():
    # 10x a 10**9 ms mean would be 10**10, past the range from_dict accepts
    config = RunConfig("pbft", latency={"default": {"kind": "constant", "ms": 10**9}})
    echo = config.to_echo_dict()
    assert echo["pbft_timeout_ms"] == NUMBERS["pbft_timeout_ms"][2] == 10**9
    assert RunConfig.from_dict(echo).to_echo_dict() == echo


@pytest.mark.parametrize("name", BUNDLED_INPUTS)
def test_every_shared_run_config_echo_reloads(name, shared_run):
    echo = json.loads((shared_run(name).out / "report.json").read_text())["config"]
    assert RunConfig.from_dict(echo).to_echo_dict() == echo


def test_list_scenarios_contains_bundled_presets():
    names = {name for name, _ in list_scenarios()}
    assert {"situation1", "situation2", "situation3", "situation4",
            "pbft-viewchange", "poa-baseline", "poet-baseline"} <= names


def test_situation_presets_match_their_fault_layout():
    sit1 = load_scenario("situation1")
    types = {row["id"]: row["byzantine"] for row in sit1["nodes"]}
    assert [types[i] for i in range(1, 6)] == [1] * 5          # five active
    assert all(types[i] == 0 for i in range(6, 16))            # rest honest
    assert sum(r["authority"] for r in sit1["nodes"]) == 13
    assert sum(1 - r["authority"] for r in sit1["nodes"]) == 2
    total = sum(sit1["transactions"]["days"][0]["loads"].values())
    assert total == 8868

    sit3 = load_scenario("situation3")
    types3 = {row["id"]: row["byzantine"] for row in sit3["nodes"]}
    assert [types3[i] for i in range(1, 5)] == [2] * 4          # four passive

    poa = load_scenario("poa-baseline")
    assert len(poa["nodes"]) == 12
    assert all(r["byzantine"] == 0 for r in poa["nodes"])
    assert sum(r["authority"] for r in poa["nodes"]) == 7


def test_list_scenarios_flag_prints_each_preset_and_exits_ok(capsys):
    assert main(["--list-scenarios"]) == EXIT_OK
    names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
    assert names == [name for name, _ in list_scenarios()] and "poa-baseline" in names


def test_unknown_scenario_fails_validation(tmp_path, capsys):
    assert main(["--scenario", "nope", "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["relative_path", "absolute_path", "bundled_via_path"])
def test_scenario_must_be_a_bundled_preset_name(tmp_path, capsys, name):
    # a path would reach any JSON file, and one that is not a preset crashed the loader
    (tmp_path / "x.json").write_text("not json")
    scenarios = Path(permachain.__file__).parent / "scenarios"
    arg = {"relative_path": os.path.relpath(tmp_path / "x", scenarios),
           "absolute_path": str(tmp_path / "x"),
           "bundled_via_path": "../scenarios/poa-baseline"}[name]
    assert main(["--scenario", arg, "--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "unknown scenario" in err and "poa-baseline, poet-baseline" in err
    assert len(err.encode()) < 200 and not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["1_0", "+7", " 7", "-1", "٧", ""])
def test_seed_flag_takes_ascii_digits_only(tmp_path, capsys, seed):
    assert main(["--scenario", "poa-baseline", "--seed", seed,
                 "--out", str(tmp_path)]) == EXIT_VALIDATION
    assert f"--seed must be an integer, got {ascii(seed)}" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "missing.json")]) == EXIT_IO
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    pytest.param({"protocol": "pbft", "bogus_knob": 1}, "bogus_knob", id="bogus_knob"),
    pytest.param({"protocol": "pbft", "seed": "x"}, "seed", id="seed"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "uniform", "lo": "a",
                                                              "hi": 5}}}, "lo", id="lo"),
    pytest.param({"protocol": "pbft", "drop_prob_overrides": {"x": 0.1}},
                 "drop_prob_overrides", id="drop_prob_overrides"),
    pytest.param({"protocol": "pbft", "latency": {"pairs": [{"src": "a", "kind": "constant",
                                                             "ms": 1}]}}, "dst", id="dst"),
    pytest.param([1, 2], "JSON object", id="top_level_list"),
    pytest.param({"protocol": "pbft", "block_capacity": 2.5}, "block_capacity",
                 id="block_capacity"),
    pytest.param({"protocol": "pbft", "block_capacity": True}, "block_capacity",
                 id="bool_block_capacity"),
    pytest.param({"protocol": "pbft", "tx_spread_ticks": "3"}, "tx_spread_ticks",
                 id="tx_spread_ticks"),
    pytest.param({"protocol": "pbft", "processing_delay": []}, "processing_delay",
                 id="processing_delay_list"),
    pytest.param({"protocol": "pbft", "processing_delay": {"preset": []}}, "preset",
                 id="processing_delay_preset_list"),
    pytest.param({"protocol": "pbft", "latency": {"pairs": 5}}, "pairs",
                 id="latency_pairs_number"),
    pytest.param({"protocol": "pbft", "authority_rule": {"kind": "location_threshold",
                                                         "threshold": "x"}},
                 "threshold", id="authority_threshold"),
    pytest.param({"protocol": "pbft", "authority_rule": {"kind": "location_threshold",
                                                         "treshold": 2}},
                 "'treshold'", id="authority_rule_misspelt_threshold"),
    pytest.param({"protocol": "pbft", "authority_rule": {"kind": "column", "threshold": 2}},
                 "'threshold'", id="authority_rule_column_threshold"),
    pytest.param({"protocol": "pbft", "authority_rule": {"kind": "column", "rule": "x"}},
                 "'rule'", id="authority_rule_unknown_key"),
    pytest.param({"protocol": "pbft", "authority_rule": None}, "authority_rule",
                 id="authority_rule_null"),
    pytest.param({"protocol": "pbft", "latency": None}, "latency", id="latency_null"),
    pytest.param({"protocol": "pbft", "processing_delay": None}, "processing_delay",
                 id="processing_delay_null"),
    pytest.param({"protocol": "pbft", "pbft_timeout_ms": None}, "pbft_timeout_ms",
                 id="pbft_timeout_null"),
    pytest.param({"protocol": "pbft", "tx_broadcast_interval_ms": None},
                 "tx_broadcast_interval_ms", id="tx_broadcast_interval_null"),
    pytest.param({"protocol": "pbft", "drop_prob_overrides": {"²": 0.1}},
                 "drop_prob_overrides", id="drop_prob_overrides_superscript_key"),
    pytest.param({"protocol": "pbft", "drop_prob_overrides": {"1" * 5000: 0.1}},
                 "drop_prob_overrides", id="drop_prob_overrides_huge_key"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "constant",
                                                              "ms": math.nan}}},
                 "ms", id="nan_ms"),
    pytest.param({"protocol": "poet", "poet_rate": math.nan}, "poet_rate", id="nan_poet_rate"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "uniform", "lo": 0,
                                                              "hi": math.inf}}},
                 "hi", id="infinite_uniform_hi"),
    pytest.param({"protocol": "pbft", "processing_delay": {
        "default": {"kind": "empirical", "values": [1, math.inf]}}},
                 "values", id="infinite_empirical_value"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "uniform", "lo": 0,
                                                              "hi": 1e308}}},
                 "hi", id="huge_uniform_hi"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "exponential",
                                                              "rate": 5e-324}}},
                 "rate", id="tiny_exponential_rate"),
    pytest.param({"protocol": "pbft", "latency": {"pairs": [{"src": [], "dst": "a",
                                                             "kind": "constant", "ms": 1}]}},
                 "src", id="pair_src_list"),
    pytest.param({"protocol": "pbft", "day_length_ms": 10**9 + 1}, "day_length_ms",
                 id="huge_day_length"),
    pytest.param({"protocol": "pbft", "drop_prob": 5}, "drop_prob", id="drop_prob_above_one"),
    pytest.param({"protocol": "pbft", "drop_prob_overrides": {"1": -0.5}},
                 "drop_prob_overrides", id="negative_override"),
    pytest.param({"protocol": "poet", "poet_rate": 5e-324}, "poet_rate", id="tiny_poet_rate"),
    pytest.param({"protocol": "poet", "poet_rate": 10**400}, "poet_rate", id="huge_poet_rate"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "exponential",
                                                              "rate": 10**400}}},
                 "rate", id="huge_exponential_rate"),
    pytest.param({"protocol": "pbft", "pbft_timeout_ms": -5000}, "pbft_timeout_ms",
                 id="negative_pbft_timeout"),
    pytest.param({"protocol": "pbft", "latency": {
        "default": {"kind": "constant", "ms": 10},
        "pair": [{"src": "a", "dst": "b", "kind": "constant", "ms": 50}]}},
                 "'pair'", id="latency_unknown_key"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "constant", "ms": 10,
                                                              "sd": 4}}},
                 "'sd'", id="constant_extra_param"),
    pytest.param({"protocol": "pbft", "latency": {"pairs": [{"src": "a", "dst": "b",
                                                             "kind": "uniform", "lo": 1,
                                                             "hi": 5, "mean": 3}]}},
                 "'mean'", id="pair_extra_param"),
    pytest.param({"protocol": "pbft", "processing_delay": {
        "block": {"kind": "empirical", "values": [1, 2], "std": 1}}},
                 "'std'", id="processing_delay_extra_param"),
    pytest.param({"protocol": "pbft", "latency": {"default": {"kind": "normal", "mean": -1e308,
                                                              "std": 0}}},
                 "'mean'", id="normal_mean_far_below_zero"),
    pytest.param({"protocol": "pbft", "processing_delay": {
        "preset": "hyperledger-fabric", "block": {"kind": "constant", "ms": 99}}},
                 "'block'", id="processing_delay_preset_with_other_key"),
    pytest.param({"protocol": "pbft", "tx_broadcast_interval_ms": 0},
                 "tx_broadcast_interval_ms", id="zero_tx_broadcast_interval"),
    pytest.param({"protocol": "pbft", "tx_spread_ticks": 0}, "tx_spread_ticks",
                 id="zero_tx_spread_ticks"),
    pytest.param({"protocol": "pbft", "block_capacity": 0}, "block_capacity",
                 id="zero_block_capacity"),
    pytest.param({"seed": 1}, "'protocol'", id="no_protocol"),
    pytest.param({"protocol": "pbft", "authority_rule": 5}, "authority_rule",
                 id="authority_rule_number"),
    pytest.param({"protocol": "pbft", "drop_prob_overrides": [1]}, "drop_prob_overrides",
                 id="drop_prob_overrides_list"),
    pytest.param({"protocol": "pbft", "processing_delay": {
        "gossip": {"kind": "constant", "ms": 1}}},
                 "processing_delay has unknown keys ['gossip']",
                 id="unknown_processing_delay_kind"),
])
def test_bad_config_schema_is_validation_error(tmp_path, capsys, config, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path)]) == EXIT_VALIDATION
    assert field in capsys.readouterr().err


VALID_CONFIG = {
    "protocol": "pbft", "seed": 1, "block_interval_ms": 1000, "block_capacity": 10,
    "empty_block_threshold": 10, "day_length_ms": 60_000, "tx_broadcast_interval_ms": 500,
    "tx_spread_ticks": 1, "pbft_timeout_ms": 100, "drop_prob": 0.4,
    "drop_prob_overrides": {"1": 0.1}, "poet_rate": 0.001,
    "latency": {"default": {"kind": "uniform", "lo": 1, "hi": 20},
                "pairs": [{"src": "a", "dst": "b", "kind": "normal", "mean": 5, "std": 1},
                          {"src": "b", "dst": "c", "kind": "exponential", "rate": 0.1}]},
    "processing_delay": {"default": {"kind": "constant", "ms": 1},
                         "block": {"kind": "empirical", "values": [1, 2.5]}},
    "authority_rule": {"kind": "location_threshold", "threshold": 4},
}


def _paths(value, path=()):
    """The path of every value below `value`, and of a new key (None) in every object."""
    if isinstance(value, dict):
        yield path + (None,)
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield path + (key,)
        yield from _paths(sub, path + (key,))


# any short text, and short text of ASCII and other digits, some of them not decimal
TEXT = st.text(max_size=4) | st.text("0123456789²³¹١٢٣𝟘⑴", max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers() | TEXT
    | st.sampled_from([10**20, -(10**20), 10**400, -1, 0, 5e-324, 1e308]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(TEXT, children, max_size=3)),
    max_leaves=6)


def _swapped(data, path, value, new_key):
    """A copy of data with the value at `path` replaced (`new_key` added, if path ends in None)."""
    data = copy.deepcopy(data)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    parent[new_key if path[-1] is None else path[-1]] = value
    return data


@given(path=st.sampled_from(list(_paths(VALID_CONFIG))), value=JSON_VALUES, new_key=TEXT)
def test_config_loads_or_refuses_any_json_value(path, value, new_key):
    # one value of a valid config replaced by any JSON value, or one key added
    # to one of its objects: the config loads, or it is refused with a short
    # ConfigError, nothing else
    try:
        config = RunConfig.from_dict(_swapped(VALID_CONFIG, path, value, new_key))
    except ConfigError as exc:
        assert len(str(exc).encode()) < 200
        return
    json.dumps(config.to_echo_dict(), allow_nan=False)


# valid under both authority rules: locations 1-4 against a threshold of 4
VALID_ROWS = [{"id": i, "authority": int(i < 4), "location": str(i), "data": "", "byzantine": 0}
              for i in range(1, 5)]
VALID_SCHEDULE = {"days": [{"day": 1, "loads": {"1": 3, "4": 0}}, {"day": 2, "loads": {}}]}


@given(path=st.sampled_from(list(_paths(VALID_ROWS))),
       rule=st.sampled_from([None, {"kind": "location_threshold", "threshold": 4}]),
       value=JSON_VALUES, new_key=TEXT)
def test_node_table_loads_or_refuses_any_json_value(path, rule, value, new_key):
    # the same swap in a valid node table: it parses, or it is refused with a
    # short NodeTableError, nothing else
    try:
        parse_node_rows(_swapped(VALID_ROWS, path, value, new_key), rule)
    except NodeTableError as exc:
        assert len(str(exc).encode()) < 200


@given(path=st.sampled_from(list(_paths(VALID_SCHEDULE))), value=JSON_VALUES, new_key=TEXT)
def test_schedule_loads_or_refuses_any_json_value(path, value, new_key):
    # and in a valid schedule: it parses, or it is refused with a short
    # ScheduleError, nothing else
    try:
        parse_schedule(_swapped(VALID_SCHEDULE, path, value, new_key), {1, 2, 3, 4})
    except ScheduleError as exc:
        assert len(str(exc).encode()) < 200


# more digits than str() converts; only an in-process caller can pass one, since
# read_json refuses such a number in a file
HUGE = 10**5000


@pytest.mark.parametrize("build, error, message", [
    pytest.param(lambda: RunConfig("pbft", block_interval_ms=-HUGE), ConfigError,
                 "block_interval_ms must be an integer in [1, 1000000000], "
                 "got -<int of 16610 bits>",
                 id="config_field"),
    pytest.param(lambda: parse_node_rows([dict(VALID_ROWS[0], location=HUGE)]), NodeTableError,
                 "row 1: location <int of 16610 bits> has too many digits", id="node_location"),
])
def test_an_integer_too_long_for_text_is_refused_by_its_size(build, error, message):
    with pytest.raises(error) as refused:
        build()
    assert str(refused.value) == message


@pytest.mark.parametrize("field", [name for name, (*_, integer) in NUMBERS.items() if integer])
def test_every_integer_field_has_a_finite_upper_bound(field):
    # an integer of any size used to build, and then its echo could not be written
    with pytest.raises(ConfigError, match=f"^{field} must be an integer in "):
        RunConfig("pbft", **{field: HUGE})
    json.dumps(RunConfig("pbft", **{field: NUMBERS[field][2]}).to_echo_dict())


ROWS = [dict(r, byzantine=0) for r in NODE_ROWS]
LONG, DIGITS = "x" * 5000, "1" * 5000


def input_files(tmp_path, inputs: dict) -> list[str]:
    """Write each input (flag name -> CSV text or a JSON value) to a file; the flags
    that read them."""
    args = []
    for name, content in inputs.items():
        path = tmp_path / (f"{name}.csv" if isinstance(content, str) else f"{name}.json")
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        args += [f"--{name}", str(path)]
    return args


@pytest.mark.parametrize("kind, data, field", [
    pytest.param("transactions", {"days": 5}, "days", id="days_number"),
    pytest.param("transactions", {"days": [5]}, "days", id="days_entry_number"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": [1]}]}, "loads",
                 id="loads_list"),
    pytest.param("nodes", [dict(NODE_ROWS[0], byzantine=[1])], "Byzantine",
                 id="byzantine_list"),
    pytest.param("transactions", {"days": [{"day": True, "loads": {"1": 1}}]}, "day index",
                 id="bool_day"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": {"1": True}}]}, "count",
                 id="bool_count"),
    pytest.param("nodes", [dict(NODE_ROWS[0], id=1.7)], "node id", id="fractional_id"),
    pytest.param("nodes", [dict(NODE_ROWS[0], id=True)], "node id", id="bool_id"),
    pytest.param("nodes", [dict(NODE_ROWS[0], authority=2)], "authority",
                 id="authority_two"),
    pytest.param("nodes", [dict(NODE_ROWS[0], authority=True)], "authority",
                 id="bool_authority"),
    pytest.param("nodes", [dict(NODE_ROWS[0], byzantine=1.9)], "Byzantine",
                 id="fractional_byzantine"),
    pytest.param("nodes", [dict(NODE_ROWS[0], byzantine=True)], "Byzantine",
                 id="bool_byzantine"),
    pytest.param("nodes", [5], "row 1", id="row_not_object"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": {"1": 10**6 + 1}}]}, "count",
                 id="huge_count"),
    pytest.param("config", {"protocol": "poa", "drop_prob_overrides": {"9": 0.1}},
                 "drop_prob_overrides", id="override_names_no_node"),
    pytest.param("nodes", {"id": 1, "authority": 1}, "JSON list", id="nodes_object"),
    pytest.param("nodes", [dict(NODE_ROWS[0], id=0)], "row 1: node ids must be positive",
                 id="node_id_zero"),
    pytest.param("nodes", "NodeID,Authority,Location,Data,Byzantine\n" + "1" * 5000 + ",1,a,,0\n",
                 "row 1: missing or non-integer node id", id="csv_huge_node_id"),
    pytest.param("nodes", [dict(NODE_ROWS[0], byzantine="2" * 5000)], "row 1: invalid Byzantine",
                 id="long_byzantine_cell"),
    pytest.param("nodes", [dict(NODE_ROWS[0], authority="x" * 5000)], "row 1: authority flag",
                 id="long_authority_cell"),
    pytest.param("config", {"protocol": "poa", "authority_rule": {"kind": "location_threshold"}},
                 "row 1: location 'Portland'", id="location_not_integer"),
    # a location is a string, or an integer taken as its decimal text
    *(pytest.param("nodes", [dict(ROWS[0], location=value), *ROWS[1:]],
                   "row 1: location must be a string or an integer", id=f"location_{name}")
      for name, value in [("null", None), ("true", True), ("float", 1.5), ("list", [1, 2]),
                          ("object", {"a": 1})]),
    pytest.param("transactions", {}, "'days'", id="schedule_without_days"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": {}}, {"day": 1, "loads": {}}]},
                 "duplicate day", id="duplicate_day"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": {"x": 1}}]},
                 "day 1: node key 'x' is not an integer", id="non_integer_node_key"),
    pytest.param("config", None, "--config is required", id="no_config_flag"),
    pytest.param("nodes", None, "--nodes is required", id="no_nodes_flag"),
    pytest.param("transactions", None, "--transactions is required",
                 id="no_transactions_flag"),
    pytest.param(ENV_SEED, "seven", f"{ENV_SEED} must be an integer", id="env_seed_not_integer"),
    # a 5,000-character (or 5,000-digit) value at every place an input value is quoted
    *(pytest.param("transactions", data, field, id=f"long_{name}") for name, data, field in [
        ("schedule_node_key", {"days": [{"day": 1, "loads": {DIGITS: 1}}]}, "node key"),
        ("count", {"days": [{"day": 1, "loads": {"1": LONG}}]}, "day 1, node 1: count"),
        ("day", {"days": [{"day": LONG}]}, "bad day index"),
        ("days", {"days": LONG}, "schedule 'days'"),
        ("loads", {"days": [{"day": 1, "loads": [LONG]}]}, "day 1: 'loads'"),
    ]),
    *(pytest.param("config", {"protocol": "poa", **fields}, field, id=f"long_{name}")
      for name, fields, field in [
        ("override_key", {"drop_prob_overrides": {DIGITS: 0.1}}, "drop_prob_overrides"),
        ("overrides", {"drop_prob_overrides": LONG}, "drop_prob_overrides"),
        ("number_field", {"block_capacity": LONG}, "block_capacity"),
        ("protocol", {"protocol": LONG}, "protocol must be one of"),
        ("latency", {"latency": LONG}, "latency"),
        ("latency_key", {"latency": {LONG: 1}}, "latency has unknown keys"),
        ("latency_pair", {"latency": {"pairs": [LONG]}}, "latency pair"),
        ("distribution_kind", {"latency": {"default": {"kind": LONG}}}, "distribution kind"),
        ("parameter_name", {"latency": {"default": {"kind": "constant", "ms": 1, LONG: 1}}},
         "constant distribution has unknown keys"),
        ("empirical_values", {"latency": {"default": {"kind": "empirical", "values": LONG}}},
         "'values'"),
        ("processing_delay", {"processing_delay": LONG}, "processing_delay"),
        ("delay_kind", {"processing_delay": {LONG: {"kind": "constant", "ms": 1}}},
         "processing_delay has unknown keys"),
        ("preset", {"processing_delay": {"preset": LONG}}, "processing-delay preset"),
        ("authority_rule", {"authority_rule": LONG}, "authority_rule"),
        ("threshold", {"authority_rule": {"kind": "location_threshold", "threshold": LONG}},
         "authority_rule.threshold"),
        ("config_field", {LONG: 1}, "config has unknown keys"),
    ]),
    # integer text is ASCII digits only: no underscore, sign or other script's digits
    pytest.param("nodes", [dict(ROWS[0], id="1_0"), *ROWS[1:]],
                 "row 1: missing or non-integer node id '1_0'", id="node_id_underscore"),
    pytest.param("nodes", [dict(ROWS[0], id="+2"), *ROWS[1:]],
                 "row 1: missing or non-integer node id '+2'", id="node_id_plus"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": {"1_0": 1}}]},
                 "day 1: node key '1_0' is not an integer", id="schedule_key_underscore"),
    pytest.param("transactions", {"days": [{"day": 1, "loads": {"٣": 1}}]},
                 "day 1: node key '\\u0663' is not an integer", id="schedule_key_arabic_indic"),
    pytest.param("config", {"protocol": "poa", "drop_prob_overrides": {"١٠": 0.1}},
                 "drop_prob_overrides keys must be node ids, got '\\u0661\\u0660'",
                 id="override_key_arabic_indic"),
    pytest.param(ENV_SEED, "1_0", f"{ENV_SEED} must be an integer, got '1_0'",
                 id="env_seed_underscore"),
])
def test_bad_schedule_or_node_table_is_validation_error(tmp_path, capsys, monkeypatch, kind,
                                                        data, field):
    # `data` replaces one input: a list or object is written as JSON, a string
    # as a CSV node table or the PERMACHAIN_SEED value, and None leaves the
    # flag out
    inputs = {"config": {"protocol": "poa"},
              "nodes": ROWS,
              "transactions": {"days": [{"day": 1, "loads": {"1": 1}}]},
              kind: data}
    if ENV_SEED in inputs:
        monkeypatch.setenv(ENV_SEED, inputs.pop(ENV_SEED))
    files = input_files(tmp_path, {k: v for k, v in inputs.items() if v is not None})
    assert main(["--out", str(tmp_path / "out"), *files]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert field in err
    assert len(err.encode()) < 200  # a long input cell is cut short, not echoed whole


HUGE_INT = b"1" * 5000  # past the 4,300 digits int() converts from text
NOT_UTF8 = b"\xff\xfe"


@pytest.mark.parametrize("kind, suffix, content", [
    pytest.param("config", ".json", b'{"protocol": "poa", "seed": ' + HUGE_INT + b"}",
                 id="config_huge_int"),
    pytest.param("config", ".json", b'{"protocol": "' + NOT_UTF8 + b'"}',
                 id="config_not_utf8"),
    pytest.param("nodes", ".json", b'[{"id": ' + HUGE_INT + b', "authority": 1}]',
                 id="json_nodes_huge_int"),
    pytest.param("nodes", ".json", b'[{"location": "' + NOT_UTF8 + b'"}]',
                 id="json_nodes_not_utf8"),
    pytest.param("nodes", ".csv", b"NodeID,Authority,Location\n1,1," + NOT_UTF8 + b"\n",
                 id="csv_nodes_not_utf8"),
    pytest.param("transactions", ".json", b'{"days": [{"day": ' + HUGE_INT + b"}]}",
                 id="schedule_huge_int"),
    pytest.param("transactions", ".json", b'{"days": [], "' + NOT_UTF8 + b'": 1}',
                 id="schedule_not_utf8"),
])
def test_unreadable_input_file_is_validation_error_naming_it(tmp_path, capsys, kind, suffix,
                                                             content):
    inputs = {"config": {"protocol": "poa"}, "nodes": ROWS,
              "transactions": {"days": [{"day": 1, "loads": {"1": 1}}]}}
    del inputs[kind]
    (tmp_path / f"{kind}{suffix}").write_bytes(content)
    assert main(["--out", str(tmp_path / "out"), f"--{kind}", str(tmp_path / f"{kind}{suffix}"),
                 *input_files(tmp_path, inputs)]) == EXIT_VALIDATION
    assert f"{tmp_path / kind}{suffix}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_fails_before_any_output_file_is_opened(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"protocol": "pbft", "drop_prob": 5}))
    out = tmp_path / "out"
    assert main(["--scenario", "situation3", "--config", str(config), "--out", str(out),
                 "--emit-records"]) == EXIT_VALIDATION
    assert "drop_prob" in capsys.readouterr().err
    assert not (out / "propagation.csv").exists()


@pytest.mark.parametrize("n", [2, 3, 6])
def test_pbft_group_whose_quorums_need_not_intersect_fails_before_any_output(
        tmp_path, capsys, n):
    nodes = [{"id": i, "authority": 1, "location": f"loc-{i}", "byzantine": 0}
             for i in range(1, n + 1)]
    inputs = {"config": {"protocol": "pbft"}, "nodes": nodes,
              "transactions": {"days": [{"day": 1, "loads": {"1": 1}}]}}
    out = tmp_path / "out"
    args = ["--out", str(out), "--emit-records", "--emit-csv", *input_files(tmp_path, inputs)]
    assert main(args) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"pbft cannot run with {n} authorities" in err and "2(2f+1) <= n" in err
    assert not out.exists()


@pytest.mark.parametrize("protocol, authorities, latency, processing_delay, named", [
    # the day ends at node 1's first block, so node 2 never sends to the idle
    # follower 4 and no message crosses (Minneapolis, Chicago)
    pytest.param("poa", {1, 2, 3}, {"pairs": [
        {"src": a, "dst": b, "kind": "constant", "ms": 5}
        for a, b in (("Portland", "Minneapolis"), ("Portland", "Honolulu"),
                     ("Portland", "Chicago"), ("Minneapolis", "Honolulu"),
                     ("Honolulu", "Chicago"))]},
                 {"default": {"kind": "constant", "ms": 1}},
                 "('Minneapolis', 'Chicago')", id="latency_pair"),
    pytest.param("pbft", {1, 2, 3, 4}, {"default": {"kind": "constant", "ms": 5}},
                 {"transaction": {"kind": "constant", "ms": 1},
                  "block": {"kind": "constant", "ms": 1}},
                 "'consensus-message'", id="processing_delay_kind"),
])
def test_incomplete_delay_table_fails_before_any_output(tmp_path, capsys, protocol,
                                                        authorities, latency,
                                                        processing_delay, named):
    inputs = {"config": {"protocol": protocol, "empty_block_threshold": 1,
                         "latency": latency, "processing_delay": processing_delay},
              "nodes": [dict(r, byzantine=0, authority=int(r["id"] in authorities))
                        for r in NODE_ROWS],
              "transactions": {"days": [{"day": 1, "loads": {}}]}}
    out = tmp_path / "out"
    assert main(["--out", str(out), "--emit-records", *input_files(tmp_path, inputs)]) \
        == EXIT_VALIDATION
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_emit_records_streams_every_delivery_to_propagation_csv(tmp_path, shared_run):
    # main writes the bytes of each input's shared run, which the golden pins check;
    # poa-baseline's shared run streams no records, so streaming them changes no
    # report byte, and the smallest fixture's does, so a second run's must match
    for name in ("poa-baseline", "empirical-pbft"):
        run, out = shared_run(name), tmp_path / name
        assert main([*run.argv, "--out", str(out), "--emit-csv", "--emit-records"]) == EXIT_OK
        for path in run.out.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), f"{name}: {path.name}"

        lines = (out / "propagation.csv").read_bytes().decode().split("\r\n")
        assert lines[0] == "kind,src,dst,sent_at,delivered_at" and lines[-1] == ""
        delays = {}
        for line in lines[1:-1]:
            kind, src, dst, sent_at, delivered_at = line.split(",")
            assert kind in ("transaction", "block")
            delays.setdefault(f"{src}->{dst}", []).append(int(delivered_at) - int(sent_at))
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 2
        assert report["propagation"]["aggregates"] == {
            pair: {"count": len(ds), "mean_ms": round(sum(ds) / len(ds), 3), "max_ms": max(ds)}
            for pair, ds in delays.items()}


def test_the_record_thinning_knob_is_refused(tmp_path, capsys):
    # the raw-record thinning knob is gone; a config that still sets it is refused
    config = dict(load_scenario("poa-baseline")["config"], record_sampling=1)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["--config", str(tmp_path / "config.json")]) == EXIT_VALIDATION
    assert "record_sampling" in capsys.readouterr().err


def test_unwritable_propagation_csv_is_io_error(tmp_path, capsys):
    (tmp_path / "propagation.csv").mkdir()
    assert main(["--scenario", "poa-baseline", "--out", str(tmp_path),
                 "--emit-records"]) == EXIT_IO
    assert "propagation records" in capsys.readouterr().err


def test_explicit_files_run_end_to_end(tmp_path, capsys):
    config = {"protocol": "poa", "seed": 5, "block_interval_ms": 1000,
              "block_capacity": 10, "empty_block_threshold": 5,
              "tx_broadcast_interval_ms": 500, "tx_spread_ticks": 1,
              "latency": {"default": {"kind": "constant", "ms": 10}},
              "processing_delay": {"default": {"kind": "constant", "ms": 1}}}
    inputs = {"config": config, "nodes": ROWS,
              "transactions": {"days": [{"day": 1, "loads": {"1": 4}}]}}
    code = main([*input_files(tmp_path, inputs), "--out", str(tmp_path / "out"), "--emit-csv"])
    assert code == EXIT_OK
    summary = capsys.readouterr().out.strip()
    assert "txs=4/4" in summary
    assert (tmp_path / "out" / "report.json").exists()
    assert (tmp_path / "out" / "timeseries.csv").exists()


def test_same_seed_runs_are_byte_identical(tmp_path):
    for d in ("a", "b"):
        assert main(["--scenario", "poa-baseline", "--seed", "42",
                     "--out", str(tmp_path / d), "--emit-csv"]) == EXIT_OK
    for f in ("report.json", "timeseries.csv"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_cli_overrides_echoed_into_report(tmp_path):
    code = main(["--scenario", "poa-baseline", "--seed", "99",
                 "--protocol", "poet", "--out", str(tmp_path)])
    assert code == EXIT_OK
    assert not (tmp_path / "propagation.csv").exists()  # written only with --emit-records
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seed"] == 99
    assert report["config"]["protocol"] == "poet"
    assert report["config"]["seed"] == 99


def test_env_seed_is_lowest_precedence(tmp_path, monkeypatch):
    config = {"protocol": "poa",
              "empty_block_threshold": 3,
              "tx_broadcast_interval_ms": 500, "tx_spread_ticks": 1,
              "latency": {"default": {"kind": "constant", "ms": 10}},
              "processing_delay": {"default": {"kind": "constant", "ms": 1}}}
    args = [*input_files(tmp_path, {"config": config, "nodes": ROWS,  # config: no seed field
                                    "transactions": {"days": [{"day": 1, "loads": {"1": 1}}]}}),
            "--out", str(tmp_path / "envout")]
    monkeypatch.setenv("PERMACHAIN_SEED", "777")
    assert main(args) == EXIT_OK
    report = json.loads((tmp_path / "envout" / "report.json").read_text())
    assert report["seed"] == 777
    # an explicit flag outranks the environment
    assert main(args + ["--seed", "5"]) == EXIT_OK
    report = json.loads((tmp_path / "envout" / "report.json").read_text())
    assert report["seed"] == 5
