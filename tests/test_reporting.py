"""Report assembly: aggregates, serialization determinism, consistency gate."""

import io
import json
import re
import warnings

import pytest
from hypothesis import given, strategies as st

from conftest import quick_run
from permachain.errors import ConsistencyError
from permachain.reporting import (RunRecorder, check_benign_consistency, emit_json,
                                  emit_timeseries_csv, propagation_writer)


def feed(recorder, triples):
    for src, dst, delay in triples:
        recorder.record_delivery("transaction", src, 100, [(dst, delay)], 1)


def test_aggregates_match_bruteforce_mean_and_max():
    recorder = RunRecorder()
    raw = [(1, 2, 10), (1, 2, 20), (1, 2, 33), (2, 3, 5)]
    feed(recorder, raw)
    table = recorder.aggregate_table()
    delays_12 = [d for s, t, d in raw if (s, t) == (1, 2)]
    assert table["1->2"]["count"] == 3
    assert table["1->2"]["mean_ms"] == round(sum(delays_12) / 3, 3)
    assert table["1->2"]["max_ms"] == max(delays_12)
    assert table["2->3"] == {"count": 1, "mean_ms": 5.0, "max_ms": 5}


def test_pairs_without_traffic_absent_from_aggregates():
    recorder = RunRecorder()
    feed(recorder, [(1, 2, 10)])
    assert "2->1" not in recorder.aggregate_table()


def test_constant_latency_gives_flat_aggregates():
    result = quick_run({1: {1: 3}}, n_authorities=3, protocol="poa")
    for stats in result.report["propagation"]["aggregates"].values():
        assert stats["mean_ms"] == 10.0 and stats["max_ms"] == 10


def test_record_sink_gets_every_delivery_and_leaves_aggregates_alone():
    buf = io.StringIO(newline="")
    r_sink = RunRecorder(record_sink=propagation_writer(buf))
    r_bare = RunRecorder()
    raw = [(1, 2, d) for d in range(30)] + [(2, 1, 7)]
    feed(r_sink, raw)
    feed(r_bare, raw)
    lines = buf.getvalue().split("\r\n")
    assert lines[0] == "kind,src,dst,sent_at,delivered_at"
    assert lines[1:-1] == [f"transaction,{s},{t},100,{100 + d}" for s, t, d in raw]
    assert lines[-1] == ""
    assert r_sink.aggregate_table() == r_bare.aggregate_table()
    report = quick_run({1: {1: 3}}, n_authorities=3, protocol="poa").report
    assert report["propagation"].keys() == {"aggregates"}


def test_a_delivery_group_is_recorded_member_by_member():
    buf = io.StringIO(newline="")
    grouped = RunRecorder(record_sink=propagation_writer(buf))
    grouped.record_delivery("block", 3, 40, [(1, 12), (2, 9), (1, 30)], 1)
    single = RunRecorder()
    for dst, delay in [(1, 12), (2, 9), (1, 30)]:
        single.record_delivery("block", 3, 40, [(dst, delay)], 1)
    assert buf.getvalue().split("\r\n")[1:] == ["block,3,1,40,52", "block,3,2,40,49",
                                                 "block,3,1,40,70", ""]
    assert grouped.aggregate_table() == single.aggregate_table() == {
        "3->1": {"count": 2, "mean_ms": 21.0, "max_ms": 30},
        "3->2": {"count": 1, "mean_ms": 9.0, "max_ms": 9}}


def test_a_group_of_k_bodies_adds_k_deliveries_to_a_recorded_pair():
    recorder = RunRecorder()
    recorder.record_delivery("block", 1, 0, [(2, 10)], 1)
    recorder.record_delivery("transaction", 1, 5, [(2, 4), (3, 6)], 3)
    assert recorder.aggregate_table() == {
        "1->2": {"count": 4, "mean_ms": 5.5, "max_ms": 10},
        "1->3": {"count": 3, "mean_ms": 6.0, "max_ms": 6}}


def member_by_member(groups):
    """(src, dst) -> [count, sum, max], folded one delivery at a time."""
    aggregates = {}
    for src, members in groups:
        for dst, delay in members:
            agg = aggregates.setdefault((src, dst), [0, 0, delay])
            agg[0] += 1
            agg[1] += delay
            agg[2] = max(agg[2], delay)
    return aggregates


group_members = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 40)),
                         min_size=1, max_size=5)
delivery_groups = st.lists(st.tuples(st.integers(1, 3), group_members), max_size=40)


@given(delivery_groups)
def test_the_aggregates_equal_a_member_by_member_fold(groups):
    recorder = RunRecorder()
    for i, (src, members) in enumerate(groups):
        recorder.record_delivery("transaction", src, i, members, 1)
    table = recorder.aggregate_table()
    expected = member_by_member(groups)
    assert recorder.aggregates == expected
    assert table == {f"{src}->{dst}": {"count": n, "mean_ms": round(total / n, 3),
                                       "max_ms": peak}
                     for (src, dst), (n, total, peak) in sorted(expected.items())}


@given(st.lists(st.tuples(st.integers(1, 3), group_members, st.integers(1, 4)), max_size=30))
def test_a_group_of_k_bodies_records_what_k_one_body_groups_would(groups):
    sinks = [io.StringIO(newline=""), io.StringIO(newline="")]
    counted, one_by_one = (RunRecorder(record_sink=propagation_writer(sink)) for sink in sinks)
    for i, (src, members, times) in enumerate(groups):
        counted.record_delivery("transaction", src, i, members, times)
        for _ in range(times):
            one_by_one.record_delivery("transaction", src, i, members, 1)
    assert counted.aggregate_table() == one_by_one.aggregate_table()
    assert sinks[0].getvalue() == sinks[1].getvalue()  # every body's rows, in order


def test_emit_json_byte_identical_for_same_seed(tmp_path):
    paths = []
    for i in (1, 2):
        result = quick_run({1: {1: 5}}, n_authorities=4, seed=42)
        path = tmp_path / f"report-{i}.json"
        emit_json(result.report, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_emit_json_refuses_inconsistent_benign_chains(tmp_path):
    result = quick_run({1: {1: 3}}, n_authorities=4, seed=1)
    report = result.report
    # forge a divergent digest list on one benign node
    report["nodes"][1]["block_digests"] = ["f" * 16] + report["nodes"][1]["block_digests"][1:]
    with pytest.raises(ConsistencyError):
        emit_json(report, tmp_path / "never.json")
    assert not (tmp_path / "never.json").exists()


def test_an_unwritable_output_path_raises_an_os_error_naming_it(tmp_path):
    result = quick_run({1: {1: 3}}, n_authorities=4, seed=1)
    with pytest.raises(OSError, match=f"^cannot write report to {re.escape(str(tmp_path))}: "):
        emit_json(result.report, tmp_path)  # a directory
    with pytest.raises(OSError,
                       match=f"^cannot write timeseries to {re.escape(str(tmp_path))}: "):
        emit_timeseries_csv(result.world.recorder, tmp_path)


@pytest.mark.parametrize("protocol, ended_by", [("pbft", "guard"), ("poa", "empty-blocks")])
def test_a_run_without_benign_nodes_writes_its_report(protocol, ended_by, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # poa warns that it ignores the Byzantine types
        result = quick_run({1: {1: 3}}, n_authorities=4, byzantine={1: 1, 2: 2, 3: 1, 4: 2},
                           protocol=protocol, day_length_ms=5000, empty_block_threshold=2)
    assert result.days[0]["ended_by"] == ended_by
    emit_json(result.report, tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text())["benign_nodes"] == []


def test_check_benign_consistency_allows_prefixes():
    summaries = [
        {"node": 1, "block_digests": ["aa", "bb", "cc"]},
        {"node": 2, "block_digests": ["aa", "bb"]},
        {"node": 3, "block_digests": []},
    ]
    check_benign_consistency(summaries, benign={1, 2, 3})
    summaries.append({"node": 4, "block_digests": ["aa", "xx"]})
    with pytest.raises(ConsistencyError):
        check_benign_consistency(summaries, benign={1, 2, 3, 4})


def test_csv_heights_monotone_per_node(tmp_path):
    result = quick_run({1: {1: 5}}, n_authorities=4, seed=7)
    path = tmp_path / "rows.csv"
    emit_timeseries_csv(result.world.recorder, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "sim_time_ms,node_id,chain_height,current_view"
    per_node = {}
    for line in lines[1:]:
        t, node, height, view = map(int, line.split(","))
        per_node.setdefault(node, []).append(height)
    for heights in per_node.values():
        assert heights == sorted(heights)


def test_csv_and_json_agree_on_final_heights(tmp_path):
    result = quick_run({1: {1: 5}}, n_authorities=4, seed=7)
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "rows.csv"
    emit_json(result.report, json_path)
    emit_timeseries_csv(result.world.recorder, csv_path)
    report = json.loads(json_path.read_text())
    by_node = {}
    for line in csv_path.read_text().strip().splitlines()[1:]:
        t, node, height, view = map(int, line.split(","))
        by_node[node] = max(by_node.get(node, 0), height)
    for summary in report["nodes"]:
        assert by_node[summary["node"]] == summary["block_count"]


def test_report_self_consistency_totals():
    result = quick_run({1: {1: 4}, 2: {1: 3}}, n_authorities=4, seed=3)
    totals = result.report["totals"]
    assert totals["txs_committed"] == sum(d["txs_committed"] for d in result.days)
    ref_chain = result.world.nodes[result.world.reference].chain
    distinct = {tx.tx_id for b in ref_chain.blocks for tx in b.txs}
    assert totals["txs_committed"] == len(distinct)
    assert totals["txs_created"] == totals["txs_scheduled"] == 7
