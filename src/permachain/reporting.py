"""Run instrumentation and machine-readable outputs.

The recorder folds every transaction and block delivery into exact per-pair
propagation-delay aggregates and, when given a sink, streams the delivery as
one raw row of an opt-in propagation CSV as it happens; raw deliveries are
never held in memory. It also keeps message counters by kind, per-node commit
and view-change timelines, and per-day tallies. At the end of a run it is
frozen into a schema-versioned JSON report plus an optional plot-ready CSV of
(sim_time_ms, node_id, chain_height, current_view) rows.

Outputs are byte-stable for a fixed (configuration, seed): keys are sorted,
row order is dispatch order, and no wall-clock data is embedded.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConsistencyError
from .ledger import digest_hex

SCHEMA_VERSION = 2

TIMESERIES_COLUMNS = ("sim_time_ms", "node_id", "chain_height", "current_view")
PROPAGATION_COLUMNS = ("kind", "src", "dst", "sent_at", "delivered_at")


@dataclass
class DayResult:
    day: int
    txs_scheduled: int
    txs_committed: int
    blocks_appended: dict[int, int]
    day_start_sim_time: int
    day_end_sim_time: int
    view_changes: int
    messages_by_kind: dict[str, int]
    ended_by: str  # "empty-blocks" or "guard"

    def to_dict(self) -> dict:
        return {
            "day": self.day,
            "txs_scheduled": self.txs_scheduled,
            "txs_committed": self.txs_committed,
            "blocks_appended": {str(k): v for k, v in sorted(self.blocks_appended.items())},
            "day_start_sim_time": self.day_start_sim_time,
            "day_end_sim_time": self.day_end_sim_time,
            "view_changes": self.view_changes,
            "messages_by_kind": dict(sorted(self.messages_by_kind.items())),
            "ended_by": self.ended_by,
        }


@dataclass
class RunRecorder:
    reference_node: int = 0
    record_sink: object = None  # csv writer taking one PROPAGATION_COLUMNS row per delivery

    message_counts: Counter = field(default_factory=Counter)
    drop_counts: Counter = field(default_factory=Counter)
    aggregates: dict = field(default_factory=dict)  # (src, dst) -> [count, sum, max]
    timeline: list = field(default_factory=list)    # csv rows, dispatch order
    view_change_log: list = field(default_factory=list)  # (t, node, old, new)
    commit_log: list = field(default_factory=list)       # (t, node, height, view, n_txs)
    txs_created: int = 0
    ref_committed_txids: set = field(default_factory=set)
    append_listener: object = None
    engine: object = None

    # -- network hooks -----------------------------------------------------

    def message_sent(self, kind: str, src: int, dst: int) -> None:
        self.message_counts[kind] += 1

    def message_dropped(self, kind: str, src: int) -> None:
        self.drop_counts[kind] += 1

    def record_delivery(self, kind: str, src: int, dst: int, sent_at: int,
                        delivered_at: int) -> None:
        delay = delivered_at - sent_at
        key = (src, dst)
        agg = self.aggregates.get(key)
        if agg is None:
            self.aggregates[key] = [1, delay, delay]
        else:
            agg[0] += 1
            agg[1] += delay
            agg[2] = max(agg[2], delay)
        if self.record_sink is not None:
            self.record_sink.writerow((kind, src, dst, sent_at, delivered_at))

    # -- node hooks ----------------------------------------------------------

    def tx_created(self, tx) -> None:
        self.txs_created += 1

    def on_append(self, node: int, block, view: int) -> None:
        t = self.engine.now if self.engine is not None else 0
        self.commit_log.append((t, node, block.height, view, len(block.txs)))
        self.timeline.append((t, node, block.height, view))
        if node == self.reference_node:
            self.ref_committed_txids.update(tx.tx_id for tx in block.txs)
        if self.append_listener is not None:
            self.append_listener(node, block)

    def on_view_adopted(self, node: int, old: int, new: int, height: int) -> None:
        t = self.engine.now if self.engine is not None else 0
        self.view_change_log.append((t, node, old, new))
        self.timeline.append((t, node, height, new))

    # -- aggregate views ------------------------------------------------------

    def aggregate_table(self) -> dict:
        out = {}
        for (src, dst), (count, total, peak) in sorted(self.aggregates.items()):
            out[f"{src}->{dst}"] = {
                "count": count,
                "mean_ms": round(total / count, 3),
                "max_ms": peak,
            }
        return out

    def view_changes_of(self, node: int) -> list:
        return [(t, old, new) for (t, n, old, new) in self.view_change_log if n == node]


def node_chain_summary(node_id: int, chain, per_day_counts: dict[int, int]) -> dict:
    digests = [digest_hex(d) for d in chain.digests_beyond_genesis()]
    return {
        "node": node_id,
        "block_count": len(digests),
        "block_digests": digests,
        "per_day_blocks": {str(d): c for d, c in sorted(per_day_counts.items())},
    }


def check_benign_consistency(summaries: list[dict], benign: set[int]) -> None:
    """All benign digest lists must agree on every shared height."""
    lists = [(s["node"], s["block_digests"]) for s in summaries if s["node"] in benign]
    if not lists:
        return
    longest = max(lists, key=lambda kv: len(kv[1]))
    for node, digests in lists:
        if digests != longest[1][: len(digests)]:
            raise ConsistencyError(
                f"benign nodes {node} and {longest[0]} disagree on a committed block"
            )


def build_report(config_echo: dict, seed: int, days: list[DayResult],
                 summaries: list[dict], recorder: RunRecorder,
                 benign: set[int]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": seed,
        "config": config_echo,
        "benign_nodes": sorted(benign),
        "reference_node": recorder.reference_node,
        "days": [d.to_dict() for d in days],
        "nodes": summaries,
        "messages_by_kind": dict(sorted(recorder.message_counts.items())),
        "drops_by_kind": dict(sorted(recorder.drop_counts.items())),
        "propagation": {"aggregates": recorder.aggregate_table()},
        "view_changes": [
            {"at": t, "node": n, "from": old, "to": new}
            for (t, n, old, new) in recorder.view_change_log
        ],
        "totals": {
            "txs_created": recorder.txs_created,
            "txs_committed": len(recorder.ref_committed_txids),
            "txs_scheduled": sum(d.txs_scheduled for d in days),
        },
    }


def emit_json(report: dict, path: str | Path, benign: set[int] | None = None) -> None:
    """Serialize the report; refuses to write if benign chains disagree."""
    benign = set(report["benign_nodes"]) if benign is None else benign
    check_benign_consistency(report["nodes"], benign)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def propagation_writer(fh):
    """A csv writer over the open text file `fh`, header already written.

    `fh` must be opened with newline="" so rows end in CRLF on every platform,
    as in timeseries.csv.
    """
    writer = csv.writer(fh)
    writer.writerow(PROPAGATION_COLUMNS)
    return writer


def emit_timeseries_csv(recorder: RunRecorder, path: str | Path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TIMESERIES_COLUMNS)
            for row in recorder.timeline:
                writer.writerow(row)
    except OSError as exc:
        raise OSError(f"cannot write timeseries to {path}: {exc}") from exc
