"""Run instrumentation and machine-readable outputs.

The recorder folds every transaction and block delivery into exact per-pair
propagation-delay aggregates and, when given a sink, streams the delivery as
one raw row of an opt-in propagation CSV as it happens; raw deliveries are
never held in memory. It also keeps message counters by kind, the view-change
log, and a timeline of (sim_time_ms, node_id, chain_height, current_view) rows.
At the end of a run `build_report` assembles a schema-versioned JSON report
from the recorder, the nodes' chains and the per-day results; the timeline is
the optional plot-ready CSV.

Outputs are byte-stable for a fixed (configuration, seed): keys are sorted,
row order is dispatch order, and no wall-clock data is embedded.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

from .errors import ConsistencyError
from .ledger import digest_hex

SCHEMA_VERSION = 2

TIMESERIES_COLUMNS = ("sim_time_ms", "node_id", "chain_height", "current_view")
PROPAGATION_COLUMNS = ("kind", "src", "dst", "sent_at", "delivered_at")


class DayResult:
    """One day's outcome, as `orchestrator.run_day` measured it."""

    def __init__(self, day: int, txs_scheduled: int, txs_committed: int,
                 blocks_appended: dict[int, int], day_start_sim_time: int,
                 day_end_sim_time: int, view_changes: int, messages_by_kind: dict[str, int],
                 ended_by: str):
        self.day = day
        self.txs_scheduled = txs_scheduled
        self.txs_committed = txs_committed
        self.blocks_appended = blocks_appended  # node -> blocks appended that day
        self.day_start_sim_time = day_start_sim_time
        self.day_end_sim_time = day_end_sim_time
        self.view_changes = view_changes
        self.messages_by_kind = messages_by_kind
        self.ended_by = ended_by  # "empty-blocks" or "guard"

    def to_dict(self) -> dict:
        """The report's day entry; `emit_json` sorts its keys."""
        return {
            "day": self.day,
            "txs_scheduled": self.txs_scheduled,
            "txs_committed": self.txs_committed,
            "blocks_appended": {str(k): v for k, v in self.blocks_appended.items()},
            "day_start_sim_time": self.day_start_sim_time,
            "day_end_sim_time": self.day_end_sim_time,
            "view_changes": self.view_changes,
            "messages_by_kind": dict(self.messages_by_kind),
            "ended_by": self.ended_by,
        }


class RunRecorder:
    def __init__(self, engine=None, record_sink=None):
        self.engine = engine  # read for the clock of node hooks
        # csv writer taking one PROPAGATION_COLUMNS row per delivery
        self.record_sink = record_sink
        self.message_counts: Counter = Counter()
        self.drop_counts: Counter = Counter()
        self.aggregates: dict = {}  # (src, dst) -> [count, sum, max]
        self.timeline: list = []    # csv rows, dispatch order
        self.view_change_log: list = []  # (t, node, old, new)

    # -- network hooks -----------------------------------------------------

    def message_sent(self, kind: str, n: int) -> None:
        self.message_counts[kind] += n

    def message_dropped(self, kind: str, n: int) -> None:
        self.drop_counts[kind] += n

    def record_delivery(self, kind: str, src: int, sent_at: int,
                        members: list[tuple[int, int]]) -> None:
        """Record one delivery group: `members` lists (dst, delay) in delivery order."""
        aggregates = self.aggregates
        for dst, delay in members:
            agg = aggregates.get((src, dst))
            if agg is None:
                aggregates[src, dst] = [1, delay, delay]
            else:
                agg[0] += 1
                agg[1] += delay
                if delay > agg[2]:
                    agg[2] = delay
        if self.record_sink is not None:
            self.record_sink.writerows([(kind, src, dst, sent_at, sent_at + delay)
                                        for dst, delay in members])

    # -- node hooks ----------------------------------------------------------

    def on_append(self, node: int, block, view: int) -> None:
        self.timeline.append((self.engine.now, node, block.height, view))

    def on_view_adopted(self, node: int, old: int, new: int, height: int) -> None:
        t = self.engine.now
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


def build_report(world, days: list[DayResult]) -> dict:
    """The report of a finished run of `world` (an orchestrator.World)."""
    recorder = world.recorder
    summaries = []
    for n in world.all_ids:
        digests = [digest_hex(d) for d in world.nodes[n].chain.digests_beyond_genesis()]
        summaries.append({
            "node": n,
            "block_count": len(digests),
            "block_digests": digests,
            "per_day_blocks": {str(d.day): d.blocks_appended[n]
                               for d in days if d.blocks_appended[n]},
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": world.config.seed,
        "config": world.config.to_echo_dict(),
        "benign_nodes": sorted(world.benign),
        "reference_node": world.reference,
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
            "txs_created": world.txs_created,
            "txs_committed": len(world.nodes[world.reference].committed_txids),
            "txs_scheduled": sum(d.txs_scheduled for d in days),
        },
    }


def emit_json(report: dict, path: str | Path) -> None:
    """Serialize the report; refuses to write if benign chains disagree."""
    check_benign_consistency(report["nodes"], set(report["benign_nodes"]))
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
