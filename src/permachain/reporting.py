"""Run instrumentation and machine-readable outputs.

The recorder folds every transaction and block delivery into exact per-pair
propagation-delay aggregates and, when given a sink, streams each delivery as
one raw row of an opt-in propagation CSV as it happens. A delivery group is
recorded once with its body count k, and writes its rows k times. Groups wait
in a per-source buffer of at most FOLD_GROUPS; a fold, when it fills and as
`aggregate_table` starts, counts each source's buffered (dst, delay) pairs, k
times each, and adds each distinct one n times, as a body-by-body fold would.
Raw deliveries are never held beyond the buffer. It also keeps message
counters by kind, the view-change log, and a timeline of (sim_time_ms,
node_id, chain_height, current_view) rows. At the end of a run `build_report`
assembles a schema-versioned JSON report from the recorder, the nodes' chains
and the per-day results; the timeline is the optional plot-ready CSV.

Outputs are byte-stable for a fixed (configuration, seed): keys are sorted,
row order is dispatch order, and no wall-clock data is embedded.
"""

from __future__ import annotations

import csv
import json
from collections import Counter, defaultdict
from itertools import chain
from pathlib import Path

from .errors import ConsistencyError
from .ledger import digest_hex

SCHEMA_VERSION = 2

TIMESERIES_COLUMNS = ("sim_time_ms", "node_id", "chain_height", "current_view")
PROPAGATION_COLUMNS = ("kind", "src", "dst", "sent_at", "delivered_at")

# Delivery groups the recorder buffers before it folds them into the aggregates.
FOLD_GROUPS = 4096


class RunRecorder:
    def __init__(self, engine=None, record_sink=None):
        self.engine = engine  # read for the clock of node hooks
        # csv writer taking one PROPAGATION_COLUMNS row per delivery
        self.record_sink = record_sink
        self.message_counts: Counter = Counter()
        self.drop_counts: Counter = Counter()
        self.aggregates: dict = {}  # (src, dst) -> [count, sum, max], folded groups only
        self._buffer: defaultdict = defaultdict(list)  # src -> member lists not yet folded
        self._buffered = 0  # groups in _buffer
        self.timeline: list = []    # csv rows, dispatch order
        self.view_change_log: list = []  # (t, node, old, new)

    # -- network hooks -----------------------------------------------------

    def message_sent(self, kind: str, n: int) -> None:
        self.message_counts[kind] += n

    def message_dropped(self, kind: str, n: int) -> None:
        self.drop_counts[kind] += n

    def record_delivery(self, kind: str, src: int, sent_at: int,
                        members: list[tuple[int, int]], times: int) -> None:
        """Record one delivery group of `times` bodies: `members` lists (dst, delay)
        in delivery order, and each body is delivered to every member."""
        self._buffer[src].append(members * times)
        self._buffered += 1
        if self._buffered >= FOLD_GROUPS:
            self._fold()
        if self.record_sink is not None:
            self.record_sink.writerows([(kind, src, dst, sent_at, sent_at + delay)
                                        for dst, delay in members] * times)

    def _fold(self) -> None:
        """Add every buffered group to the aggregates, one update per distinct
        (src, dst, delay), and empty the buffer."""
        aggregates = self.aggregates
        for src, groups in self._buffer.items():
            for (dst, delay), n in Counter(chain.from_iterable(groups)).items():
                agg = aggregates.get((src, dst))
                if agg is None:
                    aggregates[src, dst] = [n, delay * n, delay]
                else:
                    agg[0] += n
                    agg[1] += delay * n
                    if delay > agg[2]:
                        agg[2] = delay
        self._buffer.clear()
        self._buffered = 0

    # -- node hooks ----------------------------------------------------------

    def on_append(self, node: int, block, view: int) -> None:
        self.timeline.append((self.engine.now, node, block.height, view))

    def on_view_adopted(self, node: int, old: int, new: int, height: int) -> None:
        t = self.engine.now
        self.view_change_log.append((t, node, old, new))
        self.timeline.append((t, node, height, new))

    # -- aggregate views ------------------------------------------------------

    def aggregate_table(self) -> dict:
        self._fold()
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


def build_report(world, days: list[dict]) -> dict:
    """The report of a finished run of `world` (an orchestrator.World), whose
    `days` are `orchestrator.run_day`'s day entries."""
    recorder = world.recorder
    summaries = []
    for n in world.all_ids:
        digests = [digest_hex(d) for d in world.nodes[n].chain.digests_beyond_genesis()]
        node = str(n)
        summaries.append({
            "node": n,
            "block_count": len(digests),
            "block_digests": digests,
            "per_day_blocks": {str(d["day"]): d["blocks_appended"][node]
                               for d in days if d["blocks_appended"][node]},
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "seed": world.config.seed,
        "config": world.config.to_echo_dict(),
        "benign_nodes": sorted(world.benign),
        "reference_node": world.reference,
        "days": days,
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
            "txs_scheduled": sum(d["txs_scheduled"] for d in days),
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
            writer.writerows(recorder.timeline)
    except OSError as exc:
        raise OSError(f"cannot write timeseries to {path}: {exc}") from exc
