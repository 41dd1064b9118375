"""Per-node, per-day transaction loads and periodic injection.

Schedule file schema (JSON):

    {"days": [{"day": 1, "loads": {"1": 5, "2": 14}}, ...]}

Day indices start at 1, every node key must exist in the node table, and a
node's count for one day is at most MAX_DAILY_LOAD.
`batches` divides a day's count for a node evenly across `tx_spread_ticks`
injection ticks, remainder front-loaded. The orchestrator fires the first tick
one block interval into the day, so no transaction is broadcast before block
production begins, and the rest `tx_broadcast_interval_ms` apart.
"""

from __future__ import annotations

import json
from pathlib import Path

from .distributions import is_int
from .errors import ScheduleError
from .ledger import Transaction

# Per node and day, so the injection loop is bounded; the largest bundled load is 887.
MAX_DAILY_LOAD = 10**6


class LoadSchedule:
    """counts[day][node_id] -> number of transactions to create."""

    def __init__(self, counts: dict[int, dict[int, int]]):
        self.counts = counts

    @property
    def days(self) -> list[int]:
        return sorted(self.counts)

    def loads_for(self, day: int) -> dict[int, int]:
        if day not in self.counts:
            raise ScheduleError("day out of schedule range", day=day)
        return self.counts[day]

    def total(self) -> int:
        return sum(sum(v.values()) for v in self.counts.values())


def batches(count: int, spread_ticks: int) -> list[int]:
    """Split a day's count across at most `spread_ticks` ticks, remainder front-loaded."""
    if count <= 0:
        return []
    ticks = min(spread_ticks, count)
    base, extra = divmod(count, ticks)
    return [base + (1 if i < extra else 0) for i in range(ticks)]


def parse_schedule(data: dict, known_nodes: set[int] | None = None) -> LoadSchedule:
    if not isinstance(data, dict) or "days" not in data:
        raise ScheduleError("schedule must be an object with a 'days' list")
    if not isinstance(data["days"], list):
        raise ScheduleError(f"schedule 'days' must be a list, got {data['days']!r}")
    counts: dict[int, dict[int, int]] = {}
    for entry in data["days"]:
        if not isinstance(entry, dict):
            raise ScheduleError(f"schedule 'days' entries must be objects, got {entry!r}")
        day = entry.get("day")
        if not is_int(day) or day < 1:
            raise ScheduleError(f"bad day index {day!r}", day=day)
        if day in counts:
            raise ScheduleError("duplicate day entry", day=day)
        raw_loads = entry.get("loads", {})
        if not isinstance(raw_loads, dict):
            raise ScheduleError(f"'loads' must map node ids to counts, got {raw_loads!r}",
                                day=day)
        loads: dict[int, int] = {}
        for node_key, n in raw_loads.items():
            try:
                node = int(node_key)
            except (TypeError, ValueError):
                raise ScheduleError("node key is not an integer", day=day, node=node_key)
            if known_nodes is not None and node not in known_nodes:
                raise ScheduleError("unknown node in schedule", day=day, node=node)
            if not is_int(n) or not 0 <= n <= MAX_DAILY_LOAD:
                raise ScheduleError(f"count must be an integer in [0, {MAX_DAILY_LOAD}], "
                                    f"got {n!r}", day=day, node=node)
            loads[node] = n
        counts[day] = loads
    return LoadSchedule(counts)


def load_schedule(path: str | Path, known_nodes: set[int] | None = None) -> LoadSchedule:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScheduleError(f"schedule file {path} is not valid JSON: {exc}")
    return parse_schedule(data, known_nodes)


class TransactionPool:
    """Pending transactions at one node, drained FIFO by (created_at, tx_id)."""

    def __init__(self):
        self._txs: dict[int, Transaction] = {}

    def __len__(self) -> int:
        return len(self._txs)

    def __contains__(self, tx_id: int) -> bool:
        return tx_id in self._txs

    def add(self, tx: Transaction) -> None:
        self._txs.setdefault(tx.tx_id, tx)

    def discard(self, tx_ids) -> None:
        for tx_id in tx_ids:
            self._txs.pop(tx_id, None)

    def take_batch(self, capacity: int) -> tuple[Transaction, ...]:
        """Remove and return up to `capacity` transactions in creation order."""
        batch = sorted(self._txs.values(), key=lambda t: (t.created_at, t.tx_id))[:capacity]
        for tx in batch:
            del self._txs[tx.tx_id]
        return tuple(batch)
