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

from collections import deque
from itertools import repeat
from pathlib import Path

from .distributions import brief, check_object, int_cell, is_int, read_json
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
        return self.counts[day]


def batches(count: int, spread_ticks: int) -> list[int]:
    """Split a day's count across at most `spread_ticks` ticks, remainder front-loaded."""
    if count <= 0:
        return []
    ticks = min(spread_ticks, count)
    base, extra = divmod(count, ticks)
    return [base + (1 if i < extra else 0) for i in range(ticks)]


def parse_schedule(data: dict, known_nodes: set[int]) -> LoadSchedule:
    days = check_object("schedule", data, ("days",), ("days",), ScheduleError)["days"]
    if not isinstance(days, list):
        raise ScheduleError(f"schedule 'days' must be a list, got {brief(days)}")
    counts: dict[int, dict[int, int]] = {}
    for entry in days:
        entry = check_object("schedule 'days' entry", entry, ("day", "loads"), error=ScheduleError)
        day = entry.get("day")
        if not is_int(day) or day < 1:
            raise ScheduleError(f"bad day index {brief(day)}")
        where = f"day {brief(day)}"
        if day in counts:
            raise ScheduleError(f"duplicate day entry for {where}")
        loads: dict[int, int] = {}
        raw_loads = check_object(f"{where}: 'loads'", entry.get("loads", {}), error=ScheduleError)
        for node_key, n in raw_loads.items():
            node = int_cell(node_key)
            if node is None:
                raise ScheduleError(f"{where}: node key {brief(node_key)} is not an integer")
            if node not in known_nodes:
                raise ScheduleError(f"{where}: unknown node key {brief(node_key)}")
            if not is_int(n) or not 0 <= n <= MAX_DAILY_LOAD:
                raise ScheduleError(f"{where}, node {brief(node)}: count must be an integer "
                                    f"in [0, {MAX_DAILY_LOAD}], got {brief(n)}")
            loads[node] = n
        counts[day] = loads
    return LoadSchedule(counts)


def load_schedule(path: str | Path, known_nodes: set[int]) -> LoadSchedule:
    return parse_schedule(read_json(path, ScheduleError), known_nodes)


class TransactionPool(dict):
    """Pending transactions at one node by id, drained FIFO by (created_at, tx_id).

    A dict: every insert is `setdefault(tx.tx_id, tx)`, which keeps a pooled entry.
    """

    def discard(self, tx_ids) -> None:
        deque(map(self.pop, tx_ids, repeat(None)), maxlen=0)  # one C-level loop

    def take_batch(self, capacity: int) -> tuple[Transaction, ...]:
        """Remove and return up to `capacity` transactions in creation order."""
        batch = sorted(self.values(), key=lambda t: (t.created_at, t.tx_id))[:capacity]
        for tx in batch:
            del self[tx.tx_id]
        return tuple(batch)
