"""Shared builders for simulator tests."""

from __future__ import annotations

import pytest
from hypothesis import settings

from permachain.config import RunConfig
from permachain.nodetable import NodeTable, parse_node_rows
from permachain.orchestrator import SimulationResult, World, run_all
from permachain.workload import parse_schedule

FAST_NET = {
    "latency": {"default": {"kind": "constant", "ms": 10}},
    "processing_delay": {"default": {"kind": "constant", "ms": 1}},
}

# The long fuzz tier: pytest --hypothesis-profile=long (not loaded by default).
settings.register_profile("long", max_examples=500)


def make_table(n_authorities: int, n_followers: int = 0,
               byzantine: dict[int, int] | None = None) -> NodeTable:
    byzantine = byzantine or {}
    rows = []
    for i in range(1, n_authorities + n_followers + 1):
        rows.append({
            "id": i,
            "authority": 1 if i <= n_authorities else 0,
            "location": f"loc-{i}",
            "byzantine": byzantine.get(i, 0),
        })
    return parse_node_rows(rows)


def make_config(protocol: str = "pbft", **overrides) -> RunConfig:
    data = {
        "protocol": protocol,
        "seed": 1,
        "block_interval_ms": 1000,
        "block_capacity": 10,
        "empty_block_threshold": 10,
        "tx_broadcast_interval_ms": 500,
        "tx_spread_ticks": 1,
        **FAST_NET,
    }
    data.update(overrides)
    return RunConfig.from_dict(data)


def make_world(n_authorities: int, n_followers: int = 0,
               byzantine: dict[int, int] | None = None,
               protocol: str = "pbft", **overrides) -> World:
    return World(make_config(protocol, **overrides),
                 make_table(n_authorities, n_followers, byzantine))


def quick_run(loads_by_day: dict[int, dict[int, int]], n_authorities: int,
              n_followers: int = 0, byzantine: dict[int, int] | None = None,
              protocol: str = "pbft", **overrides) -> SimulationResult:
    """Build and run a small simulation in one call."""
    config = make_config(protocol, **overrides)
    table = make_table(n_authorities, n_followers, byzantine)
    schedule = parse_schedule(
        {"days": [{"day": d, "loads": {str(n): c for n, c in loads.items()}}
                  for d, loads in sorted(loads_by_day.items())]},
        set(table.ids))
    return run_all(config, table, schedule)


@pytest.fixture
def small_world() -> World:
    return make_world(4)
