"""Shared builders for simulator tests, and one shared run per bundled input.

The `shared_run` fixture runs each bundled scenario and `tests/fixtures` input
at most once per session. The golden pins, the CLI byte check, the no-cycles,
conservation and vote-tally tests, the seed test, the merged-batch check against
the reference model and acceptance criteria 1, 2, 4 and 7 read that run instead
of their own. It is read-only: a test that changed its result or its files
would change what later tests read.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import settings

from permachain import messages as m
from permachain.cli import list_scenarios, load_inputs
from permachain.config import RunConfig
from permachain.node import Node
from permachain.nodetable import NodeTable, parse_node_rows
from permachain.orchestrator import SimulationResult, World, run_all
from permachain.reporting import emit_json, emit_timeseries_csv
from permachain.workload import parse_schedule

FIXTURES = Path(__file__).parent / "fixtures"
# Every bundled scenario, then every input under tests/fixtures.
BUNDLED_INPUTS = ([name for name, _ in list_scenarios()]
                  + sorted(p.name for p in FIXTURES.iterdir() if p.is_dir()))

# The bundled scenarios whose shared run streams propagation.csv, as every
# fixture's does: the inputs whose merged batches are checked against the
# reference model.
RECORDED_SCENARIOS = ("pbft-viewchange", "poa-baseline", "situation1-desk")

FAST_NET = {
    "latency": {"default": {"kind": "constant", "ms": 10}},
    "processing_delay": {"default": {"kind": "constant", "ms": 1}},
}

# The long fuzz tier: pytest --hypothesis-profile=long (not loaded by default).
# It also runs the tests marked `long`, which are skipped without it.
settings.register_profile("long", max_examples=500)


def pytest_configure(config):
    config.addinivalue_line("markers", "long: runs only with --hypothesis-profile=long")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--hypothesis-profile") != "long":
        for item in items:
            if "long" in item.keywords:
                item.add_marker(pytest.mark.skip(reason="long tier: --hypothesis-profile=long"))


def input_argv(name: str) -> list[str]:
    """The CLI arguments that load the bundled input `name` (see BUNDLED_INPUTS)."""
    fixture = FIXTURES / name
    return (["--config", str(fixture / "config.json"), "--nodes", str(fixture / "nodes.csv"),
             "--transactions", str(fixture / "transactions.json")]
            if fixture.is_dir() else ["--scenario", name])


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


class SharedRun:
    """One run of a bundled input, loaded and written as `main` does with `--emit-csv`
    (and, for a fixture or one of RECORDED_SCENARIOS, `--emit-records`), with the
    cyclic collector off.

    `argv` loads the input; `received`: body kind -> bodies handed to a node;
    `receive_calls`: the calls that handed them; `unreachable`: what
    `gc.collect()` found right after `run_all`; `elapsed`: the run's wall
    seconds; `out`: the directory of the files `main` writes.
    """

    def __init__(self, name: str, out: Path):
        self.argv = input_argv(name)
        self.out = out
        config, table, schedule = load_inputs(self.argv)
        self.received = Counter()
        self.receive_calls = 0
        receive = Node.receive

        def counting_receive(node, sender, bodies):
            self.receive_calls += 1
            self.received.update(m.kind_of(body) for body in bodies)
            receive(node, sender, bodies)

        recorded = (FIXTURES / name).is_dir() or name in RECORDED_SCENARIOS
        with (open(out / "propagation.csv", "w", newline="") if recorded
              else contextlib.nullcontext()) as records:
            gc.collect()  # the garbage of earlier tests and of parsing
            gc.disable()  # here, so that run_all's restore cannot collect first
            Node.receive = counting_receive
            try:
                start = time.perf_counter()
                self.result = run_all(config, table, schedule, records)
                self.elapsed = time.perf_counter() - start
                self.unreachable = gc.collect()  # while the result is alive
            finally:
                Node.receive = receive
                gc.enable()
        emit_json(self.result.report, out / "report.json")
        emit_timeseries_csv(self.result.world.recorder, out / "timeseries.csv")


@pytest.fixture(scope="session")
def shared_run(tmp_path_factory):
    """`shared_run(name)`: the session's one `SharedRun` of that bundled input."""
    return functools.cache(lambda name: SharedRun(name, tmp_path_factory.mktemp(name)))
