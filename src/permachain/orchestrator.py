"""Multi-day simulation driver.

Builds the world (engine, network, nodes), runs each scheduled day, detects
day completion via consecutive empty blocks observed on the reference benign
authority, snapshots per-node chains, fast-forwards the clock to the next
day boundary, and assembles the final report. It names no protocol:
`PROTOCOLS` gives each one's node classes and day kickoff, and the rest of a
protocol lives in its own module.

A day ends one of two ways:
  * the empty-block rule fires: block production stops and the event queue
    is allowed to drain, so in-flight deliveries settle and the injection
    batches already scheduled for the day still fire; their transactions are
    gossiped but stay uncommitted until a later day;
  * the simulated-time guard (one day length) is hit: whatever is still
    queued is discarded and the day is reported as stalled, not failed.

`run_all` runs with the cyclic garbage collector off. A finished run leaves no
cycle, not even through its world, so reference counting frees all it drops.
"""

from __future__ import annotations

import gc
import warnings
from collections import Counter
from functools import partial
from operator import attrgetter

from . import messages as m
from .config import RunConfig
from .distributions import BLOCK, CONSENSUS_MESSAGE, TRANSACTION, brief
from .engine import COORDINATOR, EventEngine, RngStreams
from .errors import ConfigError, PermachainError
from .ledger import Transaction
from .network import Network
from .nodetable import NodeTable
from .pbft import PbftFollower, PbftReplica, quorum_params
from .poa import Lottery, PoaNode, PoetAuthority
from .reporting import RunRecorder, build_report, propagation_writer
from .workload import LoadSchedule, batches


class World:
    """Everything one run owns: engine, network, nodes, and day state.

    `records`, when given, is an open text file that receives one
    propagation.csv row per transaction or block delivery, in dispatch order.
    """

    def __init__(self, config: RunConfig, table: NodeTable, records=None):
        self.config = config
        self.engine = EventEngine()
        self.streams = RngStreams(config.seed)
        self.authorities = table.authorities
        self.all_ids = table.ids
        self.benign = table.benign()
        benign_authorities = [a for a in self.authorities if a in self.benign]
        self.reference = benign_authorities[0] if benign_authorities else self.authorities[0]

        self.recorder = RunRecorder(
            self.engine, None if records is None else propagation_writer(records))

        self.network = Network(self.engine, self.streams, table, config.latency,
                               config.processing_delay, recorder=self.recorder)

        authority, follower, kickoff = PROTOCOLS[config.protocol]
        self.nodes: dict[int, object] = {}
        for row in table.rows:
            node_class = authority if row.authority else follower
            node = self.nodes[row.id] = node_class(row.id, row.byzantine, self)
            self.network.register_node(row.id, node.byz, config.drop_prob_for(row.id),
                                       node.receive)
        self.engine.register(COORDINATOR, run_calls)
        self.kickoff = kickoff(self)
        ignored = [r.id for r in table.rows if self.nodes[r.id].byz is not r.byzantine]
        if ignored:
            warnings.warn("the configured protocol assumes no faulty nodes; "
                          f"Byzantine types on nodes {ignored} are ignored")

        self.day_active = False
        self.empty_streak = 0
        self.day_ended_by = "guard"
        self.txs_created = 0

    # -- control work (calls scheduled on COORDINATOR) -------------------------

    def _tick(self) -> None:
        """Block-interval tick: each authority may propose; repeats while the day runs."""
        if not self.day_active:
            return
        for a in self.authorities:
            if self.day_active:  # a proposal can end the day part-way through a tick
                self.nodes[a].maybe_propose()
        self.engine.schedule(self.config.block_interval_ms, COORDINATOR, self._tick)

    def _inject(self, origin_id: int, day: int, count: int) -> None:
        """Create `count` transactions at `origin_id` and gossip them in one batch."""
        origin, now, first = self.nodes[origin_id], self.engine.now, self.txs_created + 1
        self.txs_created += count
        gossip = []
        for tx_id in range(first, first + count):
            tx = Transaction(tx_id, origin_id, f"tx-{tx_id}", now, day)
            origin.pool.add(tx)
            gossip.append(m.TxGossip(tx))
        self.network.broadcast(origin_id, *gossip)

    # -- day termination ------------------------------------------------------

    def _on_block_appended(self, node_id: int, block) -> None:
        if not self.day_active or node_id != self.reference:
            return
        self.empty_streak = 0 if block.txs else self.empty_streak + 1
        if self.empty_streak >= self.config.empty_block_threshold:
            self.day_active = False
            self.day_ended_by = "empty-blocks"


def run_calls(calls: list) -> None:
    """COORDINATOR's handler: the calls scheduled in a row at one instant share an event."""
    for call in calls:  # an iterator: a call added to `calls` as they run is made too
        call()


# protocol -> (authority class, follower class, world -> the call that starts
# block production one block interval into each day)
PROTOCOLS = {
    "pbft": (PbftReplica, PbftFollower, attrgetter("_tick")),
    "poa": (PoaNode, PoaNode, attrgetter("_tick")),
    "poet": (PoetAuthority, PoaNode, Lottery),
}


def check_inputs(config: RunConfig, table: NodeTable) -> None:
    """Refuse a config and node table that parse but cannot run together.

    Two pbft quorums must share a node, 2(2f+1) > n, or two replicas can commit
    different blocks at one height. That fails at n = 2, 3 and 6 authorities
    (Malkhi & Reiter, "Byzantine Quorum Systems", 1998).

    Every delay model a run can draw from must resolve: the processing delay of
    each kind the protocol sends, and the latency of each pair of distinct nodes
    with an authority at one end (every message is sent by an authority or to one).
    """
    stray = sorted(set(config.drop_prob_overrides) - set(table.ids))
    if stray:
        raise ConfigError(f"drop_prob_overrides names nodes not in the node table: {brief(stray)}")
    n = len(table.authorities)
    if config.protocol == "pbft" and 2 * quorum_params(n)[1] <= n:
        raise ConfigError(f"pbft cannot run with {n} authorities: two quorums of 2f+1 "
                          f"need not intersect when 2(2f+1) <= n")
    kinds = [TRANSACTION, BLOCK] + ([CONSENSUS_MESSAGE] if config.protocol == "pbft" else [])
    for kind in kinds:
        config.processing_delay.model_for(kind)
    if config.latency.default is None:
        for src in table.rows:
            for dst in table.rows:
                if src.id != dst.id and (src.authority or dst.authority):
                    config.latency.model_for((src.location, dst.location))


def emit_day(world: World, day: int, loads: dict[int, int]) -> int:
    """Schedule a day's transaction-creation events; returns the total count.

    The first injection happens one block interval after the day starts
    (never before block production begins); later batches follow at the
    broadcast interval.
    """
    config = world.config
    total = 0
    for node_id in sorted(loads):
        for tick, batch in enumerate(batches(loads[node_id], config.tx_spread_ticks)):
            at = config.block_interval_ms + tick * config.tx_broadcast_interval_ms
            world.engine.schedule(at, COORDINATOR, partial(world._inject, node_id, day, batch))
            total += batch
    return total


def run_day(world: World, day: int, loads: dict[int, int]) -> dict:
    """Run one day; returns the report's entry for it."""
    config = world.config
    engine = world.engine
    day_start = engine.now
    world.day_active = True
    world.empty_streak = 0
    world.day_ended_by = "guard"

    reference = world.nodes[world.reference]
    committed_before = len(reference.committed_txids)
    vc_before = len(world.recorder.view_change_log)
    messages_before = Counter(world.recorder.message_counts)
    heights_before = {n: world.nodes[n].chain.height for n in world.all_ids}

    scheduled = emit_day(world, day, loads)
    for a in world.authorities:
        world.nodes[a].start_day()
    engine.schedule(config.block_interval_ms, COORDINATOR, world.kickoff)

    end = engine.run_until_idle(deadline=day_start + config.day_length_ms)
    world.day_active = False

    messages_delta = Counter(world.recorder.message_counts)
    messages_delta.subtract(messages_before)
    return {
        "day": day,
        "txs_scheduled": scheduled,
        "txs_committed": len(reference.committed_txids) - committed_before,
        "blocks_appended": {str(n): world.nodes[n].chain.height - heights_before[n]
                            for n in world.all_ids},
        "day_start_sim_time": day_start,
        "day_end_sim_time": end,
        "view_changes": sum(1 for row in world.recorder.view_change_log[vc_before:]
                            if row[1] == world.reference),
        "messages_by_kind": {k: v for k, v in sorted(messages_delta.items()) if v},
        "ended_by": world.day_ended_by,  # "empty-blocks" or "guard"
    }


class SimulationResult:
    def __init__(self, days: list[dict], report: dict, world: World):
        self.days = days
        self.report = report
        self.world = world

    def summary_line(self) -> str:
        committed = sum(d["txs_committed"] for d in self.days)
        scheduled = sum(d["txs_scheduled"] for d in self.days)
        heights = {n: self.world.nodes[n].chain.height for n in self.world.all_ids}
        vcs = sum(d["view_changes"] for d in self.days)
        return (f"days={len(self.days)} txs={committed}/{scheduled} "
                f"final_heights={heights} view_changes={vcs}")


def run_all(config: RunConfig, table: NodeTable, schedule: LoadSchedule,
            records=None) -> SimulationResult:
    """Run every scheduled day and assemble the report (`records`: see World).

    `schedule` must name only `table`'s nodes, which `parse_schedule` checks.
    The cyclic collector is off from the world's build to the report and is
    on again afterwards only if it was on before, also when the run raises.
    """
    check_inputs(config, table)
    collecting = gc.isenabled()
    gc.disable()
    try:
        world = World(config, table, records)
        days: list[dict] = []
        for day in schedule.days:
            # a day's deadline is the next day's start, so the clock is never past it
            world.engine.advance_to((day - 1) * config.day_length_ms)
            try:
                days.append(run_day(world, day, schedule.loads_for(day)))
            except PermachainError as exc:
                raise PermachainError(f"day {day}: {exc}") from exc
        report = build_report(world, days)
        # drop the back-references that make the world a cycle: refcounting frees it
        world.engine._handlers.clear()
        world.kickoff = None
        for node in world.nodes.values():
            node.world = None
        return SimulationResult(days=days, report=report, world=world)
    finally:
        if collecting:
            gc.enable()
