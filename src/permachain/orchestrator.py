"""Multi-day simulation driver.

Builds the world (engine, network, nodes), runs each scheduled day, detects
day completion via consecutive empty blocks observed on the reference benign
authority, snapshots per-node chains, fast-forwards the clock to the next
day boundary, and assembles the final report.

A day ends one of two ways:
  * the empty-block rule fires: block production and injection stop and the
    event queue is allowed to drain so in-flight deliveries settle;
  * the simulated-time guard (one day length) is hit: whatever is still
    queued is discarded and the day is reported as stalled, not failed.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

from . import messages as m
from .config import RunConfig
from .engine import COORDINATOR, EventEngine, RngStreams
from .errors import PermachainError
from .faults import ByzantineType
from .ledger import BLOCK, TRANSACTION, Transaction
from .network import MessageEnvelope, Network
from .nodetable import NodeTable
from .pbft import PbftFollower, PbftReplica, quorum_params
from .poa import PoaNode, poet_elect
from .reporting import DayResult, RunRecorder, build_report, propagation_writer
from .workload import BroadcastPolicy, LoadSchedule


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
        self.followers = table.followers
        self.all_ids = table.ids
        self.quorum_rule = quorum_params(len(self.authorities))
        self.benign = table.benign()
        benign_authorities = [a for a in self.authorities if a in self.benign]
        self.reference = benign_authorities[0] if benign_authorities else self.authorities[0]

        self.recorder = RunRecorder(
            self.engine, None if records is None else propagation_writer(records))

        self.network = Network(self.engine, self.streams, config.latency,
                               config.processing_delay, config.fault_config(),
                               recorder=self.recorder)
        if config.protocol in ("poa", "poet"):
            flagged = [r.id for r in table.rows if r.byzantine is not ByzantineType.HONEST]
            if flagged:
                warnings.warn(
                    f"protocol {config.protocol!r} assumes no faulty nodes; "
                    f"Byzantine types on nodes {flagged} are ignored")

        self.nodes: dict[int, object] = {}
        for row in table.rows:
            byz = row.byzantine if config.protocol == "pbft" else ByzantineType.HONEST
            self.network.register_node(row.id, row.location, byz)
            if config.protocol == "pbft":
                if row.authority:
                    node = PbftReplica(row.id, byz, self)
                else:
                    node = PbftFollower(row.id, self)
            else:
                node = PoaNode(row.id, row.authority, self)
            self.nodes[row.id] = node
            self.engine.register(row.id, self._node_handler(node))
        self.engine.register(COORDINATOR, lambda call: call())

        self.day_active = False
        self.empty_streak = 0
        self.day_ended_by = "guard"
        self.txs_created = 0
        self._authority_set = set(self.authorities)
        self._poet_appends: Counter = Counter()

    # -- wiring ------------------------------------------------------------

    def _node_handler(self, node):
        def handle(env: MessageEnvelope):
            kind = env.body.delay_kind
            if kind in (TRANSACTION, BLOCK):
                self.recorder.record_delivery(kind, env.sender, env.recipient,
                                              env.sent_at, env.delivered_at)
            node.receive(env)
        return handle

    # -- control work (calls scheduled on COORDINATOR) -------------------------

    def _tick(self) -> None:
        """Block-interval tick: each authority may propose; repeats while the day runs."""
        if not self.day_active:
            return
        for a in self.authorities:
            self.nodes[a].maybe_propose()
        self.engine.schedule(self.config.block_interval_ms, COORDINATOR, self._tick)

    def _open_lottery(self) -> None:
        """One poet round: the winner proposes once its waiting time has passed."""
        if not self.day_active:
            return
        leader, wait = poet_elect(self.authorities, self.config.poet_rate, self.streams)
        self.engine.schedule(wait, COORDINATOR, self.nodes[leader].propose_lottery)

    def _inject(self, origin_id: int, day: int, count: int) -> None:
        origin = self.nodes[origin_id]
        for _ in range(count):
            self.txs_created += 1
            tx = Transaction(self.txs_created, origin_id, f"tx-{self.txs_created}",
                             self.engine.now, day)
            origin.pool.add(tx)
            self.network.broadcast(origin_id, m.TxGossip(tx), self.authorities)

    # -- day termination ------------------------------------------------------

    def _on_block_appended(self, node_id: int, block) -> None:
        if not self.day_active:
            return
        if node_id == self.reference:
            if block.is_empty:
                self.empty_streak += 1
            else:
                self.empty_streak = 0
            if self.stop_condition():
                self.day_active = False
                self.day_ended_by = "empty-blocks"
        if self.config.protocol == "poet" and self.day_active and node_id in self._authority_set:
            # the next lottery round opens once every authority holds this block
            self._poet_appends[block.height] += 1
            if self._poet_appends[block.height] == len(self.authorities):
                self.engine.schedule(0, COORDINATOR, self._open_lottery)

    def stop_condition(self) -> bool:
        return self.empty_streak >= self.config.empty_block_threshold


def emit_day(world: World, day: int, loads: dict[int, int],
             policy: BroadcastPolicy) -> int:
    """Schedule a day's transaction-creation events; returns the total count.

    The first injection happens one block interval after the day starts
    (never before block production begins); later batches follow at the
    broadcast interval.
    """
    total = 0
    head = world.config.block_interval_ms
    for node_id in sorted(loads):
        if node_id not in world.nodes:
            raise PermachainError(f"schedule references unknown node {node_id}")
        for tick, batch in enumerate(policy.batches(loads[node_id])):
            world.engine.schedule(head + tick * policy.interval_ms, COORDINATOR,
                                  partial(world._inject, node_id, day, batch))
            total += batch
    return total


def run_day(world: World, day: int, loads: dict[int, int]) -> DayResult:
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

    policy = BroadcastPolicy(interval_ms=config.effective_tx_interval_ms,
                             spread_ticks=config.tx_spread_ticks)
    scheduled = emit_day(world, day, loads, policy)

    if config.protocol == "pbft":
        for a in world.authorities:
            world.nodes[a].start_day()
    # poet: the first lottery opens after the same injection headroom
    kickoff = world._open_lottery if config.protocol == "poet" else world._tick
    engine.schedule(config.block_interval_ms, COORDINATOR, kickoff)

    end = engine.run_until_idle(deadline=day_start + config.day_length_ms)
    world.day_active = False

    messages_delta = Counter(world.recorder.message_counts)
    messages_delta.subtract(messages_before)
    return DayResult(
        day=day,
        txs_scheduled=scheduled,
        txs_committed=len(reference.committed_txids) - committed_before,
        blocks_appended={n: world.nodes[n].chain.height - heights_before[n]
                         for n in world.all_ids},
        day_start_sim_time=day_start,
        day_end_sim_time=end,
        view_changes=sum(1 for row in world.recorder.view_change_log[vc_before:]
                         if row[1] == world.reference),
        messages_by_kind={k: v for k, v in sorted(messages_delta.items()) if v},
        ended_by=world.day_ended_by,
    )


@dataclass
class SimulationResult:
    config: RunConfig
    days: list[DayResult]
    report: dict
    world: World = field(repr=False)

    def summary_line(self) -> str:
        committed = sum(d.txs_committed for d in self.days)
        scheduled = sum(d.txs_scheduled for d in self.days)
        heights = {n: self.world.nodes[n].chain.height for n in self.world.all_ids}
        vcs = sum(d.view_changes for d in self.days)
        return (f"days={len(self.days)} txs={committed}/{scheduled} "
                f"final_heights={heights} view_changes={vcs}")


def run_all(config: RunConfig, table: NodeTable, schedule: LoadSchedule,
            records=None) -> SimulationResult:
    """Run every scheduled day and assemble the report (`records`: see World)."""
    world = World(config, table, records)
    days: list[DayResult] = []
    for day in schedule.days:
        target = (day - 1) * config.day_length_ms
        if world.engine.now > target:
            # a prior day overran its boundary; land on the next multiple
            target = -(-world.engine.now // config.day_length_ms) * config.day_length_ms
        world.engine.advance_to(target)
        try:
            days.append(run_day(world, day, schedule.loads_for(day)))
        except PermachainError as exc:
            raise PermachainError(f"day {day}: {exc}") from exc
    return SimulationResult(config=config, days=days, report=build_report(world, days),
                            world=world)
