"""Metamorphic relations: two runs whose outputs must correspond, with no oracle for either.

Each relation is checked on the same fixed set of seeded inputs (`INPUTS`):
pbft runs with 4, 5 or 7 authorities, 0-2 followers, up to f active or passive
faults (passive ones drop everything) and timeouts of 10-1,000 ms, and
fault-free poa runs, all with constant latency and processing delay.

- Time scaling: every millisecond field times 3. Every node's chain, every day
  row, every view adoption and every node's rejection counters are those of
  the unscaled run, with each instant times 3.
- Order-preserving relabel: node i renamed to 10i + 3. After mapping the ids
  back, the same parts match. Nothing in the model may read a node id except
  through the order of the ids: a primary is the authority at a position in
  that order, not the authority with some id.

Neither relation holds for random delays or the poet lottery, by design: a
random stream is keyed by its node's id, and a scaled instant rounds
differently. Adding idle followers holds as a relation only once random draws
are keyed per pair of nodes, and is not checked here.
"""

import random
from functools import cache

from permachain.config import RunConfig
from permachain.nodetable import parse_node_rows
from permachain.orchestrator import run_all
from permachain.workload import parse_schedule

SCALE = 3


def relabel(i: int) -> int:
    return 10 * i + 3


def draw_input(rng: random.Random) -> dict:
    protocol = rng.choice(["pbft", "pbft", "pbft", "poa"])
    n = rng.choice([4, 5, 7]) if protocol == "pbft" else rng.randint(1, 5)
    followers = rng.randint(0, 2)
    f = (n - 1) // 3 if protocol == "pbft" else 0  # poa assumes no faulty nodes
    faulty = rng.sample(range(1, n + 1), rng.randint(0, f))
    byzantine = {a: rng.choice([1, 2]) for a in faulty}  # active / passive
    honest = [i for i in range(1, n + followers + 1) if i not in byzantine]
    loads = {day: {node: rng.randint(1, 8)
                   for node in rng.sample(honest, rng.randint(0, min(2, len(honest))))}
             for day in (1, 2)}
    return dict(
        protocol=protocol, n=n, followers=followers, byzantine=byzantine, loads=loads,
        seed=rng.randrange(2**16), block_capacity=rng.randint(1, 4),
        empty_block_threshold=rng.randint(2, 4), tx_spread_ticks=rng.randint(1, 3),
        ms=dict(block_interval_ms=rng.randint(20, 200), day_length_ms=rng.choice([3_000, 6_000]),
                tx_broadcast_interval_ms=rng.randint(10, 100),
                pbft_timeout_ms=rng.choice([10, 30, 100, 300, 1_000])),
        latency_ms=rng.randint(1, 40), processing_ms=rng.randint(1, 5))


INPUTS = [draw_input(random.Random(seed)) for seed in range(40)]


@cache
def observe(index: int, scale: int = 1, relabelled: bool = False) -> dict:
    """Run `INPUTS[index]`, scaled and relabelled, and read what it produced in the
    original ids and instants."""
    spec = INPUTS[index]
    ids = list(range(1, spec["n"] + spec["followers"] + 1))
    new_id = {i: relabel(i) if relabelled else i for i in ids}
    old_id = {new: old for old, new in new_id.items()}
    config = RunConfig(
        spec["protocol"], seed=spec["seed"], block_capacity=spec["block_capacity"],
        empty_block_threshold=spec["empty_block_threshold"], drop_prob=1.0,
        tx_spread_ticks=spec["tx_spread_ticks"],
        **{name: ms * scale for name, ms in spec["ms"].items()},
        latency={"default": {"kind": "constant", "ms": spec["latency_ms"] * scale}},
        processing_delay={"default": {"kind": "constant", "ms": spec["processing_ms"] * scale}})
    table = parse_node_rows([{"id": new_id[i], "authority": int(i <= spec["n"]),
                              "location": f"loc-{i}", "byzantine": spec["byzantine"].get(i, 0)}
                             for i in ids])
    days = [{"day": day, "loads": {str(new_id[node]): count for node, count in loads.items()}}
            for day, loads in spec["loads"].items()]
    schedule = parse_schedule({"days": days}, set(table.ids))
    result = run_all(config, table, schedule)
    world = result.world

    def instant(t: int) -> float:
        return t / scale  # a scaled run whose instant is no multiple of 3 shows as a fraction

    return {
        "chains": {old_id[node_id]: [(b.height, old_id[b.proposer], b.view, b.tx_ids(),
                                      instant(b.proposed_at)) for b in node.chain.blocks[1:]]
                   for node_id, node in world.nodes.items()},
        "days": [{**day, "blocks_appended": {old_id[int(node)]: count for node, count
                                             in day["blocks_appended"].items()},
                  "day_start_sim_time": instant(day["day_start_sim_time"]),
                  "day_end_sim_time": instant(day["day_end_sim_time"])}
                 for day in result.days],
        "view_changes": [(instant(t), old_id[node], old, new)
                         for t, node, old, new in world.recorder.view_change_log],
        "stats": {old_id[node_id]: node.stats for node_id, node in world.nodes.items()},
    }


def mismatches(**transform) -> list[str]:
    """The inputs whose transformed run, read back, differs from the plain run."""
    found = []
    for index, spec in enumerate(INPUTS):
        plain, other = observe(index), observe(index, **transform)
        differ = [part for part in plain if plain[part] != other[part]]
        if differ:
            found.append(f"input {index} ({spec['protocol']}, {spec['n']} authorities): "
                         f"{', '.join(differ)} differ")
    return found


def test_the_inputs_commit_blocks_and_change_views():
    # the relations say little on runs that never commit or never change view
    runs = [observe(index) for index in range(len(INPUTS))]
    assert sum(max(len(chain) for chain in run["chains"].values()) for run in runs) >= 200
    assert sum(len(run["view_changes"]) for run in runs) >= 20
    assert {spec["protocol"] for spec in INPUTS} == {"pbft", "poa"}


def test_scaling_every_millisecond_field_scales_every_instant_and_nothing_else():
    assert mismatches(scale=SCALE) == []


def test_an_order_preserving_relabel_changes_nothing_but_the_ids():
    assert mismatches(relabelled=True) == []
