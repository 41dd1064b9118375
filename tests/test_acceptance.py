"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Full-scale scenario presets are exercised where the criterion demands them,
read from the session's shared run of each (`shared_run` in conftest.py);
statistical criteria run at their stated tolerances with fixed seed sets.
"""

import math
import time
from collections import Counter

from hypothesis import given, settings, strategies as st

from conftest import make_table, quick_run
from permachain.cli import main
from permachain.distributions import Distribution
from permachain.engine import RngStreams
from permachain.pbft import quorum_params
from permachain.poa import poet_elect


def _verdict(number: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number}: {label}"


def benign_digestlists(result):
    world = result.world
    return {n: tuple(world.nodes[n].chain.digests_beyond_genesis())
            for n in sorted(world.benign)}


# -- 1: five active tamperers stop all benign progress ------------------------

def test_criterion_1_active_majority_blocks_nothing(shared_run):
    result = shared_run("situation1").result
    chains = benign_digestlists(result)
    ok = all(len(digests) == 0 for digests in chains.values())
    ok = ok and sum(d["txs_scheduled"] for d in result.days) == 8868
    ok = ok and sum(d["txs_committed"] for d in result.days) == 0

    desk = shared_run("situation1-desk")
    desk_chains = benign_digestlists(desk.result)
    ok = ok and all(len(d) == 0 for d in desk_chains.values())
    ok = ok and sum(d["txs_scheduled"] for d in desk.result.days) == 200
    ok = ok and desk.elapsed < 60.0
    _verdict(1, ok, f"benign block count 0 with 5 tamperers; desk run {desk.elapsed:.1f}s < 60s")


# -- 2: four tamperers, full safety and completeness ---------------------------

def test_criterion_2_tolerated_tamperers_full_agreement(shared_run):
    result = shared_run("situation4").result
    chains = benign_digestlists(result)
    distinct = set(chains.values())
    ok = len(distinct) == 1 and len(next(iter(distinct))) > 0
    scheduled = sum(d["txs_scheduled"] for d in result.days)
    committed = sum(d["txs_committed"] for d in result.days)
    ok = ok and scheduled == committed == 8868
    _verdict(2, ok, f"all benign chains identical, {committed}/{scheduled} txs committed")


# -- 3: passive droppers, liveness and prefix behavior -------------------------

def _dropper_run(n_passive: int, seed: int, drop_prob: float = 0.4):
    byz = {i: 2 for i in range(1, n_passive + 1)}
    loads = {n: 15 for n in range(6, 16)}  # benign origins only
    return quick_run({1: loads}, n_authorities=13, n_followers=2,
                     byzantine=byz, seed=seed, block_capacity=25,
                     drop_prob=drop_prob)


def test_criterion_3_passive_droppers_liveness_and_prefix():
    seeds = list(range(1, 11))
    followers = [r.id for r in make_table(13, n_followers=2).rows  # _dropper_run's node table
                 if not r.authority]
    complete_seeds = 0
    prefix_ok = True
    for seed in seeds:
        result = _dropper_run(5, seed)
        world = result.world
        ref_digests = world.nodes[world.reference].chain.digests_beyond_genesis()
        benign_auth = [n for n in world.authorities if n in world.benign]
        if all(set(world.nodes[n].committed_txids) >= set(
                world.nodes[world.reference].committed_txids)
               and world.nodes[n].chain.height == len(ref_digests)
               for n in benign_auth) and result.days[0]["txs_committed"] == 150:
            complete_seeds += 1
        for f in followers:
            fd = world.nodes[f].chain.digests_beyond_genesis()
            if fd != ref_digests[:len(fd)]:
                prefix_ok = False

    identical_ok = True
    slower = 0
    for seed in seeds:
        faulty = _dropper_run(4, seed)
        if len(set(benign_digestlists(faulty).values())) != 1:
            identical_ok = False
        clean = _dropper_run(0, seed)
        if (faulty.days[0]["day_end_sim_time"] - faulty.days[0]["day_start_sim_time"]) > \
           (clean.days[0]["day_end_sim_time"] - clean.days[0]["day_start_sim_time"]):
            slower += 1

    ok = complete_seeds >= 9 and prefix_ok and identical_ok and slower == len(seeds)
    _verdict(3, ok, f"5 droppers: {complete_seeds}/10 seeds complete, prefixes hold; "
                    f"4 droppers: identical benign chains, slower in {slower}/10 seeds")


# -- 4: three faulty leaders, exactly three view changes -----------------------

def test_criterion_4_view_change_count(shared_run):
    result = shared_run("pbft-viewchange").result
    world = result.world
    ref = world.reference
    vcs = [t for (t, n, _old, _new) in world.recorder.view_change_log if n == ref]
    first_commit = next(row for row in world.recorder.timeline
                        if row[1] == ref and row[2] >= 1)
    ok = len([t for t in vcs if t < first_commit[0]]) == 3
    ok = ok and result.days[0]["view_changes"] == 3
    ok = ok and first_commit[3] == 3  # committed under view 3
    _verdict(4, ok, "exactly 3 view changes precede the first commit, made in view 3")


# -- 5: three-phase message-count law -------------------------------------------

def phase_counts(n: int):
    result = quick_run({1: {}}, n_authorities=n, empty_block_threshold=1)
    counts = result.world.recorder.message_counts
    blocks = result.world.nodes[result.world.reference].chain.height
    assert blocks == 1
    return counts


def test_criterion_5_message_count_law():
    ok = True
    for n in (4, 7, 13):
        counts = phase_counts(n)
        ok = ok and counts["PrePrepare"] == n - 1
        ok = ok and counts["Prepare"] == (n - 1) ** 2
        ok = ok and counts["Commit"] == n * (n - 1)
    _verdict(5, ok, "per block: n-1 pre-prepares, (n-1)^2 prepares, n(n-1) commits")


# -- 6: quorum arithmetic ---------------------------------------------------------

@settings(max_examples=200)
@given(st.integers(1, 200))
def test_criterion_6_quorum_property(n):
    f, quorum = quorum_params(n)
    assert f == (n - 1) // 3
    assert quorum == 2 * f + 1


def test_criterion_6_quorum_values():
    ok = quorum_params(13) == (4, 9)
    _verdict(6, ok, "n=13 gives f=4, quorum=9; property holds over n in [1,200]")


# -- 7: single-round law and consistency -----------------------------------------

def test_criterion_7_single_round_consistency(shared_run):
    result = shared_run("poa-baseline").result
    world = result.world
    blocks = world.nodes[world.reference].chain.height
    counts = world.recorder.message_counts
    ok = counts["BlockMsg"] == blocks * 11
    chains = {tuple(world.nodes[n].chain.digests_beyond_genesis())
              for n in world.all_ids}
    ok = ok and len(chains) == 1
    _verdict(7, ok, f"{blocks} blocks, 11 messages each, 12 identical chains")


# -- 8: lottery fairness -----------------------------------------------------------

def chi2_survival_df4(x: float) -> float:
    return math.exp(-x / 2) * (1 + x / 2)


def test_criterion_8_lottery_fairness():
    start = time.perf_counter()
    streams = RngStreams(2718)
    rounds = 10_000
    wins = Counter()
    wait = Distribution("exponential", {"rate": 0.001})
    for _ in range(rounds):
        leader, _wait = poet_elect([1, 2, 3, 4, 5], wait, streams)
        wins[leader] += 1
    elapsed = time.perf_counter() - start
    expected = rounds / 5
    ok = all(abs(wins[a] - expected) <= 150 for a in (1, 2, 3, 4, 5))
    stat = sum((wins[a] - expected) ** 2 / expected for a in (1, 2, 3, 4, 5))
    p = chi2_survival_df4(stat)
    ok = ok and p > 0.01 and elapsed < 30.0
    _verdict(8, ok, f"wins {sorted(wins.values())}, chi2 p={p:.3f}, {elapsed:.1f}s")


# -- 9: discontinuous multi-day contract --------------------------------------------

def test_criterion_9_discontinuous_days():
    result = quick_run({1: {1: 25}, 2: {}, 3: {1: 10}}, n_authorities=3,
                       protocol="poa", block_capacity=10, empty_block_threshold=10)
    chain = result.world.nodes[1].chain
    d1, d2, d3 = result.days
    day1_sizes = [len(b.txs) for b in chain.blocks[1:1 + d1["blocks_appended"]["1"]]]
    ok = day1_sizes == [10, 10, 5] + [0] * 10
    ok = ok and d2["blocks_appended"]["1"] == 10
    ok = ok and all(len(b.txs) == 0 for b in chain.blocks[14:24])
    day_len = result.world.config.day_length_ms
    ok = ok and [d["day_start_sim_time"] for d in result.days] == [0, day_len, 2 * day_len]
    _verdict(9, ok, "day 1: exactly 3 full + 10 empty; day 2: 10 empty; "
                    "clock lands on day-length multiples")


# -- 10: run-level determinism ---------------------------------------------------------

def test_criterion_10_byte_identical_reruns(tmp_path):
    for tag in ("x", "y"):
        assert main(["--scenario", "situation1-desk", "--seed", "7",
                     "--out", str(tmp_path / tag), "--emit-csv"]) == 0
    ok = all((tmp_path / "x" / f).read_bytes() == (tmp_path / "y" / f).read_bytes()
             for f in ("report.json", "timeseries.csv"))
    _verdict(10, ok, "same-seed reruns produce byte-identical JSON and CSV")


# -- 11: message scaling consistent with the closed-form law ----------------------------

def test_criterion_11_message_scaling():
    totals = {}
    for n in (13, 22):
        counts = phase_counts(n)
        totals[n] = counts["PrePrepare"] + counts["Prepare"] + counts["Commit"]
    measured = totals[22] / totals[13]
    closed_form = (2 * 22 * 21) / (2 * 13 * 12)
    ok = abs(measured - closed_form) / closed_form <= 0.10
    _verdict(11, ok, f"measured ratio {measured:.3f} vs closed form {closed_form:.3f}")
