"""Mutants of src/permachain that named tier-1 tests must catch, and their runner.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

A mutant is (name, file under src/permachain, snippet, replacement, test ids).
The runner first runs every named test against an unmutated copy of src/,
where each must pass. Then, for one mutant at a time, it copies src/ to a
temporary directory, replaces the snippet, which must occur exactly once in
the file, and runs only that mutant's tests against the copy in one pytest
subprocess. Each named test must fail. The exit status is 1 if a test fails
unmutated, a snippet does not occur exactly once, or a test passes a mutant.
Not part of tier-1: a run starts one pytest process per mutant.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORCH, LEDGER, CLI = "tests/test_orchestrator.py", "tests/test_ledger.py", "tests/test_cli.py"
NETWORK, PBFT = "tests/test_network.py", "tests/test_pbft.py"

MUTANTS = [
    ("gc_enabled_unconditionally", "orchestrator.py",
     "        if collecting:\n            gc.enable()\n", "        gc.enable()\n",
     [f"{ORCH}::test_run_all_leaves_the_collector_as_it_found_it[gc-off-completes]",
      f"{ORCH}::test_run_all_leaves_the_collector_as_it_found_it[gc-off-raises]"]),
    ("commit_tally_read_by_index", "pbft.py",
     "if self.id in self.commits.get(key, ()):", "if self.id in self.commits[key]:",
     [f"{ORCH}::test_vote_tallies_hold_no_empty_entries"]),
    ("digest_memo_not_handed_on", "ledger.py",
     "    block.digest = compute_digest(block)\n",
     "    block.digest = hash64(block.serialize_for_digest())\n",
     [f"{LEDGER}::test_a_new_block_is_hashed_once_and_a_flipped_copy_afresh"]),
    ("equality_compares_memos", "ledger.py",
     ' if not name.startswith("_"))', ")",
     ["tests/test_faults.py::test_corrupt_is_involution"]),
    ("no_reverse_latency_pairs", "distributions.py",
     "models = {**{(b, a): d for (a, b), d in pairs.items()}, **pairs}", "models = pairs",
     [f"{NETWORK}::test_pair_specific_model_with_default_fallback",
      f"{NETWORK}::test_latency_echo_round_trips_explicit_reverse_pairs"]),
    ("no_default_delay_model", "distributions.py",
     "model = self.models.get(key, self.default)", "model = self.models.get(key)",
     [f"{LEDGER}::test_validation_delay_constant_and_fallback",
      f"{NETWORK}::test_pair_specific_model_with_default_fallback"]),
    ("exponential_draw_multiplies_by_rate", "distributions.py",
     "/ numbers[0] + 0.5)", "* numbers[0] + 0.5)",
     [f"{NETWORK}::test_each_kind_draws_its_formula_from_random_alone[exponential-{rate}]"
      for rate in ("0.05", "1e-09")] + ["tests/test_poa.py::test_poet_election_matches_min_oracle"]),
    ("world_cycle_kept", "orchestrator.py",
     "        world.engine._handlers.clear()\n        world.kickoff = None\n"
     "        for node in world.nodes.values():\n            node.world = None\n", "",
     [f"{ORCH}::test_a_dropped_result_frees_its_world_without_the_collector[{protocol}]"
      for protocol in ("pbft", "poa", "poet")]),
    ("any_location_accepted", "nodetable.py",
     "if not (isinstance(location, str) or is_int(location)):", "if False:",
     [f"{CLI}::test_bad_schedule_or_node_table_is_validation_error[location_{case}]"
      for case in ("null", "true", "float", "list", "object")]),
    ("merge_compares_totals_only", "network.py",
     "if groups == last:", "if last is not None and groups.keys() == last.keys():",
     [f"{NETWORK}::test_a_batch_merges_only_bodies_with_the_same_members"]),
    ("merged_bodies_reversed", "network.py",
     "receivers[dst](src, bodies)", "receivers[dst](src, bodies[::-1])",
     [f"{NETWORK}::test_a_constant_delay_batch_is_one_group_per_instant",
      f"{NETWORK}::test_a_batch_merges_only_bodies_with_the_same_members"]),
    ("delivery_group_walked_in_reverse", "network.py",
     "for dst, _lat in members:", "for dst, _lat in reversed(members):",
     [f"{NETWORK}::test_one_event_per_delivery_instant",
      f"{NETWORK}::test_grouped_deliveries_keep_the_order_of_one_event_per_recipient",
      f"{NETWORK}::test_a_constant_delay_batch_is_one_group_per_instant"]),
    ("equality_compares_no_slot", "ledger.py",
     'for name in cls.__dict__.get("__slots__", ())', "for name in ()",
     ["tests/test_faults.py::test_corrupt_leaves_tx_gossip_alone"]),
    ("poet_keeps_committed_txs_pooled", "poa.py",
     "        super()._append(block)\n",
     "        kept = dict(self.pool)\n"
     "        super()._append(block)\n        self.pool.update(kept)\n",
     ["tests/test_poa.py::test_poet_run_consistent_and_paced_by_waits",
      "tests/test_golden.py::test_scenario_outputs_match_golden_digests[poet-baseline]"]),
    ("self_cycle_per_day", "orchestrator.py",
     "            try:\n",
     "            cycle = []\n            cycle.append(cycle)\n            try:\n",
     [f"{ORCH}::test_a_finished_run_leaves_no_unreachable_cycle[{name}]"
      for name in ("poa-baseline", "situation1", "empirical-pbft")]),
    ("null_read_as_default", "config.py",
     "if nulls:", "if False:",
     [f"{CLI}::test_bad_config_schema_is_validation_error[{field}_null]"
      for field in ("authority_rule", "latency", "processing_delay", "pbft_timeout",
                    "tx_broadcast_interval")]),
    ("control_calls_walked_as_a_snapshot", "orchestrator.py",
     "for call in calls:", "for call in list(calls):",
     ["tests/test_poa.py::test_a_lone_poet_authority_runs_each_next_round_from_its_own_append"]),
    ("delivery_groups_walked_as_a_snapshot", "network.py",
     "for src, sent_at, bodies, members in groups:",
     "for src, sent_at, bodies, members in list(groups):",
     [f"{NETWORK}::test_a_group_joined_while_its_event_is_delivered_runs_at_its_tail"]),
    ("routes_shared_across_senders", "network.py",
     "(byz, {}, self.streams",
     "(byz, next(iter(self._outbound.values()), (0, {}))[1], self.streams",
     [f"{NETWORK}::test_a_route_never_serves_another_sender"]),
    ("constant_latency_drawn_per_attempt", "network.py",
     "member = None if model.fixed_ms is None else (dst, model.sample_ms(rng))",
     "member = None",
     [f"{NETWORK}::"
      "test_a_constant_latency_is_sampled_once_per_pair_and_a_constant_processing_delay_never"]),
    ("group_recorded_once_whatever_its_bodies", "network.py",
     "record(kind, src, sent_at, members, len(bodies))", "record(kind, src, sent_at, members)",
     [f"{NETWORK}::test_merged_batches_write_the_bytes_of_unmerged_ones[{name}]"
      for name in ("poa-baseline", "situation1-desk", "pbft-viewchange")]),
    ("gossip_batch_pools_committed_txs", "node.py",
     "            if tx.tx_id not in committed:\n                pool.setdefault",
     "            pool.setdefault",
     [f"{NETWORK}::test_the_gossip_handler_takes_a_batch_in_one_call"]),
    ("group_fold_ignores_its_bodies", "reporting.py",
     "agg[0] += times", "agg[0] += 1",
     ["tests/test_reporting.py::test_a_group_of_k_bodies_adds_k_deliveries_to_a_recorded_pair",
      "tests/test_reporting.py::test_a_group_of_k_bodies_records_what_k_one_body_groups_would",
      f"{NETWORK}::test_repeated_injection_batches_write_the_bytes_of_the_reference_model"]),
    ("fold_keeps_the_least_delay", "reporting.py",
     "if delay > agg[2]:", "if delay < agg[2]:",
     ["tests/test_reporting.py::test_aggregates_match_bruteforce_mean_and_max",
      "tests/test_reporting.py::test_a_delivery_group_is_recorded_member_by_member",
      "tests/test_reporting.py::test_the_bulk_fold_equals_a_member_by_member_fold"]),
    ("emptied_instant_read_as_holding_an_event", "engine.py",
     "elif bucket and bucket[-1][0] == target:", "elif bucket[-1][0] == target:",
     ["tests/test_engine.py::test_a_raise_drops_the_rest_of_its_own_list"]),
    ("non_primary_preprepare_accepted", "pbft.py",
     '            self._count("preprepare_not_primary")\n            return\n',
     '            self._count("preprepare_not_primary")\n',
     [f"{PBFT}::test_wrong_view_and_non_primary_preprepares_ignored"]),
    ("conflicting_preprepare_not_counted", "pbft.py",
     '                self._count("preprepare_conflicting")\n', "                pass\n",
     [f"{PBFT}::test_conflicting_preprepare_ignored"]),
    ("invalid_poa_block_accepted", "poa.py",
     '            self._count("block_invalid_digest")\n            return\n',
     '            self._count("block_invalid_digest")\n',
     ["tests/test_poa.py::test_invalid_block_digest_ignored"]),
    ("fork_block_appended", "pbft.py",
     '            self._count("fork_ignored")  # honest blocks do not extend my private fork\n'
     "            return\n",
     '            self._count("fork_ignored")\n',
     [f"{PBFT}::test_active_replica_ignores_an_announced_block_off_its_private_fork"]),
    ("normal_shortcut_skips_second_uniform", "distributions.py",
     "                rng.random()  # the angle the formula would have drawn\n", "",
     ["tests/test_distributions.py::"
      "test_a_normal_draw_equals_its_formula_on_either_side_of_the_shortcut"]
     + [f"{NETWORK}::test_each_kind_draws_its_formula_from_random_alone[normal-{case}]"
        for case in ("2.0-0.5", "5.0-1.0", "1.0-0.25")]
     + [f"tests/test_golden.py::test_fixture_outputs_match_golden_digests[{name}]"
        for name in ("pbft-quorum-small", "poet-days-small")]),
    ("prepare_check_waits_past_quorum", "pbft.py",
     "if len(senders) >= self.quorum:", "if len(senders) > self.quorum:",
     [f"{PBFT}::test_prepare_quorum_triggers_single_commit_broadcast",
      f"{PBFT}::test_commit_quorum_appends_and_announces",
      "tests/test_golden.py::test_fixture_outputs_match_golden_digests[pbft-quorum-small]"]),
    ("primary_of_counts_from_one", "node.py",
     "return authorities[turn % len(authorities)]", "return turn % len(authorities) + 1",
     ["tests/test_poa.py::test_leader_for_height_rotation",
      "tests/test_metamorphic.py::test_an_order_preserving_relabel_changes_nothing_but_the_ids"]),
    ("primary_reproposes_unresolved_height", "pbft.py",
     "if (self.view, self.next_height) in self.preprepared:", "if False:",
     [f"{PBFT}::test_primary_waits_for_its_unresolved_proposal",
      "tests/test_golden.py::test_scenario_outputs_match_golden_digests[pbft-viewchange]"]),
    ("viewchange_certificate_unforged", "messages.py",
     "self.lock.corrupted()", "self.lock",
     ["tests/test_faults.py::test_corrupt_viewchange_junks_only_the_certificate",
      f"{PBFT}::test_new_primary_reproposes_only_a_valid_certificate[tampered_cert]"]),
    ("day_prefix_dropped", "orchestrator.py",
     'raise PermachainError(f"day {day}: {exc}") from exc', "raise",
     [f"{ORCH}::test_a_simulator_error_names_the_day_it_stopped"]),
    ("preprepare_adoption_dropped", "pbft.py",
     "        self.on_newview(sender, msg)\n", "",
     [f"{PBFT}::test_a_later_views_preprepare_moves_a_replica_only_from_that_views_primary"]),
    ("replay_proposes_fresh_block", "pbft.py",
     "self._propose(h, self.chain.blocks[h])", "self._propose(h)",
     [f"{PBFT}::test_new_primary_replays_its_committed_blocks_unchanged"]),
    ("committed_conflict_prepared", "pbft.py",
     "        else:\n            if height > self.chain.height:\n",
     "        if True:  # counted, and prepared all the same\n"
     "            if height > self.chain.height:\n",
     [f"{PBFT}::test_a_preprepare_that_conflicts_with_a_committed_block_is_not_prepared"]),
    ("announce_heard_by_authorities_only", "messages.py",
     '    audience = ALL\n    delay_kind = BLOCK\n    handler = "on_announce"',
     '    audience = AUTHORITIES\n    delay_kind = BLOCK\n    handler = "on_announce"',
     [f"{NETWORK}::test_each_body_class_reaches_its_audience_but_the_sender_in_table_order",
      f"{NETWORK}::test_broadcast_counts_its_sends_and_drops_once",
      "tests/test_oracle.py::"
      "test_pbft_commits_three_hops_after_the_tick_and_followers_one_later[4-2-10-1]",
      "tests/test_golden.py::test_scenario_outputs_match_golden_digests[pbft-viewchange]"]),
    ("route_build_keeps_the_sender", "network.py",
     " for dst in self._audiences[audience] if dst != src])",
     " for dst in self._audiences[audience]])",
     [f"{NETWORK}::test_each_body_class_reaches_its_audience_but_the_sender_in_table_order",
      f"{NETWORK}::test_broadcast_counts_scheduled",
      f"{NETWORK}::test_a_group_joined_while_its_event_is_delivered_runs_at_its_tail",
      "tests/test_faults.py::test_honest_and_active_never_drop"]),
    ("one_route_list_for_both_audiences", "network.py",
     "routes.get(audience) or routes.setdefault(audience, [",
     "routes.get(None) or routes.setdefault(None, [",
     [f"{NETWORK}::test_each_body_class_reaches_its_audience_but_the_sender_in_table_order",
      f"{NETWORK}::test_random_models_draw_once_per_attempt_in_stream_order",
      f"{NETWORK}::test_merged_batches_write_the_bytes_of_unmerged_ones[poa-baseline]",
      "tests/test_golden.py::test_scenario_outputs_match_golden_digests[poa-baseline]"]),
    ("view_timer_adds_a_fixed_millisecond", "pbft.py",
     "block_interval_ms + grace,", "block_interval_ms + grace + 1,",
     ["tests/test_metamorphic.py::"
      "test_scaling_every_millisecond_field_scales_every_instant_and_nothing_else"]),
]


def copy_src(to: Path) -> Path:
    src = to / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return src


def run_tests(src: Path, ids: list[str]) -> dict[str, str]:
    """Run `ids` against the package under `src`: test id -> PASSED, FAILED or ERROR."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import permachain; print(permachain.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(src):
        sys.exit(f"the tests would import permachain from {where.strip()}, not from {src}")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--tb=no", "-rA", *ids], cwd=ROOT, env=env, capture_output=True,
                         text=True).stdout
    outcomes = {}
    for line in out.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR") and rest:
            outcomes[rest.split(" - ")[0]] = word
    return outcomes


def main(names: list[str]) -> int:
    unknown = set(names) - {name for name, *_ in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {sorted(unknown)}")
    mutants = [mutant for mutant in MUTANTS if not names or mutant[0] in names]
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        ids = sorted({test for *_, tests in mutants for test in tests})
        outcomes = run_tests(copy_src(Path(tmp) / "unmutated"), ids)
        for test in ids:
            if outcomes.get(test) != "PASSED":
                bad += 1
                print(f"unmutated: {test} {outcomes.get(test, 'did not run')}")
        for name, file, snippet, replacement, tests in mutants:
            src = copy_src(Path(tmp) / name)
            path = src / "permachain" / file
            text = path.read_text(encoding="utf-8")
            found = text.count(snippet)
            if found != 1:
                bad += 1
                print(f"{name}: the snippet occurs {found} times in {file}, not once")
                continue
            path.write_text(text.replace(snippet, replacement), encoding="utf-8")
            outcomes = run_tests(src, tests)
            survivors = [f"{test} {outcomes.get(test, 'did not run')}" for test in tests
                         if outcomes.get(test) != "FAILED"]
            bad += bool(survivors)
            print(f"{name}: " + (f"SURVIVED {', '.join(survivors)}" if survivors else "killed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
