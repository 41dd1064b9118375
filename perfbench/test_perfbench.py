"""Tests for the benchmark itself: generator, output checks, span arithmetic.

Run from the repository root: PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import inputs
import run
import spans

TINY = 0.01


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, tmp_path):
    a = inputs.write(workload, 7, tmp_path / "a")
    b = inputs.write(workload, 7, tmp_path / "b")
    assert {n: p.read_bytes() for n, p in a.items()} == {n: p.read_bytes() for n, p in b.items()}
    assert inputs.render(workload, 7) != inputs.render(workload, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_generated_inputs_load_honest_nodes_only(workload, tmp_path):
    from permachain.config import RunConfig
    from permachain.nodetable import parse_node_table
    from permachain.workload import load_schedule

    files = inputs.write(workload, 3, tmp_path)
    raw = json.loads(files["config.json"].read_text())
    assert "record_sampling" not in raw
    config = RunConfig.from_dict(raw)
    table = parse_node_table(files["nodes.csv"], config.authority_rule)
    schedule = load_schedule(files["transactions.json"], set(table.ids))
    loaded = {n for day in schedule.days for n, c in schedule.loads_for(day).items() if c}
    assert loaded <= table.benign()


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_tiny_run_passes_every_check(workload):
    bench = run.Bench(workload, 5, scale=TINY)
    try:
        run.measure(bench, 0, traced=True, min_runs=1)
    finally:
        bench.close()
    assert [r.problems for r in bench.runs if r.problems] == []
    assert sorted(r.kind for r in bench.runs) == ["cli", "full", "setup", "setup", "traced"]
    e2e = run.end_to_end(bench)
    assert set(e2e) == set(run.E2E_UNITS) and all(v and min(v) > 0 for v in e2e.values())
    assert len(bench.yardstick_s) == bench.attempted + 1  # one before and one after each run
    host = run.end_to_end(bench, scaled=False)
    assert e2e["wall_s"] == [s * r.scale for s, r in zip(host["wall_s"], bench.good("full"))]
    layers = run.per_layer(bench)
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert [n for n, v in layers.items() if run.PER_LAYER_UNITS[n] == "s" and v <= 0] == []
    assert layers["network.send_calls"] == layers["sim.messages_sent"] + layers["network.drops"]
    pbft_counts = (layers["pbft.messages_handled"], layers["pbft.view_changes"])
    assert (pbft_counts == (0, 0)) == (workload == "poet-days")


def test_yardstick_does_fixed_work():
    (seconds, digest), (_, again) = run.yardstick(), run.yardstick()
    assert seconds > 0 and digest == again


def test_changed_outputs_count_as_failed_runs(tmp_path):
    bench = run.Bench("poet-days", 5, scale=TINY)
    try:
        reference = bench.cli()
        assert not reference.problems
        out = tmp_path / "out"
        subprocess.run([sys.executable, "-m", "permachain.cli", *bench._inputs_argv(),
                        "--out", str(out), "--emit-csv"], env=bench.env, check=True)
        report = json.loads((out / "report.json").read_text())
        report["totals"]["txs_committed"] = 0
        (out / "report.json").write_text(json.dumps(report))
        stats = {"stamps": {}, "events": {"dispatched": 1, "discarded": 0}}
        fake = run.Run("full", 0, 0.0, 1.0, json.dumps(stats), "")
        bench.runs.append(fake)
        bench._check_outputs(fake, out)
    finally:
        bench.close()
    assert any("committed 0 of" in p for p in fake.problems)
    assert any("report.json sha256 differs" in p for p in fake.problems)
    assert not any("timeseries" in p for p in fake.problems)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_self_time_on_hand_built_tree():
    #   0 [0,100] ── 1 [10,40] ── 2 [15,25]
    #            └── 3 [50,90]
    #   4 [200,210]
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0, 10, 15, 50, 200])
    end = np.array([100, 40, 25, 90, 210])
    assert spans.self_times(parent, start, end).tolist() == [30, 20, 10, 40, 10]

    names = ["root", "leaf"]
    name = np.array([0, 0, 1, 1, 0])
    summary = spans.summarize(names, name, parent, start * 10**9, end * 10**9)
    assert summary["root"] == {"calls": 3, "self_s": 60.0, "total_s": 140.0}
    assert summary["leaf"] == {"calls": 2, "self_s": 50.0, "total_s": 50.0}


def test_tracer_records_nesting_and_survives_exceptions():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def body(fail):
        inner()
        if fail:
            raise ValueError
        inner()

    outer = tracer.wrap("outer", body)
    outer(False)
    with pytest.raises(ValueError):
        outer(True)
    name, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name] == ["outer", "inner", "inner", "outer", "inner"]
    assert parent.tolist() == [-1, 0, 0, -1, 3]
    assert (end >= start).all()
    own = spans.self_times(parent, start, end)
    assert own.sum() == pytest.approx(float((end - start)[parent < 0].sum()))


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    for path in ("BENCHMARK.json", "perfbench"):
        src = run.ROOT / path
        if src.is_dir():
            shutil.copytree(src, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy(src, tmp_path / path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "poet-days",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
