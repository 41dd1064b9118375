#!/usr/bin/env python3
"""permachain benchmark: host cost of seeded workloads, checked for correctness.

Usage (from the repository root):

    python3 perfbench/run.py --workload gossip-flood --seed 1 --seconds 30 --trace 0

One invocation generates the workload's inputs from --seed, runs the real
``permachain`` CLI once on them as the reference, then runs the workload in
fresh child interpreters (see child.py) for --seconds. Every run's outputs are
checked. With --trace 0 the last stdout line carries the end-to-end metrics,
medians over the untraced runs, with times scaled by a yardstick timed around
each run; with --trace 1 it carries the per-layer metrics of traced runs,
which alternate with untraced ones. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_RUNS = 3          # untraced full runs, even when --seconds is spent
HARD_LIMIT_S = 170.0  # one invocation must end within 180 s
YARDSTICK_S = 0.3     # nominal yardstick time: times are scaled to a host this fast

CONSENSUS_KINDS = ("PrePrepare", "Prepare", "Commit", "ViewChange", "NewView",
                   "BlockAnnounce")

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "sim_msgs_per_s": "1/s", "peak_rss_mb": "MiB"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def yardstick() -> tuple[float, str]:
    """Time a fixed pure-Python job like the simulator's: heap, dicts, draws, JSON, hash.

    It never depends on the program, so the time it takes tracks only how fast
    the host runs Python at that moment. Returns (seconds, digest of its output).
    """
    started = now()
    rng = random.Random(7)
    heap: list = []
    done: dict = {}
    for i in range(150_000):
        heapq.heappush(heap, (rng.random(), i, "event"))
        if i % 3 == 0:
            t, j, _ = heapq.heappop(heap)
            done[j] = {"t": t, "node": j % 17, "kind": f"msg{j}"}
    digest = hashlib.sha256(json.dumps(list(done.values())).encode()).hexdigest()
    return now() - started, digest


class Run:
    """One child process: its exit, its clock stamps and what it printed.

    `scale` converts its host seconds to yardstick seconds: YARDSTICK_S over
    the mean time of the yardstick runs just before and just after it.
    """

    def __init__(self, kind: str, rc: int, spawn: float, exit_: float, stdout: str,
                 stderr: str, scale: float = 1.0):
        self.kind, self.spawn, self.exit, self.scale = kind, spawn, exit_, scale
        self.stats: dict = {}
        self.problems: list[str] = []
        if rc != 0:
            self.problems.append(f"exit status {rc}: {stderr.strip()[-300:]}")
        elif kind != "cli":
            try:
                self.stats = json.loads(stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                self.problems.append("no stats line on stdout")

    def since_spawn(self, stamp: str) -> float:
        return self.stats["stamps"][stamp] - self.spawn

    def phase(self, start: str, end: str) -> float:
        return self.stats["stamps"][end] - self.stats["stamps"][start]


class Bench:
    """Runs children for one (workload, seed), checks each, keeps the good ones."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        self.workload, self.seed = workload, seed
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.deadline = now() + HARD_LIMIT_S
        shutil.rmtree(self.work, ignore_errors=True)
        self.files = inputs.write(workload, seed, self.work / "inputs", scale)
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.runs: list[Run] = []
        self.reference: dict = {}   # simulated statistics every run must repeat
        self.report: dict = {}      # counts from the first report
        self.out_bytes: dict = {}
        self.yardstick_s: list[float] = []  # every yardstick time, in order

    def _yardstick(self) -> float:
        seconds, _ = yardstick()
        self.yardstick_s.append(seconds)
        return seconds

    # -- spawning -------------------------------------------------------------

    def _spawn(self, kind: str, argv: list[str]) -> Run:
        before = self.yardstick_s[-1] if self.yardstick_s else self._yardstick()
        timeout = max(1.0, self.deadline - now())
        spawn = now()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
            rc, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            rc, stdout, stderr = -9, "", f"timed out after {exc.timeout:.0f} s"
        exit_ = now()
        after = self._yardstick()
        run = Run(kind, rc, spawn, exit_, stdout, stderr, YARDSTICK_S * 2 / (before + after))
        self.runs.append(run)
        return run

    def _inputs_argv(self) -> list[str]:
        return ["--config", str(self.files["config.json"]),
                "--nodes", str(self.files["nodes.csv"]),
                "--transactions", str(self.files["transactions.json"])]

    def cli(self) -> Run:
        """The real CLI once, as the byte-level reference for every child."""
        out = self.work / "cli"
        run = self._spawn("cli", [sys.executable, "-m", "permachain.cli", *self._inputs_argv(),
                                  "--out", str(out), "--emit-csv"])
        self._check_outputs(run, out)
        return run

    def setup_only(self) -> Run:
        return self._spawn("setup", [sys.executable, str(HERE / "child.py"),
                                     *self._inputs_argv(), "--out", str(self.work / "unused"),
                                     "--setup-only"])

    def full(self, traced: bool = False) -> Run:
        out = self.work / f"run{len(self.runs)}"
        argv = [sys.executable, str(HERE / "child.py"), *self._inputs_argv(), "--out", str(out)]
        if traced:
            spans_dir = ROOT / ".perfbench_work" / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            argv += ["--spans", str(spans_dir / f"{self.workload}-{self.seed}.npz")]
        run = self._spawn("traced" if traced else "full", argv)
        self._check_outputs(run, out)
        return run

    # -- checks -----------------------------------------------------------------

    def _check_outputs(self, run: Run, out: Path) -> None:
        if run.problems:
            return
        try:
            report_path, csv_path = out / "report.json", out / "timeseries.csv"
            report = json.loads(report_path.read_bytes())
            totals = report["totals"]
            if totals["txs_committed"] != totals["txs_scheduled"]:
                run.problems.append(f"committed {totals['txs_committed']} of "
                                    f"{totals['txs_scheduled']} scheduled transactions")
            seen = {
                "report.json sha256": sha256(report_path),
                "timeseries.csv sha256": sha256(csv_path),
                "messages_by_kind": report["messages_by_kind"],
                "drops_by_kind": report["drops_by_kind"],
                "final heights": {n["node"]: n["block_count"] for n in report["nodes"]},
                "day end sim times": [d["day_end_sim_time"] for d in report["days"]],
            }
            if run.stats:
                seen["events dispatched"] = run.stats["events"]["dispatched"]
                seen["events discarded"] = run.stats["events"]["discarded"]
            for key, value in seen.items():
                if key not in self.reference:
                    self.reference[key] = value
                elif self.reference[key] != value:
                    run.problems.append(f"{key} differs from the first run")
            if not self.report:  # the counts per_layer needs, not 15 MB of records
                self.report = {k: report[k] for k in ("config", "days", "messages_by_kind",
                                                      "drops_by_kind", "reference_node", "totals")}
                self.report["records"] = len(report.get("propagation", {}).get("records", ()))
                self.out_bytes = {"report": report_path.stat().st_size,
                                  "csv": csv_path.stat().st_size}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            run.problems.append(f"unreadable outputs: {exc!r}")
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def good(self, kind: str) -> list[Run]:
        return [r for r in self.runs if r.kind == kind and not r.problems]

    @property
    def attempted(self) -> int:
        return len(self.runs)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.problems)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(bench: Bench, seconds: float, traced: bool, min_runs: int = MIN_RUNS) -> None:
    """The reference CLI run, then runs for `seconds`, each full run after a setup-only one.

    Spreading the setup-only runs over the window lets their median ride out
    the same slow swings in machine speed as the full runs. In trace mode,
    traced and untraced full runs alternate.
    """
    bench.cli()
    stop = now() + seconds
    pair = 0.0  # duration of the last setup-only + full pair
    while now() < bench.deadline - 20:
        fulls = len(bench.good("full"))
        traces = len(bench.good("traced"))
        # start another pair only while at least half of it fits in the window
        if now() + pair / 2 >= stop and fulls >= min_runs and (traces >= 1 or not traced):
            break
        if bench.failed > bench.attempted // 2 + 1:
            break  # a broken program: stop early, the result says so
        started = now()
        bench.setup_only()
        bench.full(traced=traced and traces < fulls)
        pair = now() - started


# -- metrics -------------------------------------------------------------------------


def end_to_end(bench: Bench, scaled: bool = True) -> dict[str, list[float]]:
    """Samples of each end-to-end metric over the good untraced runs.

    Times are in yardstick seconds (see Run), or in host seconds if not `scaled`.
    """
    fulls = bench.good("full")
    messages = sum(bench.report["messages_by_kind"].values())

    def scale(r: Run) -> float:
        return r.scale if scaled else 1.0

    return {
        "wall_s": [(r.exit - r.spawn) * scale(r) for r in fulls],
        "setup_s": [r.since_spawn("run_all") * scale(r) for r in fulls + bench.good("setup")],
        "sim_msgs_per_s": [messages / (r.phase("run_all", "emit_json") * scale(r))
                           for r in fulls],
        "peak_rss_mb": [r.stats["peak_rss_kib"] / 1024 for r in fulls],
    }


def per_layer(bench: Bench) -> dict[str, float]:
    """Per-layer metrics: medians over traced runs of span self times and counts."""
    fulls, traced = bench.good("full"), bench.good("traced")
    report = bench.report
    med = statistics.median
    run_all_s = med(r.phase("run_all", "emit_json") for r in fulls)
    dispatched = fulls[0].stats["events"]["dispatched"]
    protocol = report["config"]["protocol"]
    ref_blocks = bench.reference["final heights"][report["reference_node"]]
    msgs = report["messages_by_kind"]
    drops = sum(report["drops_by_kind"].values())

    def from_spans(run: Run) -> dict[str, float]:
        spans = run.stats["spans"]

        def calls(*names):
            return sum(spans.get(n, {}).get("calls", 0) for n in names)

        def self_s(*names):
            return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

        def layer_self(layer):
            return sum(v["self_s"] for n, v in spans.items() if n.startswith(layer + "."))

        const, drawn = "distributions.sample_ms.constant", "distributions.sample_ms.random"
        sends = calls("network.send")
        pbft = protocol == "pbft"
        return {
            "engine.dispatch_self_s": self_s("engine.run_until_idle"),
            "engine.pending_peak": run.stats["pending_peak"],
            "engine.stream_calls": calls("engine.stream"),
            "engine.stream_s": self_s("engine.stream"),
            "network.send_calls": sends,
            "network.send_self_s": self_s("network.send"),
            "network.broadcast_calls": calls("network.broadcast"),
            "network.drop_share": drops / sends if sends else 0.0,
            "distributions.sample_calls": calls(const, drawn),
            "distributions.sample_calls.constant": calls(const),
            "distributions.sample_calls.random": calls(drawn),
            "distributions.sample_s": self_s(const, drawn),
            "faults.should_drop_calls": calls("faults.should_drop"),
            "faults.corrupt_calls": calls("faults.corrupt"),
            "faults.s": self_s("faults.should_drop", "faults.corrupt"),
            "ledger.compute_digest_calls": calls("ledger.compute_digest"),
            "ledger.compute_digest_s": self_s("ledger.compute_digest"),
            "ledger.chain_appends": calls("ledger.chain_append"),
            "protocol.handler_self_s": layer_self("pbft") + layer_self("poa"),
            "pbft.messages_handled": calls("pbft.receive"),
            "poa.poet_elect_calls": calls("poa.poet_elect"),
            "orchestrator.world_build_s": spans.get("orchestrator.world_build",
                                                    {}).get("total_s", 0.0),
            "orchestrator.run_day_self_s": self_s("orchestrator.run_day"),
            "orchestrator.control_events": calls("orchestrator.control"),
            "orchestrator.control_self_s": self_s("orchestrator.control"),
            "reporting.recorder_s": layer_self("reporting.recorder"),
            "reporting.build_report_s": self_s("reporting.build_report"),
            "reporting.emit_json_s": self_s("reporting.emit_json"),
            "reporting.emit_csv_s": self_s("reporting.emit_timeseries_csv"),
            "pbft.view_changes": sum(d["view_changes"] for d in report["days"]) if pbft else 0,
            "pbft.consensus_msgs_per_block": (sum(msgs.get(k, 0) for k in CONSENSUS_KINDS)
                                              / ref_blocks if pbft and ref_blocks else 0.0),
            "pbft.proposals_per_block": (msgs.get("PrePrepare", 0) / ref_blocks
                                         if pbft and ref_blocks else 0.0),
            "poa.blocks": 0 if pbft else ref_blocks,
        }

    samples = [from_spans(r) for r in traced]
    metrics = {k: med(s[k] for s in samples) for k in samples[0]}
    untraced_wall = med(r.since_spawn("done") * r.scale for r in fulls)
    metrics.update({
        "setup.interpreter_s": med(r.since_spawn("start") for r in fulls + bench.good("setup")),
        "setup.import_s": med(r.phase("import", "parse") for r in fulls + bench.good("setup")),
        "setup.parse_s": med(r.phase("parse", "run_all") for r in fulls + bench.good("setup")),
        "engine.events_scheduled": fulls[0].stats["events"]["scheduled"],
        "engine.events_dispatched": dispatched,
        "engine.events_discarded": fulls[0].stats["events"]["discarded"],
        "engine.events_per_s": dispatched / run_all_s,
        "engine.us_per_event": run_all_s / dispatched * 1e6,
        "network.drops": drops,
        "orchestrator.days": len(report["days"]),
        "reporting.records": report["records"],
        "reporting.report_bytes": bench.out_bytes["report"],
        "reporting.csv_bytes": bench.out_bytes["csv"],
        "trace.overhead": med(r.since_spawn("done") * r.scale for r in traced) / untraced_wall,
        "sim.messages_sent": sum(msgs.values()),
        "sim.end_time_ms": report["days"][-1]["day_end_sim_time"],
    })
    return metrics


# Per-layer metric -> unit, in the order of the layer table in README.md. Every
# time metric covers work that all three workloads do, so none is a structural
# zero; the counts show which protocol or kind of draw it was.
PER_LAYER_UNITS = {
    "setup.interpreter_s": "s", "setup.import_s": "s", "setup.parse_s": "s",
    "engine.events_scheduled": "count", "engine.events_dispatched": "count",
    "engine.events_discarded": "count", "engine.dispatch_self_s": "s",
    "engine.events_per_s": "1/s", "engine.us_per_event": "us",
    "engine.pending_peak": "count", "engine.stream_calls": "count", "engine.stream_s": "s",
    "network.send_calls": "count", "network.send_self_s": "s",
    "network.broadcast_calls": "count", "network.drops": "count", "network.drop_share": "share",
    "distributions.sample_calls": "count", "distributions.sample_calls.constant": "count",
    "distributions.sample_calls.random": "count", "distributions.sample_s": "s",
    "faults.should_drop_calls": "count", "faults.corrupt_calls": "count", "faults.s": "s",
    "ledger.compute_digest_calls": "count", "ledger.compute_digest_s": "s",
    "ledger.chain_appends": "count",
    "protocol.handler_self_s": "s",
    "pbft.messages_handled": "count", "pbft.view_changes": "count",
    "pbft.consensus_msgs_per_block": "msgs/block", "pbft.proposals_per_block": "msgs/block",
    "poa.blocks": "count", "poa.poet_elect_calls": "count",
    "orchestrator.world_build_s": "s", "orchestrator.days": "count",
    "orchestrator.run_day_self_s": "s", "orchestrator.control_events": "count",
    "orchestrator.control_self_s": "s",
    "reporting.recorder_s": "s", "reporting.records": "count", "reporting.build_report_s": "s",
    "reporting.emit_json_s": "s", "reporting.emit_csv_s": "s", "reporting.report_bytes": "bytes",
    "reporting.csv_bytes": "bytes",
    "trace.overhead": "ratio",
    "sim.messages_sent": "count", "sim.end_time_ms": "sim_ms",
}


# -- output ------------------------------------------------------------------------


def describe(bench: Bench, lines: list[str]) -> None:
    """Human-readable lines: runs, failures, simulated statistics."""
    kinds = {k: len([r for r in bench.runs if r.kind == k])
             for k in ("cli", "setup", "full", "traced")}
    lines.append(f"{bench.workload} seed {bench.seed}: {kinds['full']} untraced runs, "
                 f"{kinds['traced']} traced, {kinds['setup']} setup-only, {kinds['cli']} CLI "
                 f"reference; {bench.failed} of {bench.attempted} failed a check")
    for r in bench.runs:
        for p in r.problems:
            lines.append(f"  FAILED {r.kind} run: {p}")
    if bench.report:
        rep, ref = bench.report, bench.reference
        lines.append("simulated (identical in every run):")
        messages = sum(rep["messages_by_kind"].values())
        lines.append(f"  events dispatched {ref.get('events dispatched')}, discarded "
                     f"{ref.get('events discarded')}; messages {messages} "
                     f"{rep['messages_by_kind']}; drops {rep['drops_by_kind']}")
        lines.append(f"  days {len(rep['days'])}, day end sim times (ms) "
                     f"{ref['day end sim times'][:6]}{' ...' if len(rep['days']) > 6 else ''}; "
                     f"txs committed {rep['totals']['txs_committed']}"
                     f"/{rep['totals']['txs_scheduled']}")
        lines.append(f"  report.json {ref['report.json sha256'][:16]}, "
                     f"timeseries.csv {ref['timeseries.csv sha256'][:16]}")


def layer_shares(bench: Bench, lines: list[str]) -> None:
    """Self time per layer in the first traced run, as a share of its wall time."""
    run = bench.good("traced")[0]
    wall = run.since_spawn("done")
    by_layer: dict[str, float] = {}
    for name, v in run.stats["spans"].items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + v["self_s"]
    lines.append(f"layer self time, traced run ({run.stats['span_count']} spans, "
                 f"wall {wall:.3f} s):")
    for layer, s in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<14} {s:8.3f} s  {s / wall:6.1%}")
    outside = wall - sum(by_layer.values())
    lines.append(f"  {'(outside)':<14} {outside:8.3f} s  {outside / wall:6.1%}"
                 "  interpreter, imports, parsing, tracer")
    if run.stats.get("missing"):
        lines.append(f"  not traced (absent from the program): {run.stats['missing']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "permachain" / "__init__.py").is_file():
        print(f"error: no permachain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    try:
        measure(bench, args.seconds, traced=bool(args.trace))
    finally:
        bench.close()
    if not bench.good("full") or (args.trace and not bench.good("traced")):
        for r in bench.runs:
            for p in r.problems:
                print(f"FAILED {r.kind} run: {p}", file=sys.stderr)
        print("error: no run completed its checks; no result", file=sys.stderr)
        return 1

    lines: list[str] = []
    describe(bench, lines)
    metrics: dict[str, dict] = {}
    if args.trace:
        layer_shares(bench, lines)
        lines.append("per-layer metrics (medians over traced runs; counts are simulated):")
        values = per_layer(bench)
        for name, unit in PER_LAYER_UNITS.items():
            value = values[name]
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"  {name:<38} {value:14.6g} {unit}")
    else:
        q1, q2, q3 = quartiles(bench.yardstick_s)
        lines.append(f"yardstick: median {q2:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, "
                     f"n={len(bench.yardstick_s)}); nominal {YARDSTICK_S} s")
        lines.append("end-to-end metrics (median, quartiles, sample count; times in "
                     "yardstick seconds, host seconds after the bar):")
        host = end_to_end(bench, scaled=False)
        for name, values in end_to_end(bench).items():
            q1, q2, q3 = quartiles(values)
            metrics[name] = {"value": q2, "unit": E2E_UNITS[name]}
            lines.append(f"  {name:<16} {q2:12.6g} {E2E_UNITS[name]:<4} "
                         f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}"
                         f"  | {statistics.median(host[name]):.6g}")
        lines.append(f"  {'failed_run_share':<16} {bench.failed / bench.attempted:12.6g} share"
                     f" ({bench.failed} of {bench.attempted} runs)")
    print("\n".join(lines))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
