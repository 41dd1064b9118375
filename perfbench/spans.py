"""In-memory spans around calls into permachain's layers, and self-time arithmetic.

The tracer never edits the program: `install` replaces public functions and
methods of the imported ``permachain`` modules with wrappers that record one
span (name, start, end, parent) per call. Spans are held in flat arrays while
the run goes on and are written out once, at the end.

A span's self time is its duration minus the time its direct child spans
cover. Children of one parent never overlap (the simulator is single
threaded), so that covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np


class Tracer:
    """Span store: parallel arrays indexed by span number, plus a name table."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]  # open spans; -1 stands for "no parent"

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so that every call records one span called `name`."""
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()

        return traced

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(name, parent, start_ns, end_ns) as numpy arrays."""
        return (np.frombuffer(self.name, dtype=np.uint16),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.start, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.int64))

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names), name=name, parent=parent,
                     start_ns=start, end_ns=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span self time, in the unit of `start`/`end`.

    `parent[i]` is the index of span i's parent, or -1 for a root span.
    """
    dur = (end - start).astype(np.float64)
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - covered


def summarize(names: list[str], name: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray) -> dict[str, dict]:
    """Span name -> {calls, self_s, total_s}, totals in seconds."""
    k = len(names)
    own = self_times(parent, start, end)
    calls = np.bincount(name, minlength=k)
    self_ns = np.bincount(name, weights=own, minlength=k)
    total_ns = np.bincount(name, weights=(end - start).astype(np.float64), minlength=k)
    return {n: {"calls": int(calls[i]), "self_s": float(self_ns[i]) / 1e9,
                "total_s": float(total_ns[i]) / 1e9}
            for i, n in enumerate(names)}


class Probe:
    """Counts taken at span boundaries that the spans themselves do not give."""

    def __init__(self):
        self.pending_peak = 0
        self.missing: list[str] = []  # boundaries the program no longer has

    def see(self, engine) -> None:
        n = engine.pending()
        if n > self.pending_peak:
            self.pending_peak = n


# Node-class entry points the orchestrator calls; their self time is the
# protocol handler time.
NODE_METHODS = ("receive", "on_timer", "maybe_propose", "start_day")

RECORDER_HOOKS = ("message_sent", "message_dropped", "record_delivery", "tx_created",
                  "on_append", "on_view_adopted")


def install(tracer: Tracer) -> Probe:
    """Wrap permachain's layer boundaries in spans; call before `run_all`.

    A boundary the program no longer has is skipped and listed in
    `Probe.missing`, so a refactor loses that span rather than the run.
    """
    from permachain import (distributions, engine, faults, ledger, network, orchestrator,
                            pbft, poa, reporting)

    probe = Probe()

    def patch(name, owner, attr, *aliases):
        """Wrap `owner.attr`, and every alias module that imported the same object."""
        original = getattr(owner, attr, None)
        if original is None:
            probe.missing.append(f"{owner.__name__}.{attr}")
            return
        traced = tracer.wrap(name, original)
        setattr(owner, attr, traced)
        for alias in aliases:
            if getattr(alias, attr, None) is original:
                setattr(alias, attr, traced)
            else:
                probe.missing.append(f"{alias.__name__}.{attr}")

    patch("orchestrator.run_all", orchestrator, "run_all")
    patch("orchestrator.run_day", orchestrator, "run_day")
    patch("orchestrator.world_build", orchestrator.World, "__init__")
    patch("orchestrator.block_appended", orchestrator.World, "_on_block_appended")
    patch("poa.poet_elect", poa, "poet_elect", orchestrator)
    patch("reporting.build_report", reporting, "build_report", orchestrator)
    patch("reporting.emit_json", reporting, "emit_json")
    patch("reporting.emit_timeseries_csv", reporting, "emit_timeseries_csv")
    for hook in RECORDER_HOOKS:
        patch(f"reporting.recorder.{hook}", reporting.RunRecorder, hook)

    patch("network.send", network.Network, "send")
    patch("network.broadcast", network.Network, "broadcast")
    patch("faults.should_drop", faults, "should_drop", network)
    patch("faults.corrupt", faults, "corrupt", network)
    patch("engine.stream", engine.RngStreams, "stream")
    patch("ledger.compute_digest", ledger, "compute_digest", pbft, poa)
    patch("ledger.chain_append", ledger.Chain, "append")

    for cls, layer in ((pbft.PbftReplica, "pbft"), (pbft.PbftFollower, "pbft"),
                       (poa.PoaNode, "poa")):
        for method in NODE_METHODS:
            patch(f"{layer}.{method}", cls, method)
    patch("poa.propose_lottery", poa.PoaNode, "propose_lottery")

    sample_ms = distributions.Distribution.sample_ms
    constant = tracer.wrap("distributions.sample_ms.constant", sample_ms)
    drawn = tracer.wrap("distributions.sample_ms.random", sample_ms)

    def split_sample_ms(self, rng):
        return (constant if self.kind == "constant" else drawn)(self, rng)

    distributions.Distribution.sample_ms = split_sample_ms

    run_until_idle = tracer.wrap("engine.run_until_idle", engine.EventEngine.run_until_idle)

    def traced_run_until_idle(self, *args, **kwargs):
        probe.see(self)
        return run_until_idle(self, *args, **kwargs)

    engine.EventEngine.run_until_idle = traced_run_until_idle

    register = engine.EventEngine.register

    def traced_register(self, target, handler):
        name = ("orchestrator.control" if target == engine.COORDINATOR
                else "orchestrator.node_handler")

        def observed(payload, _handler=handler, _engine=self):
            _handler(payload)
            probe.see(_engine)  # the queue only grows inside a handler

        register(self, target, tracer.wrap(name, observed))

    engine.EventEngine.register = traced_register
    return probe
