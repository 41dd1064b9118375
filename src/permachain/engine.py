"""Deterministic seeded discrete-event core.

A simulated millisecond clock, a (fire_at, seq)-ordered event queue, and a run
loop that dispatches events to registered handlers. Ties at the same
fire_at are broken by insertion sequence number, which makes the full event
trace a deterministic function of (configuration, seed).

Randomness is never drawn from a global generator: every (node, purpose) pair
owns an independent named stream, so adding or removing one node cannot
perturb the draws of any other node. A stream is a stdlib `random.Random`, and
callers take only `random()` from it: that is the one sequence the Python docs
promise to reproduce for a given seed across versions.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import zlib
from itertools import count
from typing import Any, Callable, Optional

SimTime = int  # milliseconds of simulated time

# Reserved pseudo-node id for control work: proposal ticks, injections,
# lottery rounds and pbft timers, each scheduled as a call. Real node ids are >= 1.
COORDINATOR = 0


class RngStreams:
    """Independent, reproducible RNG streams keyed by (node id, purpose tag)."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        self.seed = seed
        self._streams: dict[tuple[int, str], random.Random] = {}

    def stream(self, node_id: int, purpose: str) -> random.Random:
        key = (node_id, purpose)
        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = random.Random(stream_seed(self.seed, node_id, purpose))
        return gen


def stream_seed(seed: int, node_id: int, purpose: str) -> int:
    """The integer seed of one stream, injective in (seed, node_id, crc32(purpose)).

    crc32 gives a platform-stable integer for the purpose tag (python's hash()
    is salted per process and would break replay). The triple's decimal text
    leads the seed's bytes, so no two triples share a seed; its SHA-256 follows,
    so even neighbouring triples seed the Mersenne Twister with 256 unrelated bits.
    """
    triple = f"{seed}/{node_id}/{zlib.crc32(purpose.encode('utf-8'))}".encode("ascii")
    return int.from_bytes(triple + hashlib.sha256(triple).digest(), "big")


class EventEngine:
    """Single-threaded event loop with integer-millisecond time."""

    def __init__(self):
        self.now: SimTime = 0
        self._heap: list[tuple[int, int, int, Any]] = []
        self._seq = count()
        self._handlers: dict[int, Callable[[Any], None]] = {}
        self.scheduled_count = 0
        self.dispatched_count = 0
        self.discarded_count = 0

    def register(self, target: int, handler: Callable[[Any], None]) -> None:
        self._handlers[target] = handler

    def schedule(self, delay: int, target: int, payload: Any) -> None:
        """Enqueue `payload` for `target` at now() + delay. Rejects negative delay."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = next(self._seq)
        heapq.heappush(self._heap, (self.now + int(delay), seq, target, payload))
        self.scheduled_count += 1

    def pending(self) -> int:
        return len(self._heap)

    def run_until_idle(self, deadline: Optional[SimTime] = None) -> SimTime:
        """Dispatch events in (fire_at, seq) order until the queue empties.

        Exits early, discarding whatever remains queued, when the next event
        would fire past `deadline`. Returns the final clock value.
        """
        heap, handlers, pop = self._heap, self._handlers, heapq.heappop
        limit = float("inf") if deadline is None else deadline
        while heap:
            if heap[0][0] > limit:
                self.discarded_count += len(heap)
                heap.clear()
                break
            fire_at, _seq, target, payload = pop(heap)
            assert fire_at >= self.now, "clock monotonicity violated"
            self.now = fire_at
            self.dispatched_count += 1
            handler = handlers.get(target)
            if handler is None:
                raise KeyError(f"no handler registered for event target {target}")
            handler(payload)
        return self.now

    def advance_to(self, t: SimTime) -> SimTime:
        """Fast-forward the clock to t without dispatching anything."""
        if t < self.now:
            raise ValueError(f"cannot advance to t={t} before now={self.now}")
        if self._heap and self._heap[0][0] < t:
            raise ValueError(
                f"cannot skip over pending event at t={self._heap[0][0]} when advancing to {t}"
            )
        self.now = t
        return self.now
