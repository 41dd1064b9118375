"""Deterministic seeded discrete-event core.

A simulated millisecond clock, an event queue, and a run loop that dispatches
events to registered handlers in (fire_at, seq) order: ties at the same
fire_at go in schedule order, which makes the full event trace a
deterministic function of (configuration, seed). An item scheduled for the
target of the last event queued at its instant joins that event's list, so
`dispatched_count` counts runs of one target's items, such as a run of
delivery groups (see network.py) or of control calls, not items.

Randomness is never drawn from a global generator: every (node, purpose) pair
owns an independent named stream, whose values depend on (seed, node, purpose)
alone. Which draw serves which delivery does not: a sender draws its audience's
latencies from one stream in node-table order, so adding or removing a node can
shift the draws of another. A stream is a stdlib `random.Random`, and
callers take only `random()` from it: that is the one sequence the Python docs
promise to reproduce for a given seed across versions.
"""

from __future__ import annotations

import hashlib
import heapq
import random
import zlib
from collections.abc import Callable

# Reserved pseudo-node id for control work: proposal ticks, injections,
# lottery rounds and pbft timers, each scheduled as a call. Real node ids are >= 1.
COORDINATOR = 0


class RngStreams:
    """Independent, reproducible RNG streams keyed by (node id, purpose tag)."""

    def __init__(self, seed: int):
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
    """Single-threaded event loop with integer-millisecond time.

    The queue is a heap of distinct fire times plus, per fire time, a list of
    (target, [item, ...]) events in schedule order, after the calendar queues of
    Brown (CACM 1988) for integer event times. An instant's list is drained by
    index, so an item scheduled at delay 0 from inside that instant runs after
    every item already in it: exactly the (fire_at, seq) order of one heap
    entry per item.
    """

    def __init__(self):
        self.now = 0  # milliseconds of simulated time
        self._instants: list[int] = []  # heap of the fire times in _buckets
        self._buckets: dict[int, list[tuple[int, list]]] = {}  # fire time -> events
        self._handlers: dict[int, Callable[[list], None]] = {}  # target -> handler
        self.scheduled_count = 0
        self.dispatched_count = 0
        self.discarded_count = 0

    def register(self, target: int, handler: Callable[[list], None]) -> None:
        self._handlers[target] = handler

    def schedule(self, delay: int, target: int, item: object) -> None:
        """Append `item` to the list payload of the last event queued at now() + delay
        if that event is `target`'s, else queue a `target` event with payload [item].

        The order is that of one event per item: adjacent events of one instant run
        back to back, and an item added to the event being dispatched lands where a
        new tail event would run, if its handler walks the list with an iterator (a
        raise drops its unwalked items). Rejects negative delay.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        at = self.now + delay
        bucket = self._buckets.get(at)
        if bucket is None:
            bucket = self._buckets[at] = []
            heapq.heappush(self._instants, at)
        elif bucket and bucket[-1][0] == target:
            bucket[-1][1].append(item)
            return
        bucket.append((target, [item]))
        self.scheduled_count += 1

    def pending(self) -> int:
        return self.scheduled_count - self.dispatched_count - self.discarded_count

    def run_until_idle(self, deadline: int | None = None) -> int:
        """Dispatch events in (fire_at, seq) order until the queue empties.

        Exits early, discarding whatever remains queued, when the next event
        would fire past `deadline`. Returns the final clock value.
        """
        instants, buckets, handlers = self._instants, self._buckets, self._handlers
        limit = float("inf") if deadline is None else deadline
        while instants:
            at = instants[0]
            if at > limit:
                self.discarded_count += self.pending()
                instants.clear()
                buckets.clear()
                break
            assert at >= self.now, "clock monotonicity violated"
            self.now = at
            bucket = buckets[at]
            i = 0
            try:
                while i < len(bucket):  # handlers may append to this instant
                    target, payload = bucket[i]
                    i += 1
                    self.dispatched_count += 1
                    handlers[target](payload)
            except BaseException:
                del bucket[:i]  # a raising handler leaves the rest of its instant queued
                raise
            heapq.heappop(instants)
            del buckets[at]
        return self.now

    def advance_to(self, t: int) -> int:
        """Fast-forward the clock to t without dispatching anything."""
        if t < self.now:
            raise ValueError(f"cannot advance to t={t} before now={self.now}")
        if self._instants and self._instants[0] < t:
            raise ValueError(
                f"cannot skip over pending event at t={self._instants[0]} when advancing to {t}"
            )
        self.now = t
        return self.now
