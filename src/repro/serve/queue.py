"""Bounded priority queue with O(1) cancellation and key-based group pops.

The admission queue between :meth:`JobServer.submit` and the worker
tenders.  Three properties the stdlib queues do not give us together:

* **priority + FIFO** — entries pop highest ``priority`` first and in
  submission order within a priority level (a monotonic sequence number
  breaks ties, so equal-priority jobs can never reorder);
* **cancellation of queued entries** — ``cancel(job_id)`` marks the
  heap entry dead in O(1) (lazy deletion: the heap skips dead entries
  on pop) and immediately frees its slot against the depth bound;
* **group pops for the coalescing scheduler** — ``pop(group_key=...)``
  pops the head and then *also* claims up to ``group_limit - 1`` live
  entries sharing the head's group key, in priority order, via a
  per-key index.  Claimed members inherit the head's scheduling slot —
  that is the documented batching trade (see ``docs/serving.md``).

The depth bound counts **live** entries only; backpressure is the
caller's contract (``put`` raises :class:`QueueFullError`), so the
queue can never grow without bound.
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import defaultdict

from repro.serve.job import QueueFullError

__all__ = ["PriorityJobQueue"]


class _Entry:
    __slots__ = ("job_id", "order", "item", "key", "live")

    def __init__(self, job_id: str, order: tuple, item, key) -> None:
        self.job_id = job_id
        self.order = order  # (-priority, seq): heap pops smallest
        self.item = item
        self.key = key
        self.live = True

    def __lt__(self, other: "_Entry") -> bool:
        return self.order < other.order


class PriorityJobQueue:
    """See module docstring.  Items are opaque; ids/keys are caller-supplied."""

    def __init__(self, depth: int) -> None:
        depth = int(depth)
        if depth <= 0:
            raise ValueError(f"queue depth must be positive, got {depth}")
        self.depth = depth
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._heap: list[_Entry] = []
        self._by_id: dict[str, _Entry] = {}
        self._by_key: dict[object, list[_Entry]] = defaultdict(list)
        self._live = 0
        self._seq = itertools.count()
        self._closed = False

    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        with self._lock:
            return self._live

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, job_id: str, item, priority: int = 0, key=None) -> None:
        """Enqueue; raises :class:`QueueFullError` at the depth bound."""
        with self._lock:
            if self._closed:
                raise RuntimeError("queue is closed")
            if self._live >= self.depth:
                raise QueueFullError(self.depth)
            entry = _Entry(job_id, (-int(priority), next(self._seq)), item, key)
            self._heap_push(entry)
            self._by_id[job_id] = entry
            if key is not None:
                self._by_key[key].append(entry)
            self._live += 1
            self._not_empty.notify()

    def _heap_push(self, entry: _Entry) -> None:
        heapq.heappush(self._heap, entry)

    def cancel(self, job_id: str):
        """Drop a queued entry; returns its item, or ``None`` if absent.

        O(1): the entry is only *marked* dead — the heap and key index
        skip dead entries lazily — but its depth slot frees immediately.
        """
        with self._lock:
            entry = self._by_id.pop(job_id, None)
            if entry is None or not entry.live:
                return None
            entry.live = False
            self._live -= 1
            return entry.item

    def pop(
        self,
        timeout: float | None = None,
        *,
        group_key=None,
        group_limit: int = 1,
    ):
        """Pop the highest-priority live item (plus its group, if asked).

        Returns a list of items — ``[head]`` for a plain pop, up to
        ``group_limit`` same-key items when ``group_key`` is a callable
        ``item -> key | None`` and the head's key is not ``None``.
        Returns ``None`` on timeout, or when the queue is closed and
        empty (the tender's exit signal).
        """
        with self._not_empty:
            while True:
                head = self._pop_live_locked()
                if head is not None:
                    break
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
        items = [head.item]
        if group_key is not None and group_limit > 1:
            key = group_key(head.item)
            if key is not None:
                items.extend(self._claim_group(key, group_limit - 1))
        return items

    def _pop_live_locked(self):
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.live:
                entry.live = False
                self._live -= 1
                self._forget(entry)
                return entry
        return None

    def _forget(self, entry: _Entry) -> None:
        if self._by_id.get(entry.job_id) is entry:
            del self._by_id[entry.job_id]

    def _claim_group(self, key, limit: int) -> list:
        """Claim up to ``limit`` live same-key entries, in priority order."""
        with self._lock:
            entries = [e for e in self._by_key.get(key, ()) if e.live]
            entries.sort()
            claimed = entries[:limit]
            for entry in claimed:
                entry.live = False
                self._live -= 1
                self._forget(entry)
            if not any(e.live for e in self._by_key.get(key, ())):
                self._by_key.pop(key, None)
            return [e.item for e in claimed]

    # ------------------------------------------------------------------ #

    def close(self) -> list:
        """Stop accepting; wake poppers; return the still-queued items.

        The caller decides their fate: a draining shutdown re-queues
        nothing (tenders already consumed everything before close), a
        fast shutdown finalizes them as cancelled.
        """
        with self._lock:
            self._closed = True
            remaining = []
            while True:
                entry = self._pop_live_locked()
                if entry is None:
                    break
                remaining.append(entry.item)
            self._not_empty.notify_all()
            return remaining
