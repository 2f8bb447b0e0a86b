"""Discrete-event simulation engine: one binary-heap pending-event set.

Events are totally ordered by ``(time, priority, seq)``: ties on time are
broken first by an explicit integer priority, then by insertion order, so
repeated runs with the same seed replay identically — a property the
reproduction's regression tests rely on.

The pending-event set is a single ``heapq`` list owned by
:class:`Simulator`.  Entries are plain ``(time, priority, seq, payload)``
tuples, so every sift compares at C speed; ``seq`` is unique, so the
payload never compares.  The payload is a bare callback for
fire-and-forget events (the vast majority — link deliveries, pipeline
stages) or an :class:`_Event` when the caller holds a cancellation handle.
Cancelled events are deleted lazily: they stay on the heap as tombstones
and are dropped when they surface, or all at once when tombstones
outnumber live events, so a workload that arms-and-cancels timers cannot
grow the queue without bound.  Compaction rewrites the list in place,
because :class:`LaneView` and :meth:`repro.sim.link.Link.send` push into
the same list object.

Scheduling surface (see docs/DETERMINISM.md for the full contract):

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` — cancellable,
  return an :class:`EventHandle`.
* :meth:`Simulator.post` / :meth:`Simulator.post_at` — fire-and-forget; the
  hot paths use these because they skip the handle and the event object.
* :meth:`Simulator.schedule_batch` — bulk insertion with sequence numbers
  assigned in iteration order, bit-identical to a loop of ``schedule`` calls.

Apart from :meth:`repro.sim.link.Link.send`, which pushes link deliveries
straight onto the heap, model code goes through these public methods (and
:meth:`Simulator.run`) and never binds them as instance attributes:
instrumentation wraps them at class level, and a per-instance binding
would bypass it.

Sequence numbers and lanes
--------------------------

``seq`` defaults to a single per-simulator counter, which makes tie order
depend on the global interleaving of scheduling calls.  :class:`LaneView`
gives a component a private seq stream ``(lane << LANE_SHIFT) | n``: tie
order among same-``(time, priority)`` events becomes ``(lane, n)``, a
property of *which component* scheduled the event and *how many* events
it had scheduled before.  The EDM fabric assigns its components static
lanes, so its tie order is fixed by the topology rather than by the
order in which model code happens to schedule (docs/DETERMINISM.md).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

EventCallback = Callable[[], None]

#: Events may not be scheduled at or beyond this time (rejects inf/NaN).
MAX_EVENT_TIME = 1e300

#: Queues smaller than this are never compacted (not worth the rebuild).
_COMPACT_MIN = 64

#: Lane-composite sequence numbers are ``(lane << LANE_SHIFT) | n``.  The
#: low field bounds events-per-lane at 2**44 (a multi-day run at current
#: event rates); lanes are unbounded because Python ints are.
LANE_SHIFT = 44

#: Process-wide count of events executed across every Simulator instance.
#: The experiment runner reads deltas around each cell to report
#: events/sec without threading a handle through the fabric models.
_EVENTS_EXECUTED = 0


def process_events_executed() -> int:
    """Total events executed by all simulators in this process so far."""
    return _EVENTS_EXECUTED


class _Event:
    """Payload of a cancellable queue entry.  Slotted: timers are common."""

    __slots__ = ("time", "callback", "cancelled", "in_queue")

    def __init__(self, time: float, callback: EventCallback) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False
        self.in_queue = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<_Event t={self.time} {state}>"


class EventHandle:
    """Opaque handle allowing a scheduled event to be cancelled."""

    __slots__ = ("_event", "_sim")

    def __init__(self, event: _Event, sim: "Simulator") -> None:
        self._event = event
        self._sim = sim

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired."""
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if event.in_queue:
            self._sim._on_cancel()

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled

    @property
    def time(self) -> float:
        return self._event.time


#: Queue entries: ``seq`` is unique, so the trailing payload never compares.
_Entry = Tuple[float, int, int, Any]


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, lambda: print("at t=10ns"))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._tombstones = 0
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) events still queued."""
        return len(self._heap) - self._tombstones

    @property
    def tombstones(self) -> int:
        """Cancelled events awaiting lazy deletion."""
        return self._tombstones

    def _check_time(self, time: float) -> None:
        if not time < MAX_EVENT_TIME:  # also rejects NaN
            raise SimulationError(f"event time must be finite, got {time}")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past: t={time} < now={self._now}"
            )

    def _on_cancel(self) -> None:
        """Count a new tombstone; compact once they outnumber live events."""
        self._tombstones += 1
        heap = self._heap
        if self._tombstones > len(heap) - self._tombstones and len(heap) >= _COMPACT_MIN:
            live = []
            for entry in heap:
                payload = entry[3]
                if type(payload) is _Event and payload.cancelled:
                    payload.in_queue = False
                else:
                    live.append(entry)
            # In place: lanes and links hold a reference to this list.
            heap[:] = live
            heapify(heap)
            self._tombstones = 0

    def _head(self) -> Optional[_Entry]:
        """The earliest live entry, left on the heap; drops tombstones above it."""
        heap = self._heap
        while heap:
            payload = heap[0][3]
            if type(payload) is _Event and payload.cancelled:
                heappop(heap)
                payload.in_queue = False
                self._tombstones -= 1
                continue
            return heap[0]
        return None

    def schedule(
        self, delay: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ns from now.

        Lower ``priority`` values run earlier among same-time events.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        self._check_time(time)
        event = _Event(time, callback)
        heappush(self._heap, (time, priority, next(self._seq), event))
        return EventHandle(event, self)

    def schedule_at(
        self, time: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        """Schedule ``callback`` at absolute simulation time ``time``."""
        self._check_time(time)
        event = _Event(time, callback)
        heappush(self._heap, (time, priority, next(self._seq), event))
        return EventHandle(event, self)

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, so no cancellation.

        The hot paths (link deliveries, switch pipelines) schedule millions
        of events they never cancel; skipping the handle and the event
        object is a measurable win.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self._now + delay
        if not time < MAX_EVENT_TIME:
            raise SimulationError(f"event time must be finite, got {time}")
        heappush(self._heap, (time, priority, next(self._seq), callback))

    def post_at(self, time: float, callback: EventCallback, *, priority: int = 0) -> None:
        """Fire-and-forget :meth:`schedule_at`."""
        if not self._now <= time < MAX_EVENT_TIME:
            self._check_time(time)
        heappush(self._heap, (time, priority, next(self._seq), callback))

    def schedule_batch(
        self,
        items: Iterable[Tuple[float, EventCallback]],
        *,
        absolute: bool = False,
        priority: int = 0,
    ) -> int:
        """Bulk-schedule ``(time, callback)`` pairs in one queue operation.

        With ``absolute=True`` the first element of each pair is an
        absolute simulation time, otherwise a delay from now.  Returns the
        number of events scheduled.  Sequence numbers are assigned in
        iteration order, so a batch replays identically to an equivalent
        loop of :meth:`schedule` calls.
        """
        now = self._now
        seq = self._seq
        entries: List[_Entry] = []
        for time, callback in items:
            if not absolute:
                time = now + time
            self._check_time(time)
            entries.append((time, priority, next(seq), callback))
        heap = self._heap
        for entry in entries:
            heappush(heap, entry)
        return len(entries)

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        Events at exactly ``until`` fire.  Unless ``max_events`` stopped
        the run first, the clock then stands at ``until`` (or stays put if
        it is already later).  Returns the simulation time when the run
        stopped.
        """
        global _EVENTS_EXECUTED
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        processed = 0
        heap = self._heap
        try:
            if max_events is None:
                # The hot loops: one heappop per event, tombstones dropped
                # as they surface.  ``heap`` stays valid across callbacks
                # because compaction rewrites the list in place.
                if until is None:
                    while heap:
                        time, _, _, payload = heappop(heap)
                        if type(payload) is _Event:
                            payload.in_queue = False
                            if payload.cancelled:
                                self._tombstones -= 1
                                continue
                            payload = payload.callback
                        self._now = time
                        payload()
                        processed += 1
                else:
                    while heap and heap[0][0] <= until:
                        time, _, _, payload = heappop(heap)
                        if type(payload) is _Event:
                            payload.in_queue = False
                            if payload.cancelled:
                                self._tombstones -= 1
                                continue
                            payload = payload.callback
                        self._now = time
                        payload()
                        processed += 1
                    if until > self._now:
                        self._now = until
            else:
                while True:
                    head = self._head()
                    if head is None:
                        if until is not None and until > self._now:
                            self._now = until
                        break
                    if processed >= max_events:
                        break
                    if until is not None and head[0] > until:
                        if until > self._now:
                            self._now = until
                        break
                    heappop(heap)
                    self._fire(head)
                    processed += 1
        finally:
            self._running = False
            self._events_processed += processed
            _EVENTS_EXECUTED += processed
        return self._now

    def lane(self, lane: int) -> "LaneView":
        """A :class:`LaneView` over this simulator's clock and queue."""
        return LaneView(self, lane)

    def _fire(self, entry: _Entry) -> None:
        """Advance the clock to a popped live entry and run its callback."""
        payload = entry[3]
        if type(payload) is _Event:
            payload.in_queue = False
            payload = payload.callback
        self._now = entry[0]
        payload()

    def step(self) -> bool:
        """Process a single event.  Returns False when the queue is empty."""
        global _EVENTS_EXECUTED
        head = self._head()
        if head is None:
            return False
        heappop(self._heap)
        self._fire(head)
        self._events_processed += 1
        _EVENTS_EXECUTED += 1
        return True

    def reset(self) -> None:
        """Drop all pending events and rewind the clock to zero."""
        for entry in self._heap:
            if type(entry[3]) is _Event:
                entry[3].in_queue = False
        self._heap.clear()
        self._tombstones = 0
        self._now = 0.0
        self._events_processed = 0


class LaneView:
    """A lane-scoped scheduling handle: shared clock and queue, private seqs.

    Components holding a LaneView schedule into the same pending-event set
    as everyone else, but their events carry sequence numbers
    ``(lane << LANE_SHIFT) | n`` drawn from a per-lane counter.  Tie order
    among same-``(time, priority)`` events then depends only on which lane
    scheduled them and each lane's local ordinal — not on the global
    interleaving of scheduling calls — so tie order is fixed by the
    components a model wires up, not by the order it happens to schedule.

    Lane 0 is the root :class:`Simulator`'s own counter; component lanes
    must be positive.  The view exposes the scheduling surface
    (``post``/``post_at``/``schedule``/``schedule_at``/``schedule_batch``)
    plus the read-only clock, so model code cannot tell it apart from the
    simulator it wraps.
    """

    __slots__ = ("root", "lane", "_seq", "_heap")

    def __init__(self, sim: Simulator, lane: int) -> None:
        if lane <= 0:
            raise SimulationError(f"component lanes must be positive, got {lane}")
        self.root = sim
        self.lane = lane
        self._seq = itertools.count(lane << LANE_SHIFT)
        self._heap = sim._heap

    @property
    def now(self) -> float:
        return self.root._now

    @property
    def _now(self) -> float:
        return self.root._now

    @property
    def events_processed(self) -> int:
        return self.root._events_processed

    @property
    def pending_events(self) -> int:
        return self.root.pending_events

    def schedule(
        self, delay: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self.root._now + delay, callback, priority=priority)

    def schedule_at(
        self, time: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        root = self.root
        root._check_time(time)
        event = _Event(time, callback)
        heappush(self._heap, (time, priority, next(self._seq), event))
        return EventHandle(event, root)

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        time = self.root._now + delay
        if not time < MAX_EVENT_TIME:
            raise SimulationError(f"event time must be finite, got {time}")
        heappush(self._heap, (time, priority, next(self._seq), callback))

    def post_at(self, time: float, callback: EventCallback, *, priority: int = 0) -> None:
        root = self.root
        if not root._now <= time < MAX_EVENT_TIME:
            root._check_time(time)
        heappush(self._heap, (time, priority, next(self._seq), callback))

    def schedule_batch(
        self,
        items: Iterable[Tuple[float, EventCallback]],
        *,
        absolute: bool = False,
        priority: int = 0,
    ) -> int:
        root = self.root
        now = root._now
        seq = self._seq
        entries: List[_Entry] = []
        for time, callback in items:
            if not absolute:
                time = now + time
            root._check_time(time)
            entries.append((time, priority, next(seq), callback))
        heap = self._heap
        for entry in entries:
            heappush(heap, entry)
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LaneView lane={self.lane} of {self.root!r}>"


class Process:
    """Base class for simulation entities that own a reference to the engine.

    Accepts either a bare :class:`Simulator` or a
    :class:`~repro.sim.context.SimContext`; in the latter case the
    context's clock, RNG, and stats sinks are all reachable through
    ``self.ctx``.
    """

    def __init__(self, sim: Any, name: str = "") -> None:
        # Duck-typed so repro.sim.context need not be imported here
        # (context imports the engine, not the other way around).
        inner = getattr(sim, "sim", None)
        if isinstance(inner, (Simulator, LaneView)):
            self.ctx = sim
            self.sim = inner
        else:
            self.ctx = None
            self.sim = sim
        self.name = name or type(self).__name__

    def schedule(
        self, delay: float, callback: EventCallback, *, priority: int = 0
    ) -> EventHandle:
        return self.sim.schedule(delay, callback, priority=priority)

    def post(self, delay: float, callback: EventCallback, *, priority: int = 0) -> None:
        self.sim.post(delay, callback, priority=priority)

    @property
    def now(self) -> float:
        return self.sim.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} t={self.sim.now:.2f}ns>"


@dataclass
class Timeline:
    """A recorded sequence of (time, label, payload) trace points.

    Used by tests and examples to assert on event ordering without coupling
    to internal module state.
    """

    points: List[Tuple[float, str, Any]] = field(default_factory=list)

    def record(self, time: float, label: str, payload: Any = None) -> None:
        self.points.append((time, label, payload))

    def labels(self) -> List[str]:
        return [label for _, label, _ in self.points]

    def times(self, label: Optional[str] = None) -> List[float]:
        return [t for t, lab, _ in self.points if label is None or lab == label]

    def __len__(self) -> int:
        return len(self.points)
