"""Kernel equivalence: the simulator's event queue against a reference model.

The engine's contract is a total order on ``(time, priority, seq)`` with
lazily-deleted cancellations.  The oracle below is the engine's original
pending-event set — a binary heap of ``_Event`` objects compared through
``__lt__``, tombstones purged as they surface or in bulk once they
outnumber live events — wrapped in the smallest simulator surface the
tests need.  Two kinds of drivers run the same schedule against both:

* seeded random mixes (:func:`drive`) over every scheduling entry point —
  ``schedule``, ``schedule_at``, ``post``, ``post_at``, ``schedule_batch``
  and lane posts — with cancel-before-fire, cancel-after-fire, mass
  cancels that trigger compaction, nested scheduling from callbacks,
  ``run(max_events=...)`` and ``run(until=t)`` with an event exactly at
  ``t``, parametrized over seeds and queue depths;
* hypothesis-generated schedules (:func:`replay`) that shrink a failure to
  a minimal event list.

Both assert the same fired ``(time, priority, seq)`` sequence.  The
engine-semantics tests (:class:`TestKernelBehaviour`) run on both as well.
"""

import itertools
import random
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.fabrics.base import ClusterConfig
from repro.sim.context import SimContext
from repro.sim.engine import LANE_SHIFT, MAX_EVENT_TIME, Simulator

#: Queues smaller than this are never compacted (the engine's rule).
COMPACT_MIN = 64


# --------------------------------------------------------------------------- #
# The reference model                                                         #
# --------------------------------------------------------------------------- #


class _Event:
    """One pending callback, ordered by its ``(time, priority, seq)`` key."""

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "in_queue")

    def __init__(self, time, priority, seq, callback):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.in_queue = True

    def __lt__(self, other):
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq,
        )


class ReferenceQueue:
    """Binary heap of :class:`_Event` objects with lazy deletion."""

    def __init__(self):
        self.heap = []
        self.tombstones = 0

    def __len__(self):
        return len(self.heap) - self.tombstones

    def push(self, event):
        heappush(self.heap, event)

    def _purge(self):
        while self.heap and self.heap[0].cancelled:
            heappop(self.heap).in_queue = False
            self.tombstones -= 1

    def peek_time(self):
        self._purge()
        return self.heap[0].time if self.heap else None

    def pop(self):
        self._purge()
        event = heappop(self.heap)
        event.in_queue = False
        return event

    def on_cancel(self):
        self.tombstones += 1
        if (
            self.tombstones > len(self.heap) - self.tombstones
            and len(self.heap) >= COMPACT_MIN
        ):
            live = []
            for event in self.heap:
                if event.cancelled:
                    event.in_queue = False
                else:
                    live.append(event)
            heapify(live)
            self.heap = live
            self.tombstones = 0


class ReferenceHandle:
    def __init__(self, event, queue):
        self._event = event
        self._queue = queue

    def cancel(self):
        event = self._event
        if event.cancelled:
            return
        event.cancelled = True
        if event.in_queue:
            self._queue.on_cancel()


class _ReferenceScheduler:
    """The scheduling surface shared by the root and its lanes."""

    def __init__(self, root, first_seq):
        self.root = root
        self._seq = itertools.count(first_seq)

    def schedule_at(self, time, callback, *, priority=0):
        event = self.root._push(time, priority, next(self._seq), callback)
        return ReferenceHandle(event, self.root.queue)

    def schedule(self, delay, callback, *, priority=0):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self.root.now + delay, callback, priority=priority)

    def post_at(self, time, callback, *, priority=0):
        self.root._push(time, priority, next(self._seq), callback)

    def post(self, delay, callback, *, priority=0):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.post_at(self.root.now + delay, callback, priority=priority)

    def schedule_batch(self, items, *, absolute=False, priority=0):
        count = 0
        for time, callback in items:
            self.post_at(time if absolute else self.root.now + time, callback,
                         priority=priority)
            count += 1
        return count


class ReferenceSimulator(_ReferenceScheduler):
    """Seed-engine semantics over :class:`ReferenceQueue`."""

    def __init__(self):
        self.queue = ReferenceQueue()
        self.now = 0.0
        self.events_processed = 0
        #: ``(time, priority, seq)`` of every fired event, in firing order.
        self.fired_keys = []
        super().__init__(self, 0)

    def _push(self, time, priority, seq, callback):
        if not self.now <= time < MAX_EVENT_TIME:
            raise SimulationError(f"bad event time {time} at now={self.now}")
        event = _Event(time, priority, seq, callback)
        self.queue.push(event)
        return event

    def lane(self, lane):
        return _ReferenceScheduler(self, lane << LANE_SHIFT)

    @property
    def pending_events(self):
        return len(self.queue)

    @property
    def tombstones(self):
        return self.queue.tombstones

    def run(self, until=None, max_events=None):
        processed = 0
        while True:
            head = self.queue.peek_time()
            if head is None:
                if until is not None:
                    self.now = max(self.now, until)
                break
            if max_events is not None and processed >= max_events:
                break
            if until is not None and head > until:
                self.now = max(self.now, until)
                break
            event = self.queue.pop()
            self.now = event.time
            self.fired_keys.append((event.time, event.priority, event.seq))
            event.callback()
            processed += 1
        self.events_processed += processed
        return self.now


# --------------------------------------------------------------------------- #
# Seeded random mixes                                                         #
# --------------------------------------------------------------------------- #

#: A small time grid so same-time ties are common.
TIME_GRID = [0.0, 0.25, 0.5, 1.0, 2.0, 3.75, 10.0, 64.0]

#: Lanes the mix schedules through besides the root (lane 0).
MIX_LANES = (1, 2, 7)


def drive(sim, seed, depth, rounds=12):
    """Apply one seeded random mix to ``sim``; returns its observable trace.

    The trace holds every fired event as ``(time, priority, seq)`` — the
    seq computed from the documented stream discipline (root counter,
    ``(lane << LANE_SHIFT) | n`` per lane) — plus the clock after each run
    and the live-event count after each cancel and each phase of a round.
    Every random decision comes from one ``Random(seed)``, so two
    implementations that fire the same events draw the same mix.
    """
    rng = random.Random(seed)
    trace = []
    streams = [(sim, itertools.count())] + [
        (sim.lane(lane), itertools.count(lane << LANE_SHIFT)) for lane in MIX_LANES
    ]
    handles = []  # (handle, one-element "has fired" flag)
    fired_handles = []

    def record_pending():
        trace.append(("pending", sim.pending_events))

    def when():
        offset = rng.choice(TIME_GRID) if rng.random() < 0.6 else rng.uniform(0, 100)
        return offset * (1 + depth / 64)

    def make_callback(priority, seq, state):
        def fire():
            state[0] = True
            trace.append((sim.now, priority, seq))
            if rng.random() < 0.4:
                schedule_one()
            if rng.random() < 0.2:
                cancel_one()
        return fire

    def schedule_one():
        target, counter = rng.choice(streams)
        priority = rng.randint(-1, 2)
        op = rng.choice(("schedule", "schedule_at", "post", "post_at", "batch"))
        delay = when()
        if op == "batch":
            count = rng.randint(1, 4)
            absolute = rng.random() < 0.5
            items = []
            for _ in range(count):
                seq = next(counter)
                offset = when()
                items.append(
                    (sim.now + offset if absolute else offset,
                     make_callback(priority, seq, [False]))
                )
            assert target.schedule_batch(items, absolute=absolute, priority=priority) == count
        elif op in ("schedule", "schedule_at"):
            arm(target, counter, delay, priority, absolute=op == "schedule_at")
        else:
            callback = make_callback(priority, next(counter), [False])
            if op == "post":
                target.post(delay, callback, priority=priority)
            else:
                target.post_at(sim.now + delay, callback, priority=priority)

    def arm(target, counter, delay, priority, absolute=False):
        state = [False]
        callback = make_callback(priority, next(counter), state)
        if absolute:
            handle = target.schedule_at(sim.now + delay, callback, priority=priority)
        else:
            handle = target.schedule(delay, callback, priority=priority)
        handles.append((handle, state))

    def cancel_one():
        if not handles:
            return
        handle, state = handles.pop(rng.randrange(len(handles)))
        before = sim.tombstones
        handle.cancel()
        if state[0]:
            # Cancel-after-fire is a no-op: no new tombstone.
            fired_handles.append(handle)
            assert sim.tombstones == before
        # Right after a cancel, compaction keeps tombstones from
        # outnumbering live events (small queues excepted).
        assert sim.tombstones <= max(sim.pending_events, COMPACT_MIN - 1)
        record_pending()

    for _ in range(rounds):
        while sim.pending_events < depth:
            schedule_one()
        record_pending()
        roll = rng.random()
        if roll < 0.2:
            # Mass cancel: enough armed timers to cross the compaction floor.
            for _ in range(max(COMPACT_MIN, depth)):
                arm(*rng.choice(streams), when(), 0)
            while len(handles) > 2:
                cancel_one()
        elif roll < 0.4 and fired_handles:
            # Cancelling an already-fired handle again stays a no-op.
            before = sim.tombstones
            rng.choice(fired_handles).cancel()
            assert sim.tombstones == before
        elif roll < 0.7:
            for _ in range(rng.randint(1, 3)):
                cancel_one()
        if rng.random() < 0.3:
            trace.append(("run", sim.run(max_events=rng.randint(1, depth))))
        else:
            # Stop exactly on a pending event's time: it must fire.
            until = sim.now + when()
            sim.schedule_at(until, make_callback(0, next(streams[0][1]), [False]))
            trace.append(("run", sim.run(until=until)))
        record_pending()
    trace.append(("run", sim.run()))
    trace.append(("processed", sim.events_processed))
    assert sim.pending_events == 0
    return trace


class TestReferenceModel:
    @pytest.mark.parametrize("depth", [4, 64, 700])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_mix_matches_reference(self, seed, depth):
        oracle = ReferenceSimulator()
        expected = drive(oracle, seed, depth)
        actual = drive(Simulator(), seed, depth)
        assert actual == expected
        fired = [entry for entry in expected if len(entry) == 3]
        # The driver's seq bookkeeping is the oracle's own keying.
        assert fired == oracle.fired_keys
        assert len(fired) > depth


# --------------------------------------------------------------------------- #
# Hypothesis schedules                                                        #
# --------------------------------------------------------------------------- #

times = st.one_of(
    st.sampled_from(TIME_GRID + [1000.0]),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
)

priorities = st.integers(min_value=-2, max_value=3)


@st.composite
def schedules(draw, max_events: int = 24):
    """A schedule: root events, nested children, and cancellations.

    Each spec is ``(delay, priority, children, cancel_index)``: children
    are scheduled from inside the parent's callback; ``cancel_index``
    names an earlier event whose handle is cancelled when this one fires.
    """
    count = draw(st.integers(min_value=1, max_value=max_events))
    specs = []
    for index in range(count):
        specs.append(
            (
                draw(times),
                draw(priorities),
                draw(
                    st.lists(
                        st.tuples(times, priorities),
                        min_size=0,
                        max_size=2,
                    )
                ),
                draw(st.one_of(st.none(), st.integers(0, index))),
            )
        )
    return specs


def replay(sim, specs, until_chunks=None):
    """Run one schedule on ``sim``; returns the firing order."""
    fired = []
    handles = {}

    def make_callback(label, children, cancel_index):
        def callback():
            fired.append((sim.now, label))
            if cancel_index is not None and cancel_index in handles:
                handles[cancel_index].cancel()
            for child_offset, child_priority in children:
                child_label = (label, len(fired), child_offset)
                handles[child_label] = sim.schedule(
                    child_offset,
                    make_callback(child_label, [], None),
                    priority=child_priority,
                )

        return callback

    for index, (delay, priority, children, cancel_index) in enumerate(specs):
        handles[index] = sim.schedule(
            delay, make_callback(index, children, cancel_index), priority=priority
        )
    if until_chunks:
        for until in until_chunks:
            sim.run(until=until)
    sim.run()
    return fired


class TestKernelEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(specs=schedules())
    def test_replay_identical(self, specs):
        assert replay(Simulator(), specs) == replay(ReferenceSimulator(), specs)

    @settings(max_examples=60, deadline=None)
    @given(specs=schedules())
    def test_replay_identical_with_deadline_chunks(self, specs):
        chunks = [0.5, 1.0, 2.0, 64.0]
        assert replay(Simulator(), specs, chunks) == replay(
            ReferenceSimulator(), specs, chunks
        )

    @settings(max_examples=60, deadline=None)
    @given(
        batch=st.lists(st.tuples(times, priorities), min_size=1, max_size=40),
        absolute=st.booleans(),
    )
    def test_batch_matches_loop_of_schedules(self, batch, absolute):
        """schedule_batch must assign sequence numbers in iteration order."""
        def fire_order(sim, batched):
            fired = []
            items = [
                (t, lambda i=i: fired.append((sim.now, i)))
                for i, (t, _) in enumerate(batch)
            ]
            if batched:
                sim.schedule_batch(iter(items), absolute=absolute)
            else:
                for t, callback in items:
                    (sim.schedule_at if absolute else sim.schedule)(t, callback)
            sim.run()
            return fired

        batched = fire_order(Simulator(), batched=True)
        assert batched == fire_order(Simulator(), batched=False)
        assert batched == fire_order(ReferenceSimulator(), batched=True)

    @settings(max_examples=40, deadline=None)
    @given(specs=schedules(max_events=12))
    def test_events_processed_match(self, specs):
        counts = []
        for sim in (Simulator(), ReferenceSimulator()):
            for delay, priority, _, _ in specs:
                sim.schedule(delay, lambda: None, priority=priority)
            sim.run()
            counts.append(sim.events_processed)
        assert counts[0] == counts[1] == len(specs)


# --------------------------------------------------------------------------- #
# Engine semantics                                                            #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "make_sim", [Simulator, ReferenceSimulator], ids=["heap", "reference"]
)
class TestKernelBehaviour:
    """The seed engine's semantics, asserted on the simulator's heap queue
    and on the reference model (so the oracle is pinned down too)."""

    def test_priority_then_insertion_ties(self, make_sim):
        sim, seen = make_sim(), []
        sim.schedule(10, lambda: seen.append("late"), priority=5)
        sim.schedule(10, lambda: seen.append("first"), priority=0)
        sim.schedule(10, lambda: seen.append("second"), priority=0)
        sim.run()
        assert seen == ["first", "second", "late"]

    def test_until_then_resume(self, make_sim):
        sim, seen = make_sim(), []
        sim.schedule(10, lambda: seen.append(1))
        sim.schedule(100, lambda: seen.append(2))
        assert sim.run(until=50) == 50
        assert seen == [1]
        sim.run()
        assert seen == [1, 2]

    def test_far_future_events_survive_dense_phases(self, make_sim):
        """A sparse tail after a dense burst must still drain in order."""
        sim, seen = make_sim(), []
        for i in range(200):
            sim.schedule(i * 0.01, lambda i=i: None)
        sim.schedule(1e9, lambda: seen.append("far"))
        sim.schedule(5e8, lambda: seen.append("mid"))
        sim.run()
        assert seen == ["mid", "far"]

    def test_cancelled_mass_compaction(self, make_sim):
        """Tombstones exceeding half the queue trigger compaction."""
        sim = make_sim()
        handles = [sim.schedule(10 + i, lambda: None) for i in range(256)]
        survivor_count = 16
        for handle in handles[survivor_count:]:
            handle.cancel()
        assert sim.pending_events == survivor_count
        # Lazy deletion must not retain ~240 tombstones: compaction fires
        # once they exceed half the queue (queues under 64 entries are
        # never compacted, so small queues may keep a few).
        assert sim.tombstones <= max(sim.pending_events, COMPACT_MIN - 1)
        assert sim.run() == 10 + survivor_count - 1
        assert sim.events_processed == survivor_count

    def test_cancel_after_fire_is_noop(self, make_sim):
        sim, seen = make_sim(), []
        handle = sim.schedule(1, lambda: seen.append("x"))
        sim.run()
        handle.cancel()
        handle.cancel()
        assert seen == ["x"]
        assert sim.tombstones == 0

    def test_post_and_post_at(self, make_sim):
        sim, seen = make_sim(), []
        sim.post(5, lambda: seen.append("a"))
        sim.post_at(2, lambda: seen.append("b"))
        sim.run()
        assert seen == ["b", "a"]

    def test_non_finite_times_rejected(self, make_sim):
        sim = make_sim()
        with pytest.raises(SimulationError):
            sim.schedule(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.post(float("nan"), lambda: None)

    def test_schedule_batch_rejects_past(self, make_sim):
        sim = make_sim()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_batch([(5.0, lambda: None)], absolute=True)


def test_unknown_kernel_rejected():
    """The retired ``kernel`` option is refused, not silently ignored."""
    for kernel in ("calendar", "heap", "wheel-of-fortune"):
        with pytest.raises(TypeError):
            Simulator(kernel=kernel)
        with pytest.raises(TypeError):
            SimContext.create(kernel=kernel)
        with pytest.raises(TypeError):
            ClusterConfig(num_nodes=4, link_gbps=100.0, kernel=kernel)


class TestInPlaceCompaction:
    def test_compaction_keeps_lane_pushes_live(self):
        """Compaction rewrites the heap in place: lanes keep scheduling into it."""
        sim, seen = Simulator(), []
        lane = sim.lane(3)
        handles = [sim.schedule(100 + i, lambda: None) for i in range(COMPACT_MIN * 2)]
        for handle in handles[: COMPACT_MIN + 1]:
            handle.cancel()
        assert sim.tombstones == 0  # the 65th cancel compacted the heap
        assert sim.pending_events == COMPACT_MIN - 1
        lane.post(5, lambda: seen.append("lane"))
        sim.run()
        assert seen == ["lane"]
        assert sim.events_processed == COMPACT_MIN
