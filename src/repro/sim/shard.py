"""Conservative-parallel sharding: split one simulation across simulators.

A sharded run partitions a cluster's components into N shards, each owning
a private :class:`~repro.sim.engine.Simulator`.  Shards advance in
lockstep windows using classic conservative lookahead (Chandy-Misra /
bounded-lag): every synchronization round the
coordinator computes the global minimum next-event time ``m`` and grants
every shard the horizon ``H = m + L``, where ``L`` is the minimum
propagation delay across all cut links (:attr:`Link.lookahead_ns`).  Each
shard then executes all events strictly before ``H``.  This is safe
because any cross-shard payload published inside the window departs at
``t >= m`` and arrives at ``t + L >= m + L = H`` — never inside the
window that produced it.

Cross-shard traffic flows through mailboxes: a
:class:`~repro.sim.link.ShardLink` appends ``(time, priority, seq,
route_key, payload)`` to its shard's outbox; at the window barrier the
coordinator routes each entry to the shard owning ``route_key``, which
executes it via ``Simulator.inject`` — with the exact event key the
sender's lane assigned.  Because component tie order is lane-local (see
``repro.sim.engine.LaneView``), the merged execution order is
bit-identical to the serial run: sharding changes wall-clock behaviour,
never simulated behaviour.  ``tests/test_shard_equivalence.py`` asserts
this against the serial run as the oracle.

Two backends share the window loop:

* ``"inprocess"`` — every shard simulator lives in this process and windows
  run round-robin.  No parallel speedup (it exists for determinism tests
  and as a fallback), but bit-identical to the process backend by
  construction.
* ``"processes"`` — one forked worker per shard, a duplex pipe each, one
  fused ``(window, inbox) -> (outbox, next)`` round trip per window.
  Requires the ``fork`` start method and a non-daemonic parent (the
  experiment runner's pool workers are daemonic, so sharded cells running
  under ``--jobs`` transparently fall back to ``"inprocess"``).

Fault tolerance (contract: docs/RESILIENCE.md): every wait on a shard
worker is bounded.  The parent waits on the worker's pipe *and* its
``Process.sentinel``, so a dead shard raises a typed
:class:`~repro.errors.ExecutionError` naming the shard and window
immediately — never a forever-blocked ``recv`` — and an unresponsive
shard raises :class:`~repro.errors.CellTimeoutError` after
``REPRO_SHARD_TIMEOUT_S`` (default 120 s).  Cleanup joins with a timeout
and escalates to terminate/kill, so no exit path leaves zombie children.
When the backend was chosen automatically, :class:`ShardedSimulator`
responds to a process-backend failure by falling back to ``inprocess``
for the whole run and logging the incident: the two backends replay
bit-identically, so degradation changes wall-clock behaviour only.
``REPRO_SHARD_BACKEND`` (``auto`` | ``inprocess`` | ``processes``)
overrides the default backend choice.
"""

from __future__ import annotations

import gc
import logging
import math
import multiprocessing
import os
import time
from dataclasses import dataclass
from functools import partial
from multiprocessing import connection
from typing import (
    Any, Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.errors import CellTimeoutError, ExecutionError, SimulationError
from repro.execution.chaos import apply_shard_chaos
from repro.sim.engine import MAX_EVENT_TIME, Simulator, add_external_events

logger = logging.getLogger(__name__)

#: Env override for the per-round-trip shard wait budget, in seconds.
SHARD_TIMEOUT_ENV = "REPRO_SHARD_TIMEOUT_S"

#: Env override for the default shard backend (auto/inprocess/processes).
SHARD_BACKEND_ENV = "REPRO_SHARD_BACKEND"

DEFAULT_SHARD_TIMEOUT_S = 120.0


def shard_timeout_s() -> float:
    """Resolve the bounded wait budget for one shard round trip."""
    raw = os.environ.get(SHARD_TIMEOUT_ENV, "")
    try:
        timeout = float(raw) if raw else DEFAULT_SHARD_TIMEOUT_S
    except ValueError:
        raise SimulationError(
            f"{SHARD_TIMEOUT_ENV} is not a number: {raw!r}"
        ) from None
    if timeout <= 0:
        raise SimulationError(f"{SHARD_TIMEOUT_ENV} must be positive: {raw!r}")
    return timeout

#: A routed mailbox entry: (time, priority, seq, route_key, payload).
MailboxEntry = Tuple[float, int, int, Hashable, Any]


@dataclass(frozen=True)
class ShardPlan:
    """An immutable cut: component route-key -> shard, plus the lookahead."""

    num_shards: int
    lookahead_ns: float
    assignment: Mapping[Hashable, int]

    def shard_of(self, key: Hashable) -> int:
        return self.assignment[key]

    def members(self, shard_id: int) -> List[Hashable]:
        return [k for k, s in self.assignment.items() if s == shard_id]


class ShardPlanner:
    """Cuts a topology graph into N shards.

    Nodes are component route keys with optional weights (relative event
    rates) and optional pins; edges carry the link lookahead between two
    components.  :meth:`plan` packs unpinned nodes contiguously (sorted by
    key) into the unpinned shards, balancing by weight, and derives the
    window lookahead as the minimum over cut edges.  Deterministic: the
    same graph always yields the same plan.

    Nodes sharing a ``subtree`` label (e.g. a leaf switch and the hosts
    hanging off it) are placed atomically — the whole subtree lands in
    one shard, so intra-subtree links are never cut and the window
    lookahead stays the (larger) core propagation.  Without subtrees the
    fill is key-by-key, exactly the pre-topology algorithm.
    """

    def __init__(self) -> None:
        self._weights: Dict[Hashable, float] = {}
        self._pins: Dict[Hashable, int] = {}
        self._subtrees: Dict[Hashable, Hashable] = {}
        self._edges: List[Tuple[Hashable, Hashable, float]] = []

    def add_node(
        self,
        key: Hashable,
        weight: float = 1.0,
        pin: Optional[int] = None,
        subtree: Optional[Hashable] = None,
    ) -> None:
        if key in self._weights:
            raise SimulationError(f"duplicate shard-plan node {key!r}")
        if pin is not None and subtree is not None:
            raise SimulationError(
                f"node {key!r} cannot be both pinned and subtree-grouped"
            )
        self._weights[key] = weight
        if pin is not None:
            self._pins[key] = pin
        if subtree is not None:
            self._subtrees[key] = subtree

    def add_edge(self, a: Hashable, b: Hashable, lookahead_ns: float) -> None:
        if lookahead_ns <= 0:
            raise SimulationError(
                f"cut edges need positive lookahead, got {lookahead_ns}"
            )
        self._edges.append((a, b, lookahead_ns))

    def plan(self, num_shards: int) -> ShardPlan:
        if num_shards < 1:
            raise SimulationError(f"need >= 1 shard, got {num_shards}")
        unknown = [
            k for a, b, _ in self._edges for k in (a, b) if k not in self._weights
        ]
        if unknown:
            raise SimulationError(f"edges reference unknown nodes: {unknown!r}")
        assignment: Dict[Hashable, int] = {}
        for key, pin in self._pins.items():
            if not 0 <= pin < num_shards:
                raise SimulationError(f"pin {pin} out of range for {key!r}")
            assignment[key] = pin
        free = sorted(k for k in self._weights if k not in self._pins)
        open_shards = [
            s for s in range(num_shards) if s not in set(self._pins.values())
        ] or list(range(num_shards))
        # Atomic placement units: keys sharing a subtree label travel
        # together (unit order = first appearance in the sorted key
        # order); unlabeled keys are singleton units, reproducing the
        # pre-subtree fill bit-for-bit when no labels exist.
        units: List[List[Hashable]] = []
        unit_index: Dict[Hashable, int] = {}
        for key in free:
            label = self._subtrees.get(key)
            if label is None:
                units.append([key])
                continue
            at = unit_index.get(label)
            if at is None:
                unit_index[label] = len(units)
                units.append([key])
            else:
                units[at].append(key)
        if free and len(open_shards) > len(units):
            raise SimulationError(
                f"{num_shards} shards for {len(units)} placement units "
                "would leave shards empty"
            )
        # Contiguous fill by cumulative weight: keeps neighbouring keys
        # co-resident (locality) and is trivially deterministic.
        total = sum(self._weights[k] for k in free)
        filled = 0.0
        cursor = 0
        for index, unit in enumerate(units):
            share = total * (cursor + 1) / len(open_shards)
            remaining_units = len(units) - index
            remaining_shards = len(open_shards) - cursor
            if filled >= share and remaining_shards > 1:
                cursor += 1
            elif remaining_units == remaining_shards - 1 and remaining_shards > 1:
                # Never strand a trailing shard without a component.
                cursor += 1
            for key in unit:
                assignment[key] = open_shards[cursor]
                filled += self._weights[key]
        lookahead = math.inf
        for a, b, ns in self._edges:
            if assignment[a] != assignment[b] and ns < lookahead:
                lookahead = ns
        return ShardPlan(
            num_shards=num_shards,
            lookahead_ns=lookahead,
            assignment=assignment,
        )


class ShardRuntime:
    """One shard at run time: a simulator, routable receivers, an outbox.

    The builder registers a receiver callback per locally-owned route key
    and hands the shared ``outbox`` list to its :class:`ShardLink`s.
    ``collect`` is the builder-supplied result snapshot, called once after
    the last window.
    """

    __slots__ = ("shard_id", "sim", "outbox", "receivers", "collect")

    def __init__(self, shard_id: int, sim: Simulator) -> None:
        self.shard_id = shard_id
        self.sim = sim
        self.outbox: List[MailboxEntry] = []
        self.receivers: Dict[Hashable, Callable[[Any], None]] = {}
        self.collect: Optional[Callable[[], Any]] = None

    def register(self, key: Hashable, receiver: Callable[[Any], None]) -> None:
        if key in self.receivers:
            raise SimulationError(f"duplicate receiver for route key {key!r}")
        self.receivers[key] = receiver

    def run_window(
        self, horizon: float, inbox: Sequence[MailboxEntry]
    ) -> Tuple[List[MailboxEntry], Optional[float]]:
        """Deliver ``inbox``, run strictly below ``horizon``, drain outbox."""
        if inbox:
            receivers = self.receivers
            self.sim.inject(
                (time, priority, seq, partial(receivers[key], payload))
                for time, priority, seq, key, payload in inbox
            )
        self.sim.run_window(horizon)
        out = self.outbox[:]
        del self.outbox[:]
        return out, self.sim.next_event_time()


#: Builder signature: shard_id -> a fully-wired ShardRuntime (collect set).
ShardBuilder = Callable[[int], ShardRuntime]


class _LocalShard:
    """In-process backend handle: windows run inline, round-robin."""

    def __init__(self, builder: ShardBuilder, shard_id: int) -> None:
        self.runtime = builder(shard_id)
        self.ready_next = self.runtime.sim.next_event_time()
        self._window: Optional[Tuple[List[MailboxEntry], Optional[float]]] = None

    def start_window(self, horizon: float, inbox: List[MailboxEntry]) -> None:
        self._window = self.runtime.run_window(horizon, inbox)

    def finish_window(self) -> Tuple[List[MailboxEntry], Optional[float]]:
        out, self._window = self._window, None
        return out

    def finish(self) -> Any:
        return self.runtime.collect() if self.runtime.collect else None

    def close(self) -> None:
        pass


def _shard_worker(
    conn, inherited, builder: ShardBuilder, shard_id: int
) -> None:
    """Forked worker: one shard, one fused round trip per window."""
    # Drop every inherited pipe end that is not this worker's own: with
    # stray copies open, the parent closing an end would never surface as
    # EOF in its worker, and a crashed parent would leave the workers
    # keeping each other's pipes (and themselves) alive forever.
    for end in inherited:
        try:
            end.close()
        except OSError:  # pragma: no cover - already closed
            pass
    try:
        runtime = builder(shard_id)
        conn.send(("ready", runtime.sim.next_event_time()))
        while True:
            message = conn.recv()
            op = message[0]
            if op == "window":
                # Chaos hook (test/CI only): kill_worker:shard=N and
                # hang:shard=N fire here, in the forked worker, so the
                # parent's death/timeout detection is what gets tested.
                apply_shard_chaos(shard_id)
                conn.send(runtime.run_window(message[1], message[2]))
            elif op == "finish":
                result = runtime.collect() if runtime.collect else None
                conn.send((result, runtime.sim.events_processed))
                return
            else:  # pragma: no cover - protocol guard
                raise SimulationError(f"unknown shard op {op!r}")
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class _ProcessShard:
    """Fork-backend handle: the shard lives in a child process.

    Every receive is heartbeat-aware: the parent waits on the pipe *and*
    the worker's ``Process.sentinel`` with a bounded budget, so a dead
    shard raises :class:`ExecutionError` immediately and an unresponsive
    one raises :class:`CellTimeoutError` after ``REPRO_SHARD_TIMEOUT_S``
    — never an unbounded ``Connection.recv`` on a corpse.
    """

    def __init__(
        self,
        mp_context,
        builder: ShardBuilder,
        shard_id: int,
        pipe: Tuple[Any, Any],
        inherited: List[Any],
    ) -> None:
        self.shard_id = shard_id
        self.windows_sent = 0
        self.conn, child = pipe
        self.process = mp_context.Process(
            target=_shard_worker,
            args=(child, inherited, builder, shard_id),
            name=f"shard-{shard_id}",
        )
        self.process.start()
        child.close()
        tag, self.ready_next = self._recv("startup")
        if tag != "ready":  # pragma: no cover - protocol guard
            raise SimulationError(f"shard {shard_id} failed to start: {tag!r}")

    def _recv(self, waiting_on: str) -> Any:
        """Bounded receive; typed errors name the shard and the wait."""
        budget = shard_timeout_s()
        deadline = time.monotonic() + budget
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CellTimeoutError(
                    f"shard {self.shard_id} did not answer {waiting_on} "
                    f"within {budget:g}s ({SHARD_TIMEOUT_ENV} to adjust)"
                )
            ready = connection.wait(
                [self.conn, self.process.sentinel], timeout=remaining
            )
            if self.conn in ready:
                try:
                    return self.conn.recv()
                except (EOFError, OSError):
                    raise ExecutionError(
                        f"shard {self.shard_id} closed its pipe during "
                        f"{waiting_on} (exit code {self.process.exitcode})"
                    ) from None
            if self.process.sentinel in ready and not self.process.is_alive():
                # Drain a result the worker managed to send before dying.
                if self.conn.poll(0):
                    continue
                raise ExecutionError(
                    f"shard {self.shard_id} died during {waiting_on} "
                    f"(exit code {self.process.exitcode})"
                )

    def _send(self, message: Tuple) -> None:
        try:
            self.conn.send(message)
        except (OSError, ValueError):
            raise ExecutionError(
                f"shard {self.shard_id} is gone (exit code "
                f"{self.process.exitcode}); cannot send {message[0]!r}"
            ) from None

    def start_window(self, horizon: float, inbox: List[MailboxEntry]) -> None:
        self.windows_sent += 1
        self._send(("window", horizon, inbox))

    def finish_window(self) -> Tuple[List[MailboxEntry], Optional[float]]:
        return self._recv(f"window {self.windows_sent}")

    def finish(self) -> Any:
        self._send(("finish",))
        result, events = self._recv("finish")
        add_external_events(events)
        return result

    def close(self) -> None:
        """Join with a timeout, then escalate — no zombies on any path.

        A healthy worker exits within milliseconds of the pipe EOF, so
        the graceful grace period is short; anything still alive after it
        is hung and gets terminated, then killed.
        """
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already gone
            pass
        self.process.join(timeout=1)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        if self.process.is_alive():  # pragma: no cover - hard-stuck child
            self.process.kill()
            self.process.join(timeout=5)


def processes_backend_available() -> bool:
    """True when forked shard workers can be used from this process."""
    if multiprocessing.current_process().daemon:
        # Daemonic processes (the experiment runner's pool workers)
        # cannot have children.
        return False
    return "fork" in multiprocessing.get_all_start_methods()


class ShardedSimulator:
    """Facade running one simulation across conservative shard simulators.

    Construction takes the :class:`ShardPlan` and a builder returning a
    wired :class:`ShardRuntime` for each shard id; :meth:`run` drives the
    bounded-lag window loop to completion (or ``deadline_ns``) and returns
    the per-shard ``collect()`` payloads in shard-id order.

    Both backends replay the identical event order; ``backend="auto"``
    prefers forked workers when the platform allows them, honours a
    ``REPRO_SHARD_BACKEND`` env override, and — because determinism is
    backend-independent — responds to a process-backend failure (dead or
    hung shard worker) by rerunning the whole simulation on the
    inprocess backend with a logged incident instead of aborting.  An
    explicitly requested ``"processes"`` backend never falls back: the
    typed :class:`ExecutionError` propagates.
    """

    def __init__(
        self,
        plan: ShardPlan,
        builder: ShardBuilder,
        *,
        backend: str = "auto",
    ) -> None:
        if backend == "auto":
            env = os.environ.get(SHARD_BACKEND_ENV, "").strip()
            if env:
                backend = env
        if backend not in ("auto", "inprocess", "processes"):
            raise SimulationError(f"unknown shard backend {backend!r}")
        # Only an automatic choice may degrade; forcing "processes"
        # (by argument or env) makes failures loud instead.
        self._fallback_allowed = backend == "auto"
        if backend == "auto":
            backend = (
                "processes" if processes_backend_available() else "inprocess"
            )
        if backend == "processes" and not processes_backend_available():
            raise SimulationError(
                "process backend unavailable (no fork, or daemonic parent)"
            )
        self.plan = plan
        self.builder = builder
        self.backend = backend
        self.windows_run = 0
        #: Operational anomalies (e.g. backend fallbacks), for diagnosis.
        self.incidents: List[Dict[str, Any]] = []

    def run(self, deadline_ns: Optional[float] = None) -> List[Any]:
        try:
            return self._run_backend(self.backend, deadline_ns)
        except ExecutionError as exc:
            if self.backend != "processes" or not self._fallback_allowed:
                raise
            # Degrade, don't die: both backends replay bit-identically,
            # so rerunning inprocess changes wall-clock behaviour only.
            self.incidents.append(
                {
                    "kind": "shard_backend_fallback",
                    "from_backend": "processes",
                    "to_backend": "inprocess",
                    "detail": str(exc),
                }
            )
            logger.warning(
                "process shard backend failed (%s); falling back to the "
                "inprocess backend — results are backend-independent",
                exc,
            )
            self.backend = "inprocess"
            self.windows_run = 0
            return self._run_backend("inprocess", deadline_ns)

    def _run_backend(
        self, backend: str, deadline_ns: Optional[float]
    ) -> List[Any]:
        plan = self.plan
        lookahead = plan.lookahead_ns
        shard_of = plan.shard_of
        handles: List[Any] = []
        try:
            if backend == "processes":
                # Forked children inherit the parent heap copy-on-write;
                # dropping collectable garbage first shrinks the pages
                # their refcount traffic will fault in.
                gc.collect()
                mp_context = multiprocessing.get_context("fork")
                # All pipes exist before the first fork, so every worker
                # can be handed (and close) every end that is not its
                # own — see _shard_worker on why stray copies are fatal.
                pipes = [
                    mp_context.Pipe(duplex=True)
                    for _ in range(plan.num_shards)
                ]
                for shard_id in range(plan.num_shards):
                    own_child = pipes[shard_id][1]
                    inherited = [
                        end
                        for pair in pipes
                        for end in pair
                        if end is not own_child
                    ]
                    handles.append(
                        _ProcessShard(
                            mp_context,
                            self.builder,
                            shard_id,
                            pipes[shard_id],
                            inherited,
                        )
                    )
            else:
                for shard_id in range(plan.num_shards):
                    handles.append(_LocalShard(self.builder, shard_id))
            pending: List[List[MailboxEntry]] = [[] for _ in handles]
            nexts: List[Optional[float]] = [h.ready_next for h in handles]
            while True:
                floor: Optional[float] = None
                for t in nexts:
                    if t is not None and (floor is None or t < floor):
                        floor = t
                for box in pending:
                    for entry in box:
                        if floor is None or entry[0] < floor:
                            floor = entry[0]
                if floor is None:
                    break
                if deadline_ns is not None and floor > deadline_ns:
                    break
                horizon = floor + lookahead
                if deadline_ns is not None and horizon > deadline_ns:
                    # run(until=deadline) is inclusive in the serial
                    # oracle, so the strict window must reach past it.
                    horizon = math.nextafter(deadline_ns, math.inf)
                if horizon <= floor:
                    # Degenerate float case (lookahead below one ulp of
                    # the clock): still make progress on the minimum.
                    horizon = math.nextafter(floor, math.inf)
                if horizon > MAX_EVENT_TIME:
                    horizon = MAX_EVENT_TIME
                for shard_id, handle in enumerate(handles):
                    handle.start_window(horizon, pending[shard_id])
                    pending[shard_id] = []
                for shard_id, handle in enumerate(handles):
                    outbox, nexts[shard_id] = handle.finish_window()
                    for entry in outbox:
                        pending[shard_of(entry[3])].append(entry)
                self.windows_run += 1
            return [handle.finish() for handle in handles]
        finally:
            for handle in handles:
                handle.close()
