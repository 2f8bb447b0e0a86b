"""Per-layer spans recorded from outside the simulator.

:class:`Tracer` swaps each layer's public entry points, at class level,
for wrappers that time the call and count its work, and puts the
originals back when the ``with tracer.installed():`` block ends.  The
classes are patched *before* the fabric builds its cluster, so every
bound method the cluster captures at wiring time (link receivers,
``partial(link.send, ...)``) is the wrapped one.

Event callbacks scheduled through the engine's public calls
(``post``/``post_at``/``schedule``/``schedule_at``/``schedule_batch``)
are wrapped too, charged to the layer whose module defines them: a
posted ``EdmHostNic._emit_chunk`` is host time even though no public
host function is on the stack.  Link deliveries bypass the public
calls (``Link.send`` pushes straight into the kernel); their receivers
(``EdmHostNic.on_wire``, ``EdmSwitch.on_ingress``,
``BaselineSwitch.on_ingress``) are wrapped directly.

A layer's self time is its spans' time minus the time of spans nested
inside them.  The root span -- the whole offered-load ``Fabric.run`` --
is charged to ``sim.engine``, so host time that no other span covers
(the kernel's loop, fabric glue) lands in ``sim.engine.self_s`` and the
layers' self times add up to the root's duration.  Spans are folded into
per-layer sums as they close; nothing is kept per call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.scheduler.grants import CentralScheduler
from repro.core.scheduler.pim import PimMatcher
from repro.fabrics.queueing import BaselineHost, BaselineSwitch
from repro.host.nic import EdmHostNic
from repro.memctrl.controller import MemoryController
from repro.sim.engine import LaneView, Simulator
from repro.sim.link import Link
from repro.switchfab.switch import EdmSwitch

#: Every layer a span can be charged to, root layer first.
LAYERS = (
    "sim.engine",
    "sim.link",
    "host",
    "memctrl",
    "switchfab",
    "core.scheduler",
    "fabrics.queueing",
)

#: Module prefix -> layer, for event callbacks (longest prefix first).
_MODULE_LAYERS = (
    ("repro.core.scheduler", "core.scheduler"),
    ("repro.fabrics.queueing", "fabrics.queueing"),
    ("repro.sim.link", "sim.link"),
    ("repro.switchfab", "switchfab"),
    ("repro.memctrl", "memctrl"),
    ("repro.host", "host"),
)

_SCHEDULE_CALLS = ("schedule", "schedule_at", "post", "post_at")


def _callback_layer(callback: Callable) -> Optional[str]:
    """The layer owning an event callback, or None for uncovered code.

    Already-wrapped callables (a ``partial`` over a wrapped ``Link.send``)
    open their own span when called, so they are left alone.
    """
    fn = callback
    while isinstance(fn, functools.partial):
        fn = fn.func
    fn = getattr(fn, "__func__", fn)
    if hasattr(fn, "perfbench_layer"):
        return None
    module = getattr(fn, "__module__", None) or ""
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return None


class Tracer:
    """Per-layer call counts, work counts and self times for one run."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.counts: Counter = Counter()
        # Child-time accumulators of the open spans; the bottom slot
        # absorbs spans that close with no parent.
        self._stack: List[float] = [0.0]

    # -- spans ---------------------------------------------------------- #

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span charged to ``layer``."""
        perf = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                nested = stack.pop()
                stack[-1] += elapsed
                self_s[layer] += elapsed - nested
                calls[layer] += 1

        traced.perfbench_layer = layer
        return traced

    def _dispatch(self, callback: Callable) -> Callable:
        layer = _callback_layer(callback)
        return callback if layer is None else self.span(layer, callback)

    # -- per-method wrappers -------------------------------------------- #

    def _schedule_call(self, fn: Callable) -> Callable:
        counts = self.counts
        dispatch = self._dispatch

        def call(owner, when, callback, **kwargs):
            counts["sim.engine.schedules"] += 1
            return fn(owner, when, dispatch(callback), **kwargs)

        return self.span("sim.engine", call)

    def _schedule_batch(self, fn: Callable) -> Callable:
        counts = self.counts
        dispatch = self._dispatch

        def batch(owner, items, **kwargs):
            items = [(when, dispatch(callback)) for when, callback in items]
            counts["sim.engine.schedules"] += len(items)
            return fn(owner, items, **kwargs)

        return self.span("sim.engine", batch)

    def _link_send(self, fn: Callable) -> Callable:
        counts = self.counts

        def send(link, payload, size_bytes):
            counts["sim.link.sends"] += 1
            counts["sim.link.bytes"] += size_bytes
            return fn(link, payload, size_bytes)

        return self.span("sim.link", send)

    def _link_send_batch(self, fn: Callable) -> Callable:
        counts = self.counts

        def send_batch(link, items):
            items = list(items)
            counts["sim.link.sends"] += len(items)
            counts["sim.link.bytes"] += sum(size for _, size in items)
            return fn(link, items)

        return self.span("sim.link", send_batch)

    def _scheduler_round(self, fn: Callable) -> Callable:
        counts = self.counts

        def schedule(scheduler, now):
            issued = fn(scheduler, now)
            counts["core.scheduler.rounds"] += 1
            counts["core.scheduler.grants"] += len(issued)
            counts["core.scheduler.useful_rounds"] += 1 if issued else 0
            return issued

        return self.span("core.scheduler", schedule)

    def _pim_run(self, fn: Callable) -> Callable:
        counts = self.counts

        def run(matcher, busy_src, busy_dst):
            result = fn(matcher, busy_src, busy_dst)
            counts["core.scheduler.pim_iterations"] += result.iterations
            return result

        return self.span("core.scheduler", run)

    def _patches(self) -> List[Tuple[type, str, Callable[[Callable], Callable]]]:
        """(class, method, wrapper factory) for every traced entry point."""
        def plain(layer: str) -> Callable[[Callable], Callable]:
            return lambda fn: self.span(layer, fn)

        patches = [(Simulator, "run", plain("sim.engine"))]
        for cls in (Simulator, LaneView):
            patches += [(cls, name, self._schedule_call) for name in _SCHEDULE_CALLS]
            patches.append((cls, "schedule_batch", self._schedule_batch))
        patches += [
            (Link, "send", self._link_send),
            (Link, "send_batch", self._link_send_batch),
            (EdmHostNic, "read", plain("host")),
            (EdmHostNic, "write", plain("host")),
            (EdmHostNic, "on_wire", plain("host")),
            (MemoryController, "execute_message", plain("memctrl")),
            (EdmSwitch, "on_ingress", plain("switchfab")),
            (CentralScheduler, "schedule", self._scheduler_round),
            (PimMatcher, "run", self._pim_run),
            (BaselineSwitch, "on_ingress", plain("fabrics.queueing")),
            (BaselineHost, "inject", plain("fabrics.queueing")),
        ]
        return patches

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every traced entry point for the duration of the block.

        An entry point that no longer exists is reported on stderr
        instead of failing the run: its layer then reads zero, which the
        per-layer output makes visible.
        """
        saved: List[Tuple[type, str, Callable]] = []
        try:
            for cls, name, factory in self._patches():
                original = cls.__dict__.get(name)
                if original is None:
                    print(
                        f"perfbench: cannot trace {cls.__name__}.{name}: not found",
                        file=sys.stderr,
                    )
                    continue
                saved.append((cls, name, original))
                setattr(cls, name, factory(original))
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)

    def total_s(self) -> float:
        """Host seconds covered by every span (the root span's duration)."""
        return sum(self.self_s.values())
