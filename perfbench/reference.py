"""A fixed pure-Python workload that gauges how fast the machine runs now.

On a shared machine the CPU's speed swings by up to about 2x over
seconds and minutes, and that swing moves every timing the benchmark
takes.  :func:`probe_s` times a fixed piece of work that does not touch
the simulator, made of three parts that other tenants slow in different
ways: an event heap of slotted objects (small objects, method calls and
a priority queue), a toy store-and-forward network of 144 ports
(thousands of messages in flight through one event queue, as in the
simulator's fabrics), and an ``ast.unparse`` of a fixed generated module
(a large spread of Python code, as in the simulator's many layers).  A
timing of the simulator scaled by the probe's time next to it cancels
most of the machine's swing while keeping every change to the
simulator's own speed.

This file is part of the benchmark's yardstick: changing it changes
every normalised number the benchmark reports, so leave it as it is.
"""

from __future__ import annotations

import ast
import gc
import heapq
import random
import time

#: Seconds :func:`probe_s` takes on the quiet 2-CPU VM
#: (Intel Xeon, Python 3.11) the benchmark was built on; normalised
#: times are host times scaled to that machine's speed.
NOMINAL_S = 0.10


class _Event:
    __slots__ = ("time", "key", "hops")

    def __init__(self, time: float, key: int, hops: int) -> None:
        self.time = time
        self.key = key
        self.hops = hops

    def __lt__(self, other: "_Event") -> bool:
        return self.time < other.time


class _Message:
    __slots__ = ("uid", "src", "dst", "size", "born")

    def __init__(self, uid: int, src: int, dst: int, size: int, born: float) -> None:
        self.uid = uid
        self.src = src
        self.dst = dst
        self.size = size
        self.born = born


class _Port:
    __slots__ = ("free_at", "sent", "bytes")

    def __init__(self) -> None:
        self.free_at = 0.0
        self.sent = 0
        self.bytes = 0


_MODULE_TEMPLATE = """
class Port{i}:
    \"\"\"Port {i}.\"\"\"

    def __init__(self, rate={i}.5, name='p{i}', *args, **kwargs):
        self.rate = rate
        self.queue = [x * {i} for x in range(8) if x % 3]
        self.table = {{k: v for k, v in kwargs.items() if v is not None}}

    def send(self, item, *, size=64, at=None):
        if at is None and size > {i}:
            at = self.rate * size
        elif size == 0:
            raise ValueError(f'empty item {{item!r}} on {{self.name}}')
        else:
            at = (at or 0) + size / (self.rate or 1)
        for step in range(size // 8):
            try:
                self.queue.append((at + step, item))
            except (IndexError, KeyError) as exc:
                return lambda: exc
        with self.lock as held:
            held.notify()
        return at if self.queue else -{i}
"""

_MODULE = ast.parse("".join(_MODULE_TEMPLATE.format(i=i) for i in range(80)))


def _event_heap(steps: int) -> int:
    rng = random.Random(7)
    heap = [_Event(rng.random(), k, 0) for k in range(64)]
    heapq.heapify(heap)
    seen: dict = {}
    acc = 0
    for _ in range(steps):
        ev = heapq.heappop(heap)
        acc += ev.key
        seen[ev.key] = seen.get(ev.key, 0) + 1
        key = (ev.key * 31 + 7) & 1023
        heapq.heappush(heap, _Event(ev.time + rng.expovariate(1.0), key, ev.hops + 1))
    return acc


def _toy_network(messages: int, ports: int = 144) -> float:
    """Mean latency of ``messages`` sent through an uplink and a downlink."""
    rng = random.Random(11)
    up = [_Port() for _ in range(ports)]
    down = [_Port() for _ in range(ports)]
    heap = []
    now = 0.0
    for uid in range(messages):
        now += rng.expovariate(0.2)
        src = rng.randrange(ports)
        dst = (src + 1 + rng.randrange(ports - 1)) % ports
        heap.append((now, uid, 0, _Message(uid, src, dst, 64 << rng.randrange(4), now)))
    heapq.heapify(heap)
    seq = messages
    latency = {}
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        now, _, hop, msg = pop(heap)
        if hop == 2:
            latency[msg.uid] = now - msg.born
            continue
        port = up[msg.src] if hop == 0 else down[msg.dst]
        start = port.free_at if port.free_at > now else now
        port.free_at = start + msg.size * 0.08
        port.sent += 1
        port.bytes += msg.size
        seq += 1
        push(heap, (port.free_at + 0.5, seq, hop + 1, msg))
    return sum(latency.values()) / len(latency)


def probe_s() -> float:
    """Host seconds for one pass of the fixed work.

    The garbage collector is off while it runs, so the probe's time does
    not depend on how many objects the simulator holds.
    """
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _event_heap(20_000)
        _toy_network(6_000)
        ast.unparse(_MODULE)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
