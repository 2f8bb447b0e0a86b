"""Kernel benchmark: events/sec of the figure-8a smoke sweep.

Runs the sweep once on the simulator's event queue and reports events/sec
in aggregate and per fabric — the numbers ``BENCH_kernel.json`` tracks
commit over commit and :mod:`repro.experiments.benchgate` gates.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional, Sequence

from repro.errors import BenchmarkError
from repro.execution import atomic_write_json
from repro.experiments.runner import Runner, git_metadata

BENCH_SCHEMA_VERSION = 2


def run_sharded_bench(
    num_nodes: int = 512,
    message_count: int = 20_000,
    shards: int = 4,
    seed: int = 1,
    load: float = 0.9,
) -> Dict[str, Any]:
    """EDM serial vs conservative-parallel wall clock, with bit-identity.

    Asserts the sharded replay is identical to serial before reporting
    any timing, so the speedup number can never describe a divergent run.
    The recorded ``cpu_count`` keeps the measurement honest: conservative
    sharding trades synchronization overhead for concurrency, so a
    single-core host will legitimately report a speedup *below* 1.

    ``num_nodes`` tops out at 512 — the EDM wire format carries 9-bit
    node ids (§3.1.4), so larger clusters cannot be expressed in the
    paper's header; scale beyond that comes from event density.
    """
    from repro.fabrics.base import ClusterConfig
    from repro.fabrics.edm import EdmFabric
    from repro.sim.shard import processes_backend_available
    from repro.workloads.api import workload_from_spec
    from repro.workloads.distributions import fixed_size
    from repro.workloads.synthetic import SyntheticSpec

    spec = SyntheticSpec(
        num_nodes=num_nodes,
        link_gbps=100.0,
        load=load,
        message_count=message_count,
        size_cdf=fixed_size(64),
        write_fraction=0.5,
        seed=seed,
        incast_fraction=0.25,
    )
    messages = workload_from_spec(spec).materialize()
    backend = "processes" if processes_backend_available() else "inprocess"

    start = time.perf_counter()
    serial = EdmFabric(ClusterConfig(num_nodes=num_nodes, seed=seed)).run(
        list(messages)
    )
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    sharded = EdmFabric(
        ClusterConfig(num_nodes=num_nodes, seed=seed, shards=shards)
    ).run(list(messages), shard_backend=backend)
    sharded_wall = time.perf_counter() - start

    def snap(result):
        return [(r.message.uid, r.completed_at) for r in result.records]

    if snap(serial) != snap(sharded) or serial.stats != sharded.stats:
        raise BenchmarkError(
            f"sharded run diverged from serial at {shards} shards — "
            "the conservative replay must be bit-identical"
        )
    return {
        "config": {
            "num_nodes": num_nodes,
            "message_count": message_count,
            "shards": shards,
            "seed": seed,
            "load": load,
            "node_limit_note": "EDM wire format: 9-bit node ids cap clusters at 512",
        },
        "cpu_count": os.cpu_count(),
        "backend": backend,
        "results_identical": True,
        "events": serial.stats["sim_events"],
        "serial_wall_s": round(serial_wall, 3),
        "sharded_wall_s": round(sharded_wall, 3),
        "speedup": round(serial_wall / sharded_wall, 2) if sharded_wall else None,
    }


def run_kernel_bench(
    num_nodes: int = 16,
    message_count: int = 4_000,
    loads: Sequence[float] = (0.3, 0.8),
    seed: int = 1,
    jobs: int = 1,
    fabric_names: Optional[Sequence[str]] = None,
    shards: int = 4,
    sharded_nodes: int = 512,
    sharded_messages: int = 20_000,
) -> Dict[str, Any]:
    """Run the smoke sweep and the sharded EDM point; returns the payload."""
    from repro.experiments.figures import Figure8aScale

    scale = Figure8aScale(
        num_nodes=num_nodes,
        message_count=message_count,
        seed=seed,
        fabric_names=fabric_names,
    )
    result = Runner(jobs=jobs).run("figure8a", loads=tuple(loads), scale=scale)
    by_fabric: Dict[str, Dict[str, float]] = {}
    for cell, perf in zip(result.cells, result.cell_perf):
        if perf.get("attempts", 1) > 1 or perf.get("resumed"):
            # Retried cells carry fault wall-time and resumed cells
            # carry a stale one; the throughput series (and hence the
            # bench gate) must only see clean same-machine timings.
            continue
        agg = by_fabric.setdefault(cell.fabric, {"events": 0, "wall_s": 0.0})
        agg["events"] += perf["events"]
        agg["wall_s"] += perf["wall_s"]
    for agg in by_fabric.values():
        agg["events_per_s"] = (
            round(agg["events"] / agg["wall_s"]) if agg["wall_s"] > 0 else 0
        )
        agg["wall_s"] = round(agg["wall_s"], 3)
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "benchmark": "figure8a smoke sweep events/sec",
        "config": {
            "num_nodes": num_nodes,
            "message_count": message_count,
            "loads": list(loads),
            "seed": seed,
            "jobs": jobs,
        },
        "git": git_metadata(),
        "sweep": {**result.perf_summary(), "by_fabric": by_fabric},
        # Not gated by bench-gate (the gate flattens only the sweep
        # series): wall-clock speedup depends on the runner's core count,
        # so CI asserts the bit-identity and merely *prints* the speedup.
        "sharded": run_sharded_bench(
            num_nodes=sharded_nodes,
            message_count=sharded_messages,
            shards=shards,
            seed=seed,
        ),
    }


def write_kernel_bench(payload: Dict[str, Any], path: str = "BENCH_kernel.json") -> str:
    # Atomic so a crash mid-write can never leave a truncated baseline
    # for the bench gate to choke on.
    return atomic_write_json(path, payload, indent=2, sort_keys=False)


def format_kernel_bench(payload: Dict[str, Any]) -> str:
    sweep = payload["sweep"]
    lines = [
        payload["benchmark"],
        "=" * len(payload["benchmark"]),
        f"  {'all':<9} {sweep['events']:>9} events in "
        f"{sweep['cell_wall_s']:.2f}s  ->  {sweep['events_per_s']:>8} ev/s",
    ]
    for fabric, agg in sweep["by_fabric"].items():
        lines.append(
            f"  {fabric:<9} {agg['events']:>9} events in "
            f"{agg['wall_s']:.2f}s  ->  {agg['events_per_s']:>8} ev/s"
        )
    sharded = payload.get("sharded")
    if sharded:
        cfg = sharded["config"]
        lines.append(
            f"  sharded EDM ({cfg['num_nodes']} nodes, {cfg['shards']} shards, "
            f"{sharded['backend']}, {sharded['cpu_count']} cpus): "
            f"serial {sharded['serial_wall_s']}s vs "
            f"{sharded['sharded_wall_s']}s  ->  {sharded['speedup']}x, "
            f"bit-identical"
        )
    return "\n".join(lines)
