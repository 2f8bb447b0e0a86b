"""Kernel benchmark: events/sec of the figure-8a smoke sweep.

Runs the sweep once on the simulator's event queue and reports events/sec
in aggregate and per fabric — the numbers ``BENCH_kernel.json`` tracks
commit over commit and :mod:`repro.experiments.benchgate` gates.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.execution import atomic_write_json
from repro.experiments.runner import Runner, git_metadata

BENCH_SCHEMA_VERSION = 2


def run_kernel_bench(
    num_nodes: int = 16,
    message_count: int = 4_000,
    loads: Sequence[float] = (0.3, 0.8),
    seed: int = 1,
    jobs: int = 1,
    fabric_names: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run the smoke sweep; returns the payload."""
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
    return "\n".join(lines)
