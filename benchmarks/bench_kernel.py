"""Bench kernel — event-queue throughput on the figure-8a sweep.

Runs the smoke sweep, prints events/sec in aggregate and per fabric, and
writes the top-level ``BENCH_kernel.json`` artifact that tracks the perf
trajectory.  Scale with REPRO_BENCH_NODES / REPRO_BENCH_MESSAGES;
parallelize with REPRO_BENCH_JOBS.
"""

from repro.experiments import (
    format_kernel_bench,
    run_kernel_bench,
    write_kernel_bench,
)

from conftest import BENCH_JOBS, BENCH_MESSAGES, BENCH_NODES


def test_kernel_bench(benchmark):
    def run():
        return run_kernel_bench(
            num_nodes=min(BENCH_NODES, 32),
            message_count=BENCH_MESSAGES,
            loads=(0.3, 0.8),
            jobs=BENCH_JOBS,
        )

    payload = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_kernel_bench(payload))
    write_kernel_bench(payload)
    assert payload["sweep"]["events_per_s"] > 0
    assert len(payload["sweep"]["by_fabric"]) == 7
