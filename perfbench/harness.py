"""The benchmark's workloads, repetitions, correctness gate and metrics.

Everything here drives the simulator from outside, through the public
fabric and workload API only: ``workload_from_spec(...).materialize()``,
``fabric_by_name``, ``ClusterConfig(num_nodes, link_gbps, seed)``,
``Fabric.run`` and ``Fabric.attach_unloaded_baselines`` (with the probe
sizes ``dominant_sizes`` picks).

One *repetition* builds the inputs and the cluster (set-up), runs the
offered load once (timed), and probes the unloaded baselines (set-up).
A run cycles through :data:`INPUTS` inputs, each from its own seed
derived from the run's seed, and times the fixed work of
:mod:`reference` between every two repetitions.  Every repetition is
checked: each offered uid completes exactly once and after it arrived,
and every repetition of one input produces the same completion digest
and the same event count.  The end-to-end times are medians over the
repetitions, each first scaled by the machine speed that the reference
timings on either side of it show.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import struct
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.fabrics import ClusterConfig, dominant_sizes, fabric_by_name
from repro.workloads import SyntheticSpec, TraceSpec, fixed_size, workload_from_spec

import reference
from tracing import LAYERS, Tracer

#: §4.3's cluster: 144 nodes on 100 Gbps links.
NODES = 144
LINK_GBPS = 100.0


@dataclass(frozen=True)
class WorkloadDef:
    """One benchmark workload: a fabric, an offered load and its sizing."""

    name: str
    fabric: str
    why: str
    messages: int
    #: Simulated-time cap on the offered-load run; messages still
    #: incomplete at it count as failed.  Far beyond the drain time of
    #: every seed, so a failure means a fabric bug, not a slow seed.
    deadline_ns: float
    make_spec: Callable[[int, int, int], Any]

    def spec(self, seed: int, nodes: int = NODES, messages: Optional[int] = None):
        return self.make_spec(seed, nodes, messages or self.messages)


def _rw(size_bytes: int, load: float) -> Callable[[int, int, int], SyntheticSpec]:
    """Fixed-size reads and writes in equal parts, all-to-all, no incast."""

    def make(seed: int, nodes: int, messages: int) -> SyntheticSpec:
        return SyntheticSpec(
            num_nodes=nodes,
            link_gbps=LINK_GBPS,
            load=load,
            message_count=messages,
            size_cdf=fixed_size(size_bytes),
            write_fraction=0.5,
            seed=seed,
            incast_fraction=0.0,
        )

    return make


def _hadoop(seed: int, nodes: int, messages: int) -> TraceSpec:
    return TraceSpec(
        app="hadoop",
        num_nodes=nodes,
        link_gbps=LINK_GBPS,
        load=0.6,
        message_count=messages,
        seed=seed,
    )


WORKLOADS: Dict[str, WorkloadDef] = {
    w.name: w
    for w in (
        WorkloadDef(
            name="edm_64b_rw",
            fabric="EDM",
            why="Fig. 8a point: many 64 B reads/writes at load 0.8; per-message "
            "host NIC, memctrl and switch work dominates",
            messages=5_000,
            deadline_ns=1e6,
            make_spec=_rw(64, 0.8),
        ),
        WorkloadDef(
            name="pfc_hadoop_trace",
            fabric="PFC",
            why="Fig. 8b hadoop trace on PFC at load 0.6: queueing substrate and "
            "engine only, the control for any EDM-layer change",
            messages=4_000,
            deadline_ns=1e7,
            make_spec=_hadoop,
        ),
    )
}

#: Every end-to-end metric: name -> unit.
END_TO_END = {"msgs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Every per-layer metric: name -> unit.
PER_LAYER = {
    "sim.engine.events": "count",
    "sim.engine.schedules": "count",
    "sim.engine.self_s": "s",
    "sim.engine.share": "ratio",
    "sim.link.sends": "count",
    "sim.link.bytes": "B",
    "sim.link.self_s": "s",
    "host.calls": "count",
    "host.self_s": "s",
    "memctrl.calls": "count",
    "memctrl.self_s": "s",
    "switchfab.calls": "count",
    "switchfab.self_s": "s",
    "core.scheduler.rounds": "count",
    "core.scheduler.grants": "count",
    "core.scheduler.pim_iterations": "count",
    "core.scheduler.useful_round_frac": "ratio",
    "core.scheduler.self_s": "s",
    "fabrics.queueing.calls": "count",
    "fabrics.queueing.frames_dropped": "count",
    "fabrics.queueing.self_s": "s",
    "workloads.messages": "count",
    "workloads.gen_s": "s",
    "fabrics.probe_s": "s",
    "fabrics.sim_latency_p50_ns": "ns",
    "fabrics.sim_latency_p99_ns": "ns",
    "fabrics.norm_latency_mean": "ratio",
    "trace.overhead_s": "s",
}

#: Inputs one run cycles through, so that a run's figures average over
#: several draws of the workload rather than one.
INPUTS = 4

#: Repetitions of every input that always run, whatever the time budget.
MIN_ROUNDS = 2


def input_seeds(seed: int) -> List[int]:
    """The seeds of a run's inputs: distinct for distinct run seeds."""
    return [seed * INPUTS + j for j in range(INPUTS)]


class CheckFailed(Exception):
    """The program's output broke the correctness gate; report no number.

    ``attempted`` and ``failed`` count the offered messages of the
    repetition that failed and those of them that never completed.
    """

    def __init__(self, message: str, attempted: int = 0, failed: int = 0) -> None:
        super().__init__(message)
        self.attempted = attempted
        self.failed = failed


@dataclass
class Rep:
    """One repetition's outputs and host timings."""

    offered: int
    completed: int
    digest: str
    events: int
    frames_dropped: int
    gen_s: float
    build_s: float
    run_s: float
    probe_s: float
    sim_latency_p50_ns: float
    sim_latency_p99_ns: float
    norm_latency_mean: float
    tracer: Optional[Tracer] = None
    #: The machine's slowness next to this repetition: the reference
    #: work's time over its nominal time (above 1 when slower).
    slowness: float = 1.0

    @property
    def setup_s(self) -> float:
        return self.gen_s + self.build_s + self.probe_s

    @property
    def msgs_per_s(self) -> float:
        """Host throughput of the offered-load run, as measured."""
        return self.completed / self.run_s

    @property
    def norm_msgs_per_s(self) -> float:
        """Throughput scaled to the reference machine's speed."""
        return self.msgs_per_s * self.slowness

    @property
    def norm_setup_s(self) -> float:
        """Set-up time scaled to the reference machine's speed."""
        return self.setup_s / self.slowness

    def fingerprint(self) -> tuple:
        """The deterministic outputs every repetition must reproduce."""
        return (self.offered, self.completed, self.digest, self.events, self.frames_dropped)


def check_completions(messages: Sequence[Any], records: Sequence[Any]) -> List[str]:
    """Problems with a run's completions; empty when the gate passes.

    Every offered uid must complete exactly once, strictly after its
    arrival, and no record may name a message that was not offered.
    """
    problems: List[str] = []
    offered = {m.uid: m for m in messages}
    seen = Counter(r.message.uid for r in records)
    unknown = sorted(uid for uid in seen if uid not in offered)
    if unknown:
        problems.append(f"{len(unknown)} completions of uids never offered, e.g. {unknown[0]}")
    repeated = sorted(uid for uid, n in seen.items() if n > 1)
    if repeated:
        problems.append(f"{len(repeated)} uids completed more than once, e.g. {repeated[0]}")
    missing = sorted(uid for uid in offered if uid not in seen)
    if missing:
        problems.append(f"{len(missing)} offered uids never completed, e.g. {missing[0]}")
    early = [r for r in records if not r.completed_at > r.message.arrival_ns]
    if early:
        r = early[0]
        problems.append(
            f"{len(early)} completions not after their arrival, e.g. uid "
            f"{r.message.uid} at {r.completed_at} <= {r.message.arrival_ns}"
        )
    return problems


def completion_digest(records: Sequence[Any]) -> str:
    """SHA-256 over (uid, completed_at) pairs in uid order."""
    h = hashlib.sha256()
    for uid, done in sorted((r.message.uid, r.completed_at) for r in records):
        h.update(struct.pack("<qd", uid, done))
    return h.hexdigest()


def run_rep(
    workload: WorkloadDef,
    seed: int,
    *,
    nodes: int = NODES,
    messages: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Rep:
    """Set up, run and check one repetition; raise CheckFailed on a bad output.

    With a ``tracer`` the offered-load run executes inside its patched
    window; set-up and the probes always run untraced.
    """
    perf = time.perf_counter
    gc.collect()
    t0 = perf()
    offered = workload_from_spec(workload.spec(seed, nodes, messages)).materialize()
    t1 = perf()
    fabric = fabric_by_name(
        workload.fabric, ClusterConfig(num_nodes=nodes, link_gbps=LINK_GBPS, seed=seed)
    )
    t2 = perf()
    if tracer is None:
        result = fabric.run(offered, deadline_ns=workload.deadline_ns)
    else:
        with tracer.installed():
            result = tracer.span("sim.engine", fabric.run)(
                offered, deadline_ns=workload.deadline_ns
            )
    t3 = perf()
    read_size, write_size = dominant_sizes(offered)
    fabric.attach_unloaded_baselines(result, read_size, write_size)
    t4 = perf()

    problems = check_completions(offered, result.records)
    if problems:
        completed = len({r.message.uid for r in result.records} & {m.uid for m in offered})
        raise CheckFailed(
            f"{workload.name} seed {seed}: " + "; ".join(problems),
            attempted=len(offered),
            failed=len(offered) - completed,
        )
    stats = result.stats or {}
    p50, p99 = np.percentile(result.latencies(), [50, 99])
    return Rep(
        offered=len(offered),
        completed=len(result.records),
        digest=completion_digest(result.records),
        events=int(stats.get("sim_events", 0)),
        frames_dropped=int(stats.get("frames_dropped", 0)),
        gen_s=t1 - t0,
        build_s=t2 - t1,
        run_s=t3 - t2,
        probe_s=t4 - t3,
        sim_latency_p50_ns=float(p50),
        sim_latency_p99_ns=float(p99),
        norm_latency_mean=result.mean_normalized_latency(),
        tracer=tracer,
    )


def check_repeatable(reps: Sequence[Rep]) -> None:
    """Every repetition of one input must reproduce the first one's outputs."""
    first = reps[0].fingerprint()
    for index, rep in enumerate(reps[1:], start=1):
        if rep.fingerprint() != first:
            raise CheckFailed(
                f"repetition {index} differs from repetition 0: "
                f"{rep.fingerprint()} != {first}"
            )


def peak_rss_mib() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(reps: Sequence[Rep]) -> Dict[str, float]:
    """Median normalised throughput and set-up time, and peak memory."""
    return {
        "msgs_per_s": statistics.median(r.norm_msgs_per_s for r in reps),
        "setup_s": statistics.median(r.norm_setup_s for r in reps),
        "peak_rss_mb": peak_rss_mib(),
    }


def per_layer_metrics(reps: Sequence[Rep], traced: Rep) -> Dict[str, float]:
    """Per-layer metrics from the traced repetition (set-up from all).

    ``reps`` are every untraced repetition in run order, so
    ``reps[::INPUTS]`` are those of the traced repetition's input.
    """
    tracer = traced.tracer
    assert tracer is not None
    counts = tracer.counts
    total = tracer.total_s()
    rounds = counts["core.scheduler.rounds"]
    out: Dict[str, float] = {
        "sim.engine.events": traced.events,
        "sim.engine.share": tracer.self_s["sim.engine"] / total,
        "core.scheduler.useful_round_frac": (
            counts["core.scheduler.useful_rounds"] / rounds if rounds else 0.0
        ),
        "fabrics.queueing.frames_dropped": traced.frames_dropped,
        "workloads.messages": traced.offered,
        "workloads.gen_s": statistics.median(r.gen_s for r in reps),
        "fabrics.probe_s": statistics.median(r.probe_s for r in reps),
        "fabrics.sim_latency_p50_ns": traced.sim_latency_p50_ns,
        "fabrics.sim_latency_p99_ns": traced.sim_latency_p99_ns,
        "fabrics.norm_latency_mean": traced.norm_latency_mean,
        "trace.overhead_s": traced.run_s
        - statistics.median(r.run_s for r in reps[::INPUTS]),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s[layer]
    for layer in ("host", "memctrl", "switchfab", "fabrics.queueing"):
        out[f"{layer}.calls"] = tracer.calls[layer]
    for name in (
        "sim.engine.schedules",
        "sim.link.sends",
        "sim.link.bytes",
        "core.scheduler.rounds",
        "core.scheduler.grants",
        "core.scheduler.pim_iterations",
    ):
        out[name] = counts[name]
    return out


@dataclass
class Outcome:
    """A measured workload: its repetitions and the metrics they give."""

    reps: List[Rep]
    metrics: Dict[str, float]
    units: Dict[str, str]

    @property
    def attempted(self) -> int:
        return sum(r.offered for r in self.reps)

    @property
    def failed(self) -> int:
        return sum(r.offered - r.completed for r in self.reps)


def measure(
    workload: WorkloadDef,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    nodes: int = NODES,
    messages: Optional[int] = None,
    log: Callable[[str], None] = lambda line: None,
) -> Outcome:
    """Run one workload for about ``seconds`` and compute its metrics.

    A warm-up repetition on a tenth of the messages (checked, not timed)
    comes first.  Full repetitions then cycle through the inputs of
    :func:`input_seeds` while the next one is expected to fit in the
    budget -- half of ``seconds`` with ``trace`` -- and at least
    :data:`MIN_ROUNDS` times through all of them.  The reference work
    runs before the first repetition and after each one.  With
    ``trace``, one traced repetition of the first input follows and must
    reproduce its untraced outputs exactly.  Raises :class:`CheckFailed`
    on any bad or unrepeatable output.
    """
    count = messages or workload.messages
    seeds = input_seeds(seed)

    def rep(rep_seed: int, size: int = count, tracer: Optional[Tracer] = None) -> Rep:
        r = run_rep(workload, rep_seed, nodes=nodes, messages=size, tracer=tracer)
        log(
            f"{workload.name} seed={rep_seed} messages={size} "
            f"{'traced ' if tracer else ''}run_s={r.run_s:.4f} "
            f"setup_s={r.setup_s:.4f} msgs/s={r.msgs_per_s:.1f}"
        )
        return r

    warmup = rep(seeds[0], max(1, count // 10))
    budget = seconds / 2 if trace else seconds
    perf = time.perf_counter
    start = perf()
    before = reference.probe_s()
    reps: List[Rep] = []
    last = 0.0
    while len(reps) < INPUTS * MIN_ROUNDS or perf() - start + last <= budget:
        began = perf()
        r = rep(seeds[len(reps) % INPUTS])
        after = reference.probe_s()
        r.slowness = (before + after) / 2 / reference.NOMINAL_S
        log(f"  slowness={r.slowness:.3f} normalised msgs/s={r.norm_msgs_per_s:.1f}")
        reps.append(r)
        before = after
        last = perf() - began
    for j in range(INPUTS):
        check_repeatable(reps[j::INPUTS])
    log(
        f"{workload.name}: {len(reps)} repetitions, median slowness "
        f"{statistics.median(r.slowness for r in reps):.3f}, median host "
        f"msgs/s {statistics.median(r.msgs_per_s for r in reps):.1f}"
    )
    if not trace:
        return Outcome([warmup] + reps, end_to_end_metrics(reps), dict(END_TO_END))
    traced = rep(seeds[0], tracer=Tracer())
    check_repeatable([reps[0], traced])
    return Outcome(
        [warmup] + reps + [traced], per_layer_metrics(reps, traced), dict(PER_LAYER)
    )
