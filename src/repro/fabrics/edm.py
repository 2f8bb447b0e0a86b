"""EDM fabric at cluster scale: the full host + switch DES stacks (§4.3).

Builds a star topology — every node's NIC uplinks to one
:class:`~repro.switchfab.EdmSwitch` whose scheduler runs priority-PIM with
chunking — and replays an offered workload through the real protocol:
RREQs as implicit notifications, WREQs behind explicit /N/ + /G/
exchanges, data moving as granted chunks through PHY virtual circuits.

Every component schedules through a static sequence-number lane (the
workload injector is lane 0, the switch lane 1, host ``h`` lane ``2+h``;
see ``repro.sim.engine.LaneView``), so event tie order is a property of
the component that scheduled the event — not of global scheduling order.
That is what makes conservative sharding exact: with
``ClusterConfig.shards > 1`` the cluster is cut by a
:class:`~repro.sim.shard.ShardPlanner` (switch alone in shard 0, hosts
packed contiguously across the rest), cross-shard links become
:class:`~repro.sim.link.ShardLink` mailboxes, and the merged run replays
the serial event order bit-identically (``tests/test_shard_equivalence.py``).

With a leaf-spine ``ClusterConfig.topology`` (docs/TOPOLOGY.md), hosts
reach the scheduled core through per-leaf trunk links instead of
dedicated ports: all of a leaf's uplink traffic serializes over one
leaf→core trunk at the oversubscribed rate, and the core's traffic
toward that leaf shares one core→leaf trunk demuxed to per-host access
links.  EDM's scheduler is a single crossbar by construction (§3), so
multi-tier EDM requires ``spines == 1`` — one scheduled core; the leaf
tier models access aggregation and oversubscription, not multipath.
Leaves get their own sequence lanes (``2 + N + leaf``) and shard
subtree-atomically with their hosts, making the cut lookahead the core
propagation delay.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import messages as _messages
from repro.core.scheduler import Policy, SchedulerConfig
from repro.errors import FabricError
from repro.fabrics.base import (
    ClusterConfig,
    CompletionRecord,
    Fabric,
    FabricResult,
    OfferedMessage,
    dominant_sizes,
)
from repro.host.nic import Completion, CompletionRouter, EdmHostNic, HostConfig
from repro.memctrl.controller import MemoryController
from repro.memctrl.dram import DramTiming
from repro.sim.context import SimContext, StatsSink
from repro.sim.engine import Simulator
from repro.sim.link import Link, ShardLink
from repro.sim.rng import make_rng
from repro.sim.shard import (
    ShardPlan,
    ShardPlanner,
    ShardRuntime,
    ShardedSimulator,
)
from repro.topology import SubstrateTopology

#: Route key of the single switch in the star topology's shard plan.
SWITCH_KEY = ("switch",)

#: Sequence lanes are static: injector 0, switch 1, host h at 2 + h.
SWITCH_LANE = 1
HOST_LANE_BASE = 2


def edm_shard_plan(config: ClusterConfig) -> ShardPlan:
    """The canonical EDM cut: switch alone in shard 0, hosts elsewhere.

    On a leaf-spine topology each leaf and its member hosts form one
    subtree placement unit — host↔leaf access links are never cut, so
    the only cross-shard links are the leaf↔core trunks and the window
    lookahead is the core propagation delay.
    """
    planner = ShardPlanner()
    planner.add_node(SWITCH_KEY, weight=config.num_nodes / 2.0, pin=0)
    topo = config.topology
    if topo.is_single:
        for node in range(config.num_nodes):
            planner.add_node(("nic", node))
            planner.add_edge(SWITCH_KEY, ("nic", node), config.propagation_ns)
        return planner.plan(config.shards)
    core_prop = topo.core_prop(config.propagation_ns)
    for leaf in range(topo.leaves):
        planner.add_node(("leaf", leaf), weight=0.5, subtree=("leaf", leaf))
        planner.add_edge(SWITCH_KEY, ("leaf", leaf), core_prop)
    for node in range(config.num_nodes):
        leaf = topo.leaf_of(node, config.num_nodes)
        planner.add_node(("nic", node), subtree=("leaf", leaf))
        planner.add_edge(("leaf", leaf), ("nic", node), config.propagation_ns)
    return planner.plan(config.shards)


class EdmCluster:
    """A wired EDM cluster: N NICs, one switch, duplex links.

    All components share one :class:`SimContext` (clock + RNG + stats) but
    schedule through per-component seq lanes; pass ``context`` to join a
    cluster to an existing simulation, else a fresh one is created.

    With ``plan``/``runtime`` set, only the components this shard owns are
    built: links whose far end lives elsewhere become
    :class:`~repro.sim.link.ShardLink` writers into the runtime's outbox,
    and locally-owned ingress points register as the runtime's receivers.
    """

    def __init__(
        self,
        config: ClusterConfig,
        policy: Policy = Policy.SRPT,
        dram_timing: Optional[DramTiming] = None,
        memory_bytes: int = 1 << 20,
        max_iterations: Optional[int] = None,
        early_release: bool = True,
        context: Optional[SimContext] = None,
        plan: Optional[ShardPlan] = None,
        runtime: Optional[ShardRuntime] = None,
    ) -> None:
        from repro.switchfab.switch import EdmSwitch  # local: avoid cycle

        if (plan is None) != (runtime is None):
            raise FabricError("sharded builds need both plan and runtime")
        self.config = config
        self.ctx = context if context is not None else SimContext(sim=Simulator())
        self.sim = self.ctx.sim
        self.router = CompletionRouter()
        scheduler_config = SchedulerConfig(
            num_ports=max(2, config.num_nodes),
            link_gbps=config.link_gbps,
            chunk_bytes=config.chunk_bytes,
            policy=policy,
            max_active_per_pair=config.max_active_per_pair,
            max_iterations=max_iterations,
            early_release=early_release,
        )
        shard_id = runtime.shard_id if runtime is not None else 0
        switch_local = plan is None or plan.shard_of(SWITCH_KEY) == shard_id
        switch_ctx = self.ctx.lane(SWITCH_LANE)
        self.switch = (
            EdmSwitch(switch_ctx, scheduler_config) if switch_local else None
        )
        if runtime is not None and self.switch is not None:
            runtime.register(SWITCH_KEY, self.switch.on_ingress)
        host_config = HostConfig(
            chunk_bytes=config.chunk_bytes,
            max_active_per_pair=config.max_active_per_pair,
        )
        timing = dram_timing if dram_timing is not None else DramTiming()
        self.nics: Dict[int, EdmHostNic] = {}
        # Per-node links, exposed through :meth:`substrate_topology` so
        # fault injectors (scenarios, serving) can block or degrade them
        # by node id on the generalized SubstrateTopology surface.
        self.uplinks: Dict[int, Link] = {}
        self.downlinks: Dict[int, Link] = {}
        self.core_links: Dict[Tuple[int, int], Tuple[Link, ...]] = {}
        self.core_keys: Tuple[Tuple[int, int], ...] = ()
        self._substrate: Optional[SubstrateTopology] = None
        if not config.topology.is_single:
            self._wire_leaf_spine(
                plan, runtime, shard_id, switch_local, switch_ctx,
                host_config, timing, memory_bytes,
            )
            return
        for node in range(config.num_nodes):
            node_key = ("nic", node)
            node_local = plan is None or plan.shard_of(node_key) == shard_id
            if node_local:
                # NIC and uplink share the host's lane: every event a host
                # schedules carries a seq the host's shard can reproduce.
                host_ctx = self.ctx.lane(HOST_LANE_BASE + node)
                nic = EdmHostNic(host_ctx, node, self.router, host_config)
                nic.attach_memory(MemoryController(memory_bytes, timing))
                if switch_local:
                    uplink = Link(
                        host_ctx, config.link_gbps, config.propagation_ns,
                        receiver=self.switch.on_ingress, name=f"up{node}",
                    )
                else:
                    uplink = ShardLink(
                        host_ctx, config.link_gbps, config.propagation_ns,
                        route_key=SWITCH_KEY, outbox=runtime.outbox,
                        name=f"up{node}",
                    )
                nic.attach_uplink(uplink)
                self.nics[node] = nic
                self.uplinks[node] = uplink
                if runtime is not None:
                    runtime.register(node_key, nic.on_wire)
            if switch_local:
                # Downlinks transmit on behalf of the switch, so they draw
                # from the switch's lane and live in the switch's shard.
                if node_local:
                    downlink = Link(
                        switch_ctx, config.link_gbps, config.propagation_ns,
                        receiver=self.nics[node].on_wire, name=f"down{node}",
                    )
                else:
                    downlink = ShardLink(
                        switch_ctx, config.link_gbps, config.propagation_ns,
                        route_key=node_key, outbox=runtime.outbox,
                        name=f"down{node}",
                    )
                self.switch.attach_port(node, downlink)
                self.downlinks[node] = downlink

    def _wire_leaf_spine(
        self,
        plan: Optional[ShardPlan],
        runtime: Optional[ShardRuntime],
        shard_id: int,
        switch_local: bool,
        switch_ctx: SimContext,
        host_config: HostConfig,
        timing: DramTiming,
        memory_bytes: int,
    ) -> None:
        """Wire the leaf tier between hosts and the scheduled core.

        Each leaf is a trunk mux, not a store-and-forward switch: its
        member hosts' uplinks feed one shared leaf→core trunk running at
        the oversubscribed rate, and the core reaches the leaf over one
        core→leaf trunk whose demux fans transfers out to per-host access
        links.  Leaves transmit on their own sequence lanes
        (``2 + N + leaf``) and always co-shard with their member hosts
        (subtree placement units), so only trunks ever become
        :class:`~repro.sim.link.ShardLink` mailboxes.
        """
        config = self.config
        topo = config.topology
        core_prop = topo.core_prop(config.propagation_ns)
        trunk_gbps = topo.trunk_gbps(config.link_gbps, config.num_nodes)
        for leaf in range(topo.leaves):
            leaf_key = ("leaf", leaf)
            leaf_local = plan is None or plan.shard_of(leaf_key) == shard_id
            members = [
                node for node in range(config.num_nodes)
                if topo.leaf_of(node, config.num_nodes) == leaf
            ]
            halves: List[Link] = []
            demux = None
            if leaf_local:
                leaf_ctx = self.ctx.lane(
                    HOST_LANE_BASE + config.num_nodes + leaf
                )
                if switch_local:
                    trunk_up = Link(
                        leaf_ctx, trunk_gbps, core_prop,
                        receiver=self.switch.on_ingress,
                        name=f"trunk_up{leaf}",
                    )
                else:
                    trunk_up = ShardLink(
                        leaf_ctx, trunk_gbps, core_prop,
                        route_key=SWITCH_KEY, outbox=runtime.outbox,
                        name=f"trunk_up{leaf}",
                    )
                halves.append(trunk_up)

                def forward_up(transfer, trunk=trunk_up) -> None:
                    trunk.send(transfer, transfer.blocks * 8)

                access: Dict[int, Link] = {}
                for node in members:
                    host_ctx = self.ctx.lane(HOST_LANE_BASE + node)
                    nic = EdmHostNic(host_ctx, node, self.router, host_config)
                    nic.attach_memory(MemoryController(memory_bytes, timing))
                    uplink = Link(
                        host_ctx, config.link_gbps, config.propagation_ns,
                        receiver=forward_up, name=f"up{node}",
                    )
                    nic.attach_uplink(uplink)
                    self.nics[node] = nic
                    self.uplinks[node] = uplink
                    # Access downlinks transmit on behalf of the leaf, so
                    # they draw from the leaf's lane.
                    down = Link(
                        leaf_ctx, config.link_gbps, config.propagation_ns,
                        receiver=nic.on_wire, name=f"down{node}",
                    )
                    access[node] = down
                    self.downlinks[node] = down

                def demux(transfer, access=access) -> None:
                    access[transfer.dst].send(transfer, transfer.blocks * 8)

                if runtime is not None:
                    runtime.register(leaf_key, demux)
            if switch_local:
                # Core→leaf trunks transmit on behalf of the core, so
                # they draw from the switch's lane and live in its shard.
                if leaf_local:
                    trunk_down = Link(
                        switch_ctx, trunk_gbps, core_prop,
                        receiver=demux, name=f"trunk_down{leaf}",
                    )
                else:
                    trunk_down = ShardLink(
                        switch_ctx, trunk_gbps, core_prop,
                        route_key=leaf_key, outbox=runtime.outbox,
                        name=f"trunk_down{leaf}",
                    )
                # Every member port shares the leaf's trunk: grants
                # toward co-leaf destinations serialize over it, which is
                # exactly the oversubscription the topology models.
                for node in members:
                    self.switch.attach_port(node, trunk_down)
                halves.append(trunk_down)
            if halves:
                self.core_links[(leaf, 0)] = tuple(halves)
        self.core_keys = tuple((leaf, 0) for leaf in range(topo.leaves))

    def substrate_topology(self) -> SubstrateTopology:
        """This cluster's fault/observability surface (docs/TOPOLOGY.md).

        Built lazily and cached — the fault lane must be requested from
        the simulator exactly once.  The returned context carries a
        *private* StatsSink: fault bookkeeping fires inside worker shards
        on sharded runs, where the parent's sink cannot see it, so
        keeping it out of the run's stats keeps serial and sharded
        artifacts byte-identical.
        """
        if self._substrate is None:
            config = self.config
            topo = config.topology
            extra = 0 if topo.is_single else topo.leaves
            lane_ctx = self.ctx.lane(HOST_LANE_BASE + config.num_nodes + extra)
            fault_ctx = SimContext(
                sim=lane_ctx.sim, rng=lane_ctx.rng, stats=StatsSink()
            )
            switches = {SWITCH_KEY: self.switch} if self.switch is not None else {}
            self._substrate = SubstrateTopology(
                ctx=fault_ctx,
                spec=topo,
                uplinks=dict(self.uplinks),
                downlinks=dict(self.downlinks),
                switches=switches,
                core_links=dict(self.core_links),
                num_hosts=config.num_nodes,
                core_keys=self.core_keys,
            )
        return self._substrate

    def nic(self, node: int) -> EdmHostNic:
        try:
            return self.nics[node]
        except KeyError as exc:
            raise FabricError(f"no node {node} in this cluster") from exc


def _launch_offered(
    cluster: EdmCluster,
    sink: List[Tuple[int, float, object]],
    write_index: Dict[Tuple[int, int], int],
    message: OfferedMessage,
) -> None:
    """Issue one offered message inside its source node's shard.

    Completion records land in ``sink`` as ``(lane, completed_at, tag)``
    in event-execution order; ``tag`` is the offered uid where the
    completion fires in this shard, or ``("w", src, wire_uid)`` for a
    write completing at a remote memory node, resolved at merge time
    through ``write_index`` (wire uids are unique per source process, and
    a source node lives in exactly one shard).
    """
    nic = cluster.nic(message.src)
    address = (message.uid * 64) % (1 << 19)
    if message.is_read:

        def on_read_done(completion: Completion, offered=message) -> None:
            sink.append(
                (HOST_LANE_BASE + offered.src, completion.completed_at, offered.uid)
            )

        nic.read(message.dst, address, message.size_bytes, on_read_done)
    else:

        def on_write_done(completion: Completion, offered=message) -> None:
            # Reached only when src and dst share a shard (the completion
            # fires at the memory node, where this callback is registered
            # only if the issuing NIC lives in the same shard).
            sink.append(
                (HOST_LANE_BASE + offered.dst, completion.completed_at, offered.uid)
            )

        wire = nic.write(message.dst, address, message.size_bytes, on_write_done)
        write_index[(message.src, wire.uid)] = message.uid


def _build_edm_shard(
    shard_id: int,
    config: ClusterConfig,
    policy: Policy,
    dram_timing: DramTiming,
    max_iterations: Optional[int],
    early_release: bool,
    plan: ShardPlan,
    ordered: Tuple[OfferedMessage, ...],
    hook: Optional[Callable[[SubstrateTopology], None]] = None,
) -> ShardRuntime:
    """Build one shard's cluster slice, inject its share of the workload."""
    # Namespace wire-message uids per shard.  Forked workers inherit the
    # parent's counter position, so without this two workers would mint
    # colliding uids and a shard-local CompletionRouter could mis-fire a
    # registration against a remote message that happens to share the
    # number.  Uid *values* never enter timing or ordering decisions, so
    # disjoint ranges leave the replay bit-identical; in-process mode
    # simply ends up with one (still unique) reassigned counter.
    _messages._msg_counter = itertools.count(shard_id << 48)
    ctx = SimContext(sim=Simulator(), rng=make_rng(config.seed))
    runtime = ShardRuntime(shard_id, ctx.sim)
    cluster = EdmCluster(
        config,
        policy=policy,
        dram_timing=dram_timing,
        max_iterations=max_iterations,
        early_release=early_release,
        context=ctx,
        plan=plan,
        runtime=runtime,
    )
    sink: List[Tuple[int, float, object]] = []
    write_index: Dict[Tuple[int, int], int] = {}

    def on_unrouted(uid: int, message, now: float) -> None:
        # A write finished at this memory node for an issuer in another
        # shard: record it under the memory node's lane, exactly where the
        # serial run's registered callback would have appended it.
        sink.append((HOST_LANE_BASE + message.dst, now, ("w", message.src, uid)))

    cluster.router.on_unrouted = on_unrouted
    if hook is not None:
        # Install faults against this shard's slice of the substrate:
        # each fault event draws its seq from the faulted link's own
        # lane, so event keys match the serial run exactly.
        hook(cluster.substrate_topology())

    # The offered batch replays the serial injector (lane 0): the serial
    # path's schedule_batch hands arrival-sorted message i the root seq i,
    # so injecting each shard's slice with seq == global sorted index
    # reproduces the identical event keys.
    shard_of = plan.shard_of
    ctx.sim.inject(
        (
            message.arrival_ns,
            0,
            index,
            partial(_launch_offered, cluster, sink, write_index, message),
        )
        for index, message in enumerate(ordered)
        if shard_of(("nic", message.src)) == shard_id
    )

    def collect() -> Dict[str, object]:
        return {
            "sink": sink,
            "write_index": write_index,
            "events": ctx.sim.events_processed,
        }

    runtime.collect = collect
    return runtime


class EdmFabric(Fabric):
    """The EDM fabric model for Figure 8 experiments."""

    name = "EDM"
    supports_sharding = True
    supports_topology = True

    def __init__(
        self,
        config: ClusterConfig,
        policy: Policy = Policy.SRPT,
        zero_dram_latency: bool = True,
        max_iterations: Optional[int] = None,
        early_release: bool = True,
    ) -> None:
        super().__init__(config)
        topo = config.topology
        if not topo.is_single and topo.spines != 1:
            raise FabricError(
                "EDM models one scheduled core switch (§3); leaf-spine EDM "
                f"needs spines=1, got spines={topo.spines}"
            )
        # Scenario engine sets this to FaultInjector.install; called with
        # the cluster's SubstrateTopology before any workload event runs.
        self.topology_hook: Optional[Callable[[SubstrateTopology], None]] = None
        self.policy = policy
        self.zero_dram_latency = zero_dram_latency
        self.max_iterations = max_iterations
        self.early_release = early_release

    def _dram_timing(self) -> DramTiming:
        if self.zero_dram_latency:
            # Fabric-only measurement, matching the paper's latency metric
            # (memory access time excluded from fabric latency).
            return DramTiming(row_hit_ns=0.0, row_miss_ns=0.0, bandwidth_gbps=1e9)
        return DramTiming()

    def run(
        self,
        messages,
        *,
        deadline_ns: Optional[float] = None,
        shard_backend: str = "auto",
    ) -> FabricResult:
        if self.config.shards > 1:
            if not isinstance(messages, (list, tuple)):
                raise FabricError(
                    "sharded runs need a materialized workload; streaming "
                    "Workloads require shards=1"
                )
            return self._run_sharded(
                messages, deadline_ns=deadline_ns, backend=shard_backend
            )
        ctx = self.new_context()
        cluster = EdmCluster(
            self.config,
            policy=self.policy,
            dram_timing=self._dram_timing(),
            max_iterations=self.max_iterations,
            early_release=self.early_release,
            context=ctx,
        )
        if self.topology_hook is not None:
            self.topology_hook(cluster.substrate_topology())
        result = FabricResult(fabric=self.name)

        def launch(message: OfferedMessage) -> None:
            nic = cluster.nic(message.src)

            def on_complete(completion: Completion, offered=message) -> None:
                result.records.append(
                    CompletionRecord(
                        message=offered, completed_at=completion.completed_at
                    )
                )

            address = (message.uid * 64) % (1 << 19)
            if message.is_read:
                nic.read(message.dst, address, message.size_bytes, on_complete)
            else:
                nic.write(message.dst, address, message.size_bytes, on_complete)

        if isinstance(messages, (list, tuple)):
            ctx.sim.schedule_batch(
                (
                    (m.arrival_ns, lambda m=m: launch(m))
                    for m in sorted(messages, key=lambda m: m.arrival_ns)
                ),
                absolute=True,
            )
            ctx.sim.run(until=deadline_ns)
            offered = len(messages)
        else:
            # A streaming Workload (or any time-ordered iterable): inject
            # lazily through the event queue, one chunk of arrivals at a time,
            # so resident memory stays O(1) in message count.  The
            # feeder's deterministic seq ordering keeps the event order
            # identical to the materialized batch path.
            from repro.workloads.api import WorkloadFeeder

            feeder = WorkloadFeeder(ctx.sim, messages, launch).start()
            ctx.sim.run(until=deadline_ns)
            offered = feeder.fed
        result.incomplete = offered - len(result.records)
        ctx.stats.incr("messages_offered", offered)
        ctx.stats.incr("sim_events", ctx.sim.events_processed)
        result.stats = ctx.stats.to_dict()
        return result

    def _run_sharded(
        self,
        messages,
        *,
        deadline_ns: Optional[float],
        backend: str = "auto",
    ) -> FabricResult:
        """Conservative-parallel run; bit-identical to the serial path."""
        plan = edm_shard_plan(self.config)
        ordered = tuple(sorted(messages, key=lambda m: m.arrival_ns))
        builder = partial(
            _build_edm_shard,
            config=self.config,
            policy=self.policy,
            dram_timing=self._dram_timing(),
            max_iterations=self.max_iterations,
            early_release=self.early_release,
            plan=plan,
            ordered=ordered,
            hook=self.topology_hook,
        )
        sharded = ShardedSimulator(plan, builder, backend=backend)
        payloads = sharded.run(deadline_ns=deadline_ns)

        by_uid = {message.uid: message for message in ordered}
        write_index: Dict[Tuple[int, int], int] = {}
        for payload in payloads:
            write_index.update(payload["write_index"])
        merged: List[Tuple[float, int, int, int]] = []
        total_events = 0
        for payload in payloads:
            total_events += payload["events"]
            for position, (lane, completed_at, tag) in enumerate(payload["sink"]):
                uid = (
                    write_index[(tag[1], tag[2])]
                    if isinstance(tag, tuple)
                    else tag
                )
                merged.append((completed_at, lane, position, uid))
        # (completed_at, lane, position) replays the serial append order:
        # all record-bearing events share priority 0, so serial execution
        # order at one timestamp is lane order, and one lane's records all
        # come from one shard, appended in that shard's execution order.
        merged.sort()
        result = FabricResult(fabric=self.name)
        for completed_at, _lane, _position, uid in merged:
            result.records.append(
                CompletionRecord(message=by_uid[uid], completed_at=completed_at)
            )
        offered = len(ordered)
        result.incomplete = offered - len(result.records)
        stats = StatsSink()
        stats.incr("messages_offered", offered)
        stats.incr("sim_events", total_events)
        result.stats = stats.to_dict()
        return result

    def run_with_baselines(
        self, messages: List[OfferedMessage], **kwargs
    ) -> FabricResult:
        """Run and attach unloaded baselines for normalization (Fig. 8a)."""
        result = self.run(messages, **kwargs)
        read_size, write_size = dominant_sizes(messages)
        self.attach_unloaded_baselines(result, read_size, write_size)
        return result
