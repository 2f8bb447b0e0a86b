"""Shard equivalence: sharded runs must replay the serial event order.

The sharding contract mirrors the kernel contract asserted in
``test_kernel_equivalence.py``: conservative-parallel execution is a
wall-clock optimization, never a semantic one.  These tests drive the EDM
fabric through hypothesis-generated workloads under 2 and 4 shards and
assert completion records, incomplete counts, and stats are bit-identical
to the serial oracle — and probe the shard runtime directly to show
cross-shard mailboxes never reorder same-timestamp events.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FabricError, SimulationError
from repro.fabrics.base import ClusterConfig
from repro.fabrics.edm import EdmFabric, edm_shard_plan
from repro.sim.engine import Simulator
from repro.sim.shard import (
    ShardPlanner,
    ShardRuntime,
    ShardedSimulator,
    processes_backend_available,
)
from repro.workloads.api import workload_from_spec
from repro.workloads.distributions import fixed_size
from repro.workloads.synthetic import SyntheticSpec


def _messages(num_nodes, message_count, write_fraction, load, seed, size):
    spec = SyntheticSpec(
        num_nodes=num_nodes,
        link_gbps=100.0,
        load=load,
        message_count=message_count,
        size_cdf=fixed_size(size),
        write_fraction=write_fraction,
        seed=seed,
        incast_fraction=0.25,
        incast_degree=min(8, num_nodes - 1),
    )
    return workload_from_spec(spec).materialize()


def _snapshot(result):
    return (
        [(r.message.uid, r.completed_at) for r in result.records],
        result.incomplete,
        result.stats,
    )


def _run(messages, num_nodes, seed, shards, backend="inprocess", **kwargs):
    fabric = EdmFabric(ClusterConfig(num_nodes=num_nodes, seed=seed, shards=shards))
    if shards > 1:
        kwargs["shard_backend"] = backend
    return fabric.run(list(messages), **kwargs)


class TestShardedReplay:
    @settings(max_examples=15, deadline=None)
    @given(
        num_nodes=st.integers(min_value=4, max_value=9),
        message_count=st.integers(min_value=20, max_value=120),
        write_fraction=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        load=st.sampled_from([0.3, 0.6, 0.9]),
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.sampled_from([2, 4]),
    )
    def test_sharded_matches_serial(
        self, num_nodes, message_count, write_fraction, load, seed, shards
    ):
        messages = _messages(num_nodes, message_count, write_fraction, load, seed, 64)
        serial = _run(messages, num_nodes, seed, shards=1)
        sharded = _run(messages, num_nodes, seed, shards=shards)
        assert _snapshot(serial) == _snapshot(sharded)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shards=st.sampled_from([2, 3]),
    )
    def test_sharded_matches_serial_multichunk(self, seed, shards):
        """Multi-chunk messages exercise grants, backlog, and write joins."""
        messages = _messages(6, 60, 0.5, 0.7, seed, 1500)
        serial = _run(messages, 6, seed, shards=1)
        sharded = _run(messages, 6, seed, shards=shards)
        assert _snapshot(serial) == _snapshot(sharded)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        deadline_ns=st.sampled_from([300.0, 1000.0, 5000.0]),
    )
    def test_deadline_cuts_identically(self, seed, deadline_ns):
        """A deadline must strand the same in-flight messages either way."""
        messages = _messages(6, 80, 0.5, 0.8, seed, 64)
        serial = _run(messages, 6, seed, shards=1, deadline_ns=deadline_ns)
        sharded = _run(messages, 6, seed, shards=4, deadline_ns=deadline_ns)
        assert _snapshot(serial) == _snapshot(sharded)

    @pytest.mark.skipif(
        not processes_backend_available(),
        reason="fork backend unavailable on this platform",
    )
    def test_process_backend_matches_serial(self):
        messages = _messages(8, 200, 0.5, 0.6, 3, 64)
        serial = _run(messages, 8, 3, shards=1)
        forked = _run(messages, 8, 3, shards=4, backend="processes")
        assert _snapshot(serial) == _snapshot(forked)

    def test_streaming_workload_rejected(self):
        spec = SyntheticSpec(
            num_nodes=4, link_gbps=100.0, load=0.5, message_count=10,
            size_cdf=fixed_size(64), seed=0,
        )
        fabric = EdmFabric(ClusterConfig(num_nodes=4, seed=0, shards=2))
        with pytest.raises(FabricError):
            fabric.run(workload_from_spec(spec).arrivals())


class TestMailboxConservation:
    """The coordinator must deliver mailbox entries with the sender's keys
    intact — same-timestamp cross-shard events keep their seq order."""

    @staticmethod
    def _two_shards(sends, log):
        """Shard 0 emits ``sends`` (time, priority, seq) toward shard 1."""

        def builder(shard_id):
            sim = Simulator()
            runtime = ShardRuntime(shard_id, sim)
            if shard_id == 0:
                def emit():
                    for index, (time, priority, seq) in enumerate(sends):
                        runtime.outbox.append((time, priority, seq, "b", index))
                sim.schedule_at(0.0, emit)
            else:
                runtime.register("b", log.append)
            runtime.collect = lambda: None
            return runtime

        planner = ShardPlanner()
        planner.add_node("a", pin=0)
        planner.add_node("b", pin=1)
        planner.add_edge("a", "b", lookahead_ns=1.0)
        return ShardedSimulator(
            planner.plan(2), builder, backend="inprocess"
        )

    def test_same_timestamp_entries_keep_seq_order(self):
        # Appended deliberately out of seq order at one timestamp: the
        # receiver must fire them in seq order anyway, because inject
        # preserves the sender-assigned (time, priority, seq) keys.
        sends = [(5.0, 0, 3), (5.0, 0, 0), (5.0, 0, 2), (5.0, 0, 1)]
        log = []
        self._two_shards(sends, log).run()
        fired_seqs = [sends[index][2] for index in log]
        assert fired_seqs == sorted(fired_seqs)

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
                st.integers(min_value=-1, max_value=2),
            ),
            min_size=1,
            max_size=16,
        )
    )
    def test_mailbox_order_is_key_order(self, keys):
        sends = [(t, p, seq) for seq, (t, p) in enumerate(keys)]
        log = []
        self._two_shards(sends, log).run()
        fired = [sends[index] for index in log]
        assert fired == sorted(fired)


class TestShardPlanner:
    def test_balanced_contiguous_fill(self):
        planner = ShardPlanner()
        for n in range(6):
            planner.add_node(("nic", n))
        plan = planner.plan(3)
        assert [plan.shard_of(("nic", n)) for n in range(6)] == [0, 0, 1, 1, 2, 2]

    def test_pins_and_lookahead_over_cut_edges_only(self):
        planner = ShardPlanner()
        planner.add_node("switch", weight=0.0, pin=0)
        for n in range(4):
            planner.add_node(("nic", n))
            planner.add_edge("switch", ("nic", n), lookahead_ns=10.0 + n)
        plan = planner.plan(3)
        assert plan.shard_of("switch") == 0
        # Every nic edge is cut (the switch owns shard 0 alone), so the
        # window lookahead is the minimum over all of them.
        assert plan.lookahead_ns == 10.0
        assert plan.num_shards == 3

    def test_uncut_edges_do_not_bound_lookahead(self):
        planner = ShardPlanner()
        planner.add_node("a", pin=0)
        planner.add_node("b", pin=0)
        planner.add_node("c", pin=1)
        planner.add_edge("a", "b", lookahead_ns=0.5)
        planner.add_edge("b", "c", lookahead_ns=7.0)
        assert planner.plan(2).lookahead_ns == 7.0

    def test_disconnected_cut_has_infinite_lookahead(self):
        planner = ShardPlanner()
        planner.add_node("a", pin=0)
        planner.add_node("b", pin=1)
        assert planner.plan(2).lookahead_ns == math.inf

    def test_determinism(self):
        def build():
            planner = ShardPlanner()
            for n in (3, 1, 4, 5, 9, 2, 6):
                planner.add_node(("nic", n), weight=float(n))
            return planner.plan(3)

        assert build() == build()

    def test_errors(self):
        planner = ShardPlanner()
        planner.add_node("a")
        with pytest.raises(SimulationError):
            planner.add_node("a")
        with pytest.raises(SimulationError):
            planner.add_edge("a", "b", lookahead_ns=0.0)
        with pytest.raises(SimulationError):
            planner.plan(0)
        with pytest.raises(SimulationError):
            planner.plan(3)  # would strand two empty shards
        bad_pin = ShardPlanner()
        bad_pin.add_node("a", pin=5)
        with pytest.raises(SimulationError):
            bad_pin.plan(2)
        dangling = ShardPlanner()
        dangling.add_node("a")
        dangling.add_edge("a", "ghost", lookahead_ns=1.0)
        with pytest.raises(SimulationError):
            dangling.plan(1)


class TestEdmShardPlan:
    def test_switch_owns_shard_zero(self):
        plan = edm_shard_plan(ClusterConfig(num_nodes=8, shards=4))
        assert plan.shard_of(("switch",)) == 0
        hosts = [plan.shard_of(("nic", n)) for n in range(8)]
        assert all(s in (1, 2, 3) for s in hosts)
        assert hosts == sorted(hosts)  # contiguous fill
        assert plan.lookahead_ns == 10.0  # default propagation_ns
