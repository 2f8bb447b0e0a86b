"""Unit tests for the baseline queueing substrate internals."""

import random
from functools import partial

import pytest

from repro.fabrics.queueing import (
    BaselineHost,
    BaselineSwitch,
    Frame,
    FlowMessage,
    LosslessMode,
    ProtocolPolicy,
    QueueDiscipline,
    RREQ_WIRE_BYTES,
)
from repro.errors import FabricError
from repro.fabrics import fabric_by_name
from repro.fabrics.base import ClusterConfig, OfferedMessage
from repro.sim.engine import Simulator
from repro.sim.link import Link
from tests.fixtures.capture_baseline_golden import CASES as GOLDEN_CASES, messages_for


def flow(src=0, dst=1, size=64, is_read=False):
    offered = OfferedMessage(src=src, dst=dst, size_bytes=size,
                             arrival_ns=0.0, is_read=is_read)
    data_src, data_dst = (dst, src) if is_read else (src, dst)
    return FlowMessage(offered=offered, data_src=data_src,
                       data_dst=data_dst, data_bytes=size)


def frame(src=0, dst=1, wire=84, fl=None, seq=0):
    return Frame(src=src, dst=dst, wire_bytes=wire,
                 flow=fl or flow(src=src, dst=dst), seq=seq)


def default_policy(**kw):
    return ProtocolPolicy(name="test", **kw)


class TestFlowMessage:
    def test_single_frame_message(self):
        f = flow(size=64)
        assert f.packets_total == 1

    def test_mtu_segmentation(self):
        f = flow(size=4000)
        assert f.packets_total == 3

    def test_rreq_wire_constant(self):
        assert RREQ_WIRE_BYTES == 84  # 8 B payload in a min frame + overheads


class TestHostPacing:
    def test_host_sends_at_line_rate_by_default(self):
        sim = Simulator()
        host = BaselineHost(sim, 0, 100.0, default_policy())
        received = []
        host.uplink = Link(sim, 100.0, 0.0, receiver=lambda f: received.append(sim.now))
        for i in range(3):
            host.inject(frame(seq=i))
        sim.run()
        # 84 B at 100 Gbps = 6.72 ns per frame, back to back.
        assert received[1] - received[0] == pytest.approx(6.72)

    def test_reduced_rate_spaces_frames(self):
        sim = Simulator()
        host = BaselineHost(sim, 0, 100.0, default_policy())
        host.rate_factor = 0.5
        received = []
        host.uplink = Link(sim, 100.0, 0.0, receiver=lambda f: received.append(sim.now))
        for i in range(2):
            host.inject(frame(seq=i))
        sim.run()
        assert received[1] - received[0] == pytest.approx(2 * 6.72)


class TestDctcpControlLaw:
    def test_unmarked_acks_recover_rate(self):
        sim = Simulator()
        policy = default_policy(rate_recover=0.1, window_ns=10.0)
        host = BaselineHost(sim, 0, 100.0, policy)
        host.rate_factor = 0.5
        for _ in range(5):
            host.on_ack(marked=False)
        sim.run(until=15.0)
        assert host.rate_factor == pytest.approx(0.6)

    def test_marked_window_cuts_by_alpha_half(self):
        sim = Simulator()
        policy = default_policy(window_ns=10.0, dctcp_g=1.0)  # g=1: alpha=F
        host = BaselineHost(sim, 0, 100.0, policy)
        for _ in range(2):
            host.on_ack(marked=True)
        for _ in range(2):
            host.on_ack(marked=False)
        sim.run(until=15.0)
        # F = 0.5 -> alpha = 0.5 -> rate *= (1 - 0.25).
        assert host.rate_factor == pytest.approx(0.75)

    def test_rate_floor(self):
        sim = Simulator()
        policy = default_policy(window_ns=1.0, dctcp_g=1.0, min_rate_factor=0.2)
        host = BaselineHost(sim, 0, 100.0, policy)
        for round_ in range(30):
            host.on_ack(marked=True)
            sim.run(until=(round_ + 1) * 2.0)
        assert host.rate_factor >= 0.2

    def test_rate_control_disabled(self):
        sim = Simulator()
        host = BaselineHost(sim, 0, 100.0, default_policy(use_rate_control=False))
        host.on_ack(marked=True)
        sim.run()
        assert host.rate_factor == 1.0


def build_switch(policy, nodes=3):
    sim = Simulator()
    switch = BaselineSwitch(sim, policy)
    inbox = {n: [] for n in range(nodes)}
    for n in range(nodes):
        switch.attach_port(n, Link(sim, 100.0, 0.0,
                                   receiver=lambda f, n=n: inbox[n].append(f)))
    return sim, switch, inbox


class TestSwitchQueues:
    def test_fifo_forwarding(self):
        sim, switch, inbox = build_switch(default_policy())
        fl = flow(size=4000)
        for i in range(3):
            switch.on_ingress(frame(fl=fl, seq=i))
        sim.run()
        assert [f.seq for f in inbox[1]] == [0, 1, 2]

    def test_ecn_marks_above_threshold(self):
        sim, switch, inbox = build_switch(
            default_policy(ecn_threshold_bytes=100)
        )
        fl = flow(size=4000)
        for i in range(4):
            switch.on_ingress(frame(fl=fl, seq=i))
        sim.run()
        assert any(f.marked for f in inbox[1])

    def test_finite_buffer_drops_and_reports(self):
        sim, switch, _ = build_switch(default_policy(buffer_bytes=100))
        dropped = []
        switch.on_drop = dropped.append
        fl = flow(size=4000)
        for i in range(4):
            switch.on_ingress(frame(fl=fl, seq=i))
        sim.run()
        assert switch.drops > 0 and len(dropped) == switch.drops

    def test_srpt_priority_ordering(self):
        policy = default_policy(discipline=QueueDiscipline.SRPT)
        sim, switch, inbox = build_switch(policy)
        big = flow(src=0, dst=1, size=60000)
        small = flow(src=2, dst=1, size=64)
        # Enqueue several big-flow frames, then one small-flow frame: the
        # small one overtakes everything not already on the wire.
        for i in range(4):
            switch.on_ingress(frame(src=0, fl=big, seq=i, wire=1538))
        switch.on_ingress(frame(src=2, fl=small, seq=0, wire=84))
        sim.run()
        order = [f.flow.offered.size_bytes for f in inbox[1]]
        assert order.index(64) <= 1  # behind at most the in-flight frame

    def test_pfc_pause_blocks_ingress(self):
        policy = default_policy(
            lossless=LosslessMode.PAUSE,
            pause_xoff_bytes=100, pause_xon_bytes=50,
        )
        sim, switch, inbox = build_switch(policy)
        fl = flow(size=60000)
        for i in range(10):
            switch.on_ingress(frame(fl=fl, seq=i, wire=1538))
        sim.run()
        # Lossless: everything eventually arrives, nothing dropped.
        assert len(inbox[1]) == 10
        assert switch.drops == 0

    def test_cxl_credits_bound_in_flight(self):
        policy = default_policy(
            lossless=LosslessMode.CREDIT, credit_bytes=2000,
        )
        sim, switch, inbox = build_switch(policy)
        fl = flow(size=60000)
        for i in range(6):
            switch.on_ingress(frame(fl=fl, seq=i, wire=1538))
        sim.run()
        assert len(inbox[1]) == 6  # lossless, just slower
        assert switch.drops == 0


class TestPolicyValidation:
    def test_lossless_policy_cannot_drop(self):
        for mode in (LosslessMode.PAUSE, LosslessMode.CREDIT):
            with pytest.raises(FabricError, match="cannot drop"):
                default_policy(lossless=mode, buffer_bytes=10_000)

    @pytest.mark.parametrize("xoff,xon", [(100, 100), (100, 200), (100, -1)])
    def test_pause_needs_xon_below_xoff(self, xoff, xon):
        with pytest.raises(FabricError, match="pause_xon_bytes"):
            default_policy(lossless=LosslessMode.PAUSE,
                           pause_xoff_bytes=xoff, pause_xon_bytes=xon)

    def test_lossy_policy_ignores_pause_thresholds(self):
        default_policy(buffer_bytes=100, pause_xoff_bytes=1, pause_xon_bytes=5)


class ScanAllSwitch(BaselineSwitch):
    """Reference model of the lossless wake path, without waiter lists.

    Every arrival re-tries its FIFO, every resume scans every ingress
    FIFO in attach order, and pause state is re-evaluated in both
    directions after every egress queue change.
    """

    def _after_pipeline(self, frame, port):
        if self.policy.lossless is LosslessMode.NONE:
            super()._after_pipeline(frame, port)
            return
        self.ingress[port].append(frame)
        self._advance_ingress(port)

    def _advance_ingress(self, src):
        queue = self.ingress[src]
        while queue:
            head = queue[0]
            port = head.dst if self.route is None else self.route(head)
            state = self.egress[port]
            if self.policy.lossless is LosslessMode.PAUSE and state.paused:
                return
            if (self.policy.lossless is LosslessMode.CREDIT
                    and state.credits < head.wire_bytes):
                return
            queue.popleft()
            if self.policy.lossless is LosslessMode.CREDIT:
                state.credits -= head.wire_bytes
            self._enqueue_egress(head, port)

    def _enqueue_egress(self, frame, port):
        super()._enqueue_egress(frame, port)
        self._update_pause(port)

    def _served(self, port, frame):
        state = self.egress[port]
        state.serving = False
        state.queued.pop(0)
        state.queued_bytes -= frame.wire_bytes
        if self.policy.lossless is LosslessMode.CREDIT:
            state.credits += frame.wire_bytes
            self._scan_all()
        self._update_pause(port)
        if state.queued:
            self._serve(port, state)

    def _update_pause(self, port):
        if self.policy.lossless is not LosslessMode.PAUSE:
            return
        state = self.egress[port]
        if not state.paused and state.queued_bytes >= self.policy.pause_xoff_bytes:
            state.paused = True
        elif state.paused and state.queued_bytes <= self.policy.pause_xon_bytes:
            state.paused = False
            self._scan_all()

    def _scan_all(self):
        for src, queue in self.ingress.items():
            if queue:
                self._advance_ingress(src)


def random_lossless_policy(rng, mode):
    kw = dict(
        lossless=mode,
        discipline=rng.choice([QueueDiscipline.FIFO, QueueDiscipline.SRPT]),
        ecn_threshold_bytes=rng.choice([None, rng.randrange(100, 4000)]),
    )
    if mode is LosslessMode.PAUSE:
        xoff = rng.randrange(200, 6000)
        kw.update(pause_xoff_bytes=xoff, pause_xon_bytes=rng.randrange(0, xoff))
    else:
        kw.update(credit_bytes=rng.randrange(1538, 5000))
    return default_policy(**kw)


def drive_switch(cls, policy, n_ports, routed, stream):
    """Run ``stream`` through one switch; return deliveries and end state.

    Unrouted ports are host ids reached via ``on_ingress``; routed ports
    are tuples reached via ``ingress_receiver``, with egress chosen by a
    route that is not ``frame.dst``.
    """
    sim = Simulator()
    switch = cls(sim, policy)
    ports = [("p", i) for i in range(n_ports)] if routed else list(range(n_ports))
    if routed:
        switch.route = lambda f: ports[(f.dst * 7 + f.src) % n_ports]
    delivered = []
    for port in ports:
        switch.attach_port(port, Link(
            sim, 100.0, 0.0,
            receiver=lambda f, port=port: delivered.append((sim.now, port, f.seq)),
        ))
    for at, fr in stream:
        receive = (switch.ingress_receiver(ports[fr.src]) if routed
                   else switch.on_ingress)
        sim.post_at(at, partial(receive, fr))
    sim.run()
    state = {
        port: (
            [f.seq for f in eg.queued], eg.queued_bytes, eg.paused,
            eg.credits, eg.serving, list(eg.waiters),
        )
        for port, eg in switch.egress.items()
    }
    fifos = {port: [f.seq for f in q] for port, q in switch.ingress.items()}
    return delivered, state, fifos, switch.drops


def random_stream(rng, n_ports, count):
    """Bursty frames skewed onto a few hot egresses, so FIFOs block."""
    hot = rng.sample(range(n_ports), k=max(1, n_ports // 6))
    weights = [8 if p in hot else 1 for p in range(n_ports)]
    stream, t = [], 0.0
    for seq in range(count):
        dst = rng.choices(range(n_ports), weights)[0]
        src = (dst + rng.randrange(1, n_ports)) % n_ports
        size = rng.choice([64, 64, 256, 1500, rng.randrange(1, 4000)])
        fl = flow(src=src, dst=dst, size=size)
        wire = rng.choice([84, 84, 300, 1538, rng.randrange(84, 1539)])
        stream.append((t, frame(src=src, dst=dst, wire=wire, fl=fl, seq=seq)))
        t += rng.choice([0.0, 0.0, 1.0, rng.uniform(0.0, 40.0)])
    return stream


class TestWakeReference:
    """Waiter-list wakes against a switch that rescans every FIFO."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("routed", [False, True], ids=["direct", "routed"])
    @pytest.mark.parametrize("mode", [LosslessMode.PAUSE, LosslessMode.CREDIT],
                             ids=["pause", "credit"])
    def test_matches_full_scan(self, mode, routed, seed):
        rng = random.Random(seed * 31 + (mode is LosslessMode.CREDIT) * 7 + routed)
        n_ports = rng.randrange(3, 41)
        policy = random_lossless_policy(rng, mode)
        stream = random_stream(rng, n_ports, count=rng.randrange(200, 600))
        got = drive_switch(BaselineSwitch, policy, n_ports, routed, stream)
        want = drive_switch(ScanAllSwitch, policy, n_ports, routed, stream)
        delivered, state, fifos, drops = got
        assert delivered == want[0], "delivery sequence diverged"
        assert state == want[1], "final egress state diverged"
        assert fifos == want[2] and drops == want[3] == 0
        assert len(delivered) == len(stream)  # lossless and drained

    def test_reference_saw_contention(self):
        # The streams must actually block FIFOs behind several waiters,
        # or the comparison above shows nothing about wake order.
        rng = random.Random(0)
        policy = default_policy(lossless=LosslessMode.PAUSE,
                                pause_xoff_bytes=1000, pause_xon_bytes=200)
        wakes = []

        class Counting(BaselineSwitch):
            def _wake(self, state):
                wakes.append(len(state.waiters))
                super()._wake(state)

        drive_switch(Counting, policy, 24, False, random_stream(rng, 24, 500))
        assert max(wakes) >= 3


class TestBalanceInvariant:
    """A drained lossless run leaves every switch with nothing held back."""

    @pytest.mark.parametrize("name", [
        c["name"] for c in GOLDEN_CASES
        if c["fabric"] in ("PFC", "CXL") and "deadline_ns" not in c
    ])
    def test_drained_run_balances(self, name):
        case = next(c for c in GOLDEN_CASES if c["name"] == name)
        fabric = fabric_by_name(case["fabric"], ClusterConfig(
            num_nodes=case["num_nodes"], link_gbps=100.0, seed=case["seed"],
            topology=case["topology"],
        ))
        topos = []
        fabric.topology_hook = topos.append
        result = fabric.run(messages_for(case))
        assert result.incomplete == 0
        switches = list(topos[0].switches.values())
        for sw in switches:
            assert all(not q for q in sw.ingress.values())
            for eg in sw.egress.values():
                assert not eg.paused and not eg.waiters
                assert not eg.queued and eg.queued_bytes == 0
                if sw.policy.lossless is LosslessMode.CREDIT:
                    assert eg.credits == sw.policy.credit_bytes
