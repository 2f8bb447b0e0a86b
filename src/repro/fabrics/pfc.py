"""PFC + DCQCN baseline (§4.3: lossless flow control with congestion control).

Priority flow control makes the fabric lossless: when an egress queue
crosses XOFF, upstream traffic toward it stalls in per-ingress FIFOs —
introducing the head-of-line blocking the paper (and [95]) highlight: a
stalled ingress head blocks frames behind it even when their own egress is
free.  DCQCN's ECN-driven rate control runs on top to keep pauses rarer.

An egress pauses (XOFF) when a frame pushes it to ``PFC_XOFF_BYTES`` and
resumes (XON) only as it drains to ``PFC_XON_BYTES``; the XON advances
just the ingress FIFOs whose head waits on that egress.
"""

from __future__ import annotations

from repro.fabrics.base import ClusterConfig
from repro.fabrics.queueing import (
    LosslessMode,
    ProtocolPolicy,
    QueueDiscipline,
    QueueingFabric,
)

#: PFC pause thresholds (bytes of egress occupancy).  Scaled to the 64 B
#: memory-message regime so pauses actually engage under incast.
PFC_XOFF_BYTES = 8_192
PFC_XON_BYTES = 4_096

#: DCQCN's ECN threshold.
DCQCN_ECN_BYTES = 4_096


def pfc_policy() -> ProtocolPolicy:
    return ProtocolPolicy(
        name="PFC",
        discipline=QueueDiscipline.FIFO,
        lossless=LosslessMode.PAUSE,
        ecn_threshold_bytes=DCQCN_ECN_BYTES,
        buffer_bytes=None,  # lossless: pauses, never drops
        pause_xoff_bytes=PFC_XOFF_BYTES,
        pause_xon_bytes=PFC_XON_BYTES,
        rate_recover=0.05,
        window_ns=1_000.0,
    )


class PfcFabric(QueueingFabric):
    """PFC (with DCQCN) over the shared queueing substrate."""

    def __init__(self, config: ClusterConfig) -> None:
        super().__init__(config, pfc_policy())
