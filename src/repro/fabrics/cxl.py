"""CXL baseline (§4.3: PCIe-style link-level credit flow control).

CXL relies on per-link credit-based flow control with *no end-to-end
congestion control*.  Frequent incasts "rapidly consume credits on switch
egress ports (victim)", and the deficit then blocks or slows every ingress
port holding traffic for the victim — the head-of-line collapse (§4.3.1,
[92]) that makes CXL's loaded latency up to 8x worse than EDM despite its
excellent unloaded latency.

Credits are small (PCIe receiver buffers are shallow relative to Ethernet
switch buffers) and there is no rate control to relieve pressure.  A
frame that leaves an egress returns its credits there and advances just
the ingress FIFOs whose head waits on that egress's credits.
"""

from __future__ import annotations

from repro.fabrics.base import ClusterConfig
from repro.fabrics.queueing import (
    LosslessMode,
    ProtocolPolicy,
    QueueDiscipline,
    QueueingFabric,
)

#: Per-egress credit pool (bytes).  Shallow, PCIe-receiver-buffer scale —
#: just over one MTU frame, so incasts exhaust it almost immediately.
CXL_CREDIT_BYTES = 2_048


def cxl_policy() -> ProtocolPolicy:
    return ProtocolPolicy(
        name="CXL",
        discipline=QueueDiscipline.FIFO,
        lossless=LosslessMode.CREDIT,
        ecn_threshold_bytes=None,   # no congestion control at all
        buffer_bytes=None,          # lossless
        credit_bytes=CXL_CREDIT_BYTES,
        use_rate_control=False,
    )


class CxlFabric(QueueingFabric):
    """CXL-style credit-flow-controlled fabric."""

    def __init__(self, config: ClusterConfig) -> None:
        super().__init__(config, cxl_policy())
