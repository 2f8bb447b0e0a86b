"""Capture golden-seed fixtures for the six §4.3 baseline fabrics.

Run from the repo root to (re)generate ``baseline_golden.json``::

    PYTHONPATH=src python tests/fixtures/capture_baseline_golden.py

The sibling of ``capture_edm_golden.py``: one small case per non-EDM
fabric (IRD, pFabric, PFC, DCTCP, CXL, Fastpass), leaf-spine PFC and
CXL cases, a 32-node PFC incast and a lossy case that drops frames.
Each case pins per-uid completion times, ``incomplete`` and the stats
dict *with its key order* (stored as ``[key, value]`` pairs), so a
refactor of the shared run harness can prove it changed nothing
observable.  The replay test is
``tests/test_baseline_golden.py``.

Regenerating the fixture is only legitimate when a model's *semantics*
intentionally change.
"""

from __future__ import annotations

import json
import os
import sys

from repro.fabrics import fabric_by_name
from repro.fabrics.base import ClusterConfig
from repro.workloads import (
    IncastSpec,
    SyntheticSpec,
    TraceSpec,
    fixed_size,
    workload_from_spec,
)

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "baseline_golden.json")

#: Each case pins one (fabric, workload, cluster) point.  ``workload``
#: picks the spec family: synthetic 64 B all-to-all, a heavy-tailed app
#: trace, or a pure incast storm.  ``deadline_ns`` cuts a run short, so
#: ``incomplete`` is pinned nonzero; 16 KiB incast overflows pFabric's
#: small buffers, so ``frames_dropped`` is pinned nonzero.  The two
#: lossless wake cases pin backpressure release: CXL credit returns on
#: leaf-spine trunk ports, and a 32-node PFC incast whose XONs release
#: several blocked ingress FIFOs at once, so wake order shows.
CASES = [
    {
        "name": "ird_synthetic", "fabric": "IRD", "topology": "single",
        "workload": "synthetic", "num_nodes": 8, "load": 0.6, "seed": 1,
        "count": 150,
    },
    {
        "name": "pfabric_trace", "fabric": "pFabric", "topology": "single",
        "workload": "trace", "num_nodes": 8, "load": 0.5, "seed": 2,
        "count": 100,
    },
    {
        "name": "pfc_synthetic", "fabric": "PFC", "topology": "single",
        "workload": "synthetic", "num_nodes": 8, "load": 0.7, "seed": 3,
        "count": 150,
    },
    {
        "name": "dctcp_trace_deadline", "fabric": "DCTCP",
        "topology": "single", "workload": "trace", "num_nodes": 8,
        "load": 0.6, "seed": 4, "count": 100, "deadline_ns": 8_000.0,
    },
    {
        "name": "cxl_incast", "fabric": "CXL", "topology": "single",
        "workload": "incast", "num_nodes": 8, "load": 0.8, "seed": 5,
        "count": 120,
    },
    {
        "name": "fastpass_synthetic", "fabric": "Fastpass", "topology": "single",
        "workload": "synthetic", "num_nodes": 8, "load": 0.8, "seed": 6,
        "count": 150,
    },
    {
        "name": "pfc_leafspine_trace", "fabric": "PFC",
        "topology": "leaf-spine:leaves=3,spines=2",
        "workload": "trace", "num_nodes": 12, "load": 0.6, "seed": 7,
        "count": 120,
    },
    {
        "name": "pfabric_incast_drops", "fabric": "pFabric",
        "topology": "single", "workload": "incast", "num_nodes": 8,
        "load": 1.0, "seed": 8, "count": 80, "size": 16384,
    },
    {
        "name": "cxl_leafspine_trace", "fabric": "CXL",
        "topology": "leaf-spine:leaves=3,spines=2",
        "workload": "trace", "num_nodes": 12, "load": 0.6, "seed": 9,
        "count": 120,
    },
    {
        "name": "pfc_incast_32", "fabric": "PFC", "topology": "single",
        "workload": "incast", "num_nodes": 32, "load": 1.0, "seed": 10,
        "count": 200, "size": 4096,
    },
]


def messages_for(case: dict):
    n, load, seed, count = (
        case["num_nodes"], case["load"], case["seed"], case["count"]
    )
    kind = case["workload"]
    if kind == "synthetic":
        spec = SyntheticSpec(
            num_nodes=n, link_gbps=100.0, load=load, message_count=count,
            size_cdf=fixed_size(64), seed=seed,
        )
    elif kind == "trace":
        spec = TraceSpec(
            app="hadoop", num_nodes=n, link_gbps=100.0, load=load,
            message_count=count, seed=seed,
        )
    elif kind == "incast":
        spec = IncastSpec(
            num_nodes=n, link_gbps=100.0, load=load, message_count=count,
            size_bytes=case.get("size", 64), degree=6, seed=seed,
        )
    else:
        raise ValueError(f"unknown workload kind {kind!r}")
    return workload_from_spec(spec).materialize()


def run_case(case: dict):
    config = ClusterConfig(
        num_nodes=case["num_nodes"], link_gbps=100.0, seed=case["seed"],
        topology=case["topology"],
    )
    return fabric_by_name(case["fabric"], config).run(
        messages_for(case), deadline_ns=case.get("deadline_ns")
    )


def snapshot(result) -> dict:
    return {
        "records": [
            [r.message.uid, r.completed_at]
            for r in sorted(result.records, key=lambda r: r.message.uid)
        ],
        "incomplete": result.incomplete,
        "stats": [[key, value] for key, value in result.stats.items()],
    }


def main() -> None:
    payload = {"cases": {}}
    for case in CASES:
        result = run_case(case)
        payload["cases"][case["name"]] = {"config": case, **snapshot(result)}
        print(
            f"{case['name']}: {len(result.records)} records, "
            f"{result.incomplete} incomplete, stats {result.stats}"
        )
    with open(FIXTURE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {FIXTURE_PATH} ({os.path.getsize(FIXTURE_PATH)} bytes)")


if __name__ == "__main__":
    sys.exit(main())
