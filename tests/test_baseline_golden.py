"""Golden-seed bit-identity tests for the six §4.3 baseline fabrics.

``tests/fixtures/baseline_golden.json`` pins every completion time,
``incomplete`` and the stats dict (key order included) of one small case
per non-EDM fabric, plus leaf-spine PFC and CXL cases, a 32-node PFC
incast whose XONs release several blocked ingress FIFOs, a deadline-cut
case and a case that drops frames.  Any diff here means a change to the shared
run harness or a model changed observable behaviour.
"""

from __future__ import annotations

import json

import pytest

from tests.fixtures.capture_baseline_golden import FIXTURE_PATH, run_case, snapshot

with open(FIXTURE_PATH, encoding="utf-8") as fh:
    _GOLDEN = json.load(fh)

CASE_NAMES = sorted(_GOLDEN["cases"])


@pytest.mark.parametrize("name", CASE_NAMES)
def test_baseline_replays_golden_fixture(name: str) -> None:
    golden = _GOLDEN["cases"][name]
    snap = snapshot(run_case(golden["config"]))
    assert snap["incomplete"] == golden["incomplete"]
    got = dict(snap["records"])
    want = dict(golden["records"])
    assert got.keys() == want.keys(), "completed message set diverged"
    diffs = {uid: (got[uid], want[uid]) for uid in want if got[uid] != want[uid]}
    assert not diffs, f"completion times diverged for {len(diffs)} messages: " \
        f"{dict(list(diffs.items())[:5])}"
    assert snap["stats"] == golden["stats"], "stats or their key order diverged"


def test_fixture_covers_every_baseline_and_the_edge_cases() -> None:
    configs = [case["config"] for case in _GOLDEN["cases"].values()]
    assert {c["fabric"] for c in configs} == {
        "IRD", "pFabric", "PFC", "DCTCP", "CXL", "Fastpass",
    }
    assert any(
        c["fabric"] == "PFC" and c["topology"].startswith("leaf-spine")
        for c in configs
    ), "need a leaf-spine PFC case"
    assert any(
        c["fabric"] == "CXL" and c["topology"].startswith("leaf-spine")
        for c in configs
    ), "need a leaf-spine CXL case (credit wakes on trunk ports)"
    assert any(
        c["fabric"] == "PFC" and c["workload"] == "incast"
        and c["num_nodes"] >= 32
        for c in configs
    ), "need a PFC incast on >= 32 nodes (XONs with several waiters)"
    stats = [dict(case["stats"]) for case in _GOLDEN["cases"].values()]
    assert any(s.get("frames_dropped", 0) > 0 for s in stats), "need drops"
    assert any(case["incomplete"] > 0 for case in _GOLDEN["cases"].values()), (
        "need a deadline-cut case"
    )
