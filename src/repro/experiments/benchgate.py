"""CI perf-regression gate over ``BENCH_kernel.json`` artifacts.

The bench job regenerates the kernel benchmark on every run; this module
compares the fresh payload against the committed baseline and fails when
``events_per_s`` regresses beyond a tolerance (default 30%, overridable
via ``REPRO_BENCH_TOLERANCE_PCT`` or ``--tolerance``).  Absolute
events/sec varies with runner hardware, which is exactly why the
tolerance is generous: the gate exists to catch the order-of-magnitude
"someone put a Python loop back in the hot path" regressions, not 5%
noise.

Gated series, when present in the baseline:

* ``sweep.events_per_s`` — end-to-end figure-8a sweep throughput (the
  headline number).
* ``sweep.by_fabric.<fabric>.events_per_s`` — the same sweep split per
  fabric model: the aggregate can hide a one-fabric regression behind
  speedups elsewhere.

Each fabric's ``sweep.by_fabric.<fabric>.events`` count is also gated,
exactly: the count is deterministic, so any difference from the baseline
means the model's event graph changed, whatever the wall clock says.

A baseline generated from a dirty working tree draws a loud warning (see
:func:`baseline_warnings`): its numbers describe code that was never
committed, so the gate may be ratcheting against unreviewable state.

Fault tolerance never skews the gate: cells that were retried by the
supervised runner or replayed from a checkpoint are excluded from every
``events_per_s`` series at the source (``perf_summary`` and the
per-fabric aggregation), so recovered runs gate on clean timings only —
:func:`gate_report` prints a note when that exclusion kicked in.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.errors import BenchmarkError

#: Allowed events/sec drop, in percent, before the gate fails.
DEFAULT_TOLERANCE_PCT = 30.0

#: Environment override for the tolerance.
TOLERANCE_ENV = "REPRO_BENCH_TOLERANCE_PCT"


def gate_tolerance_pct(override: Optional[float] = None) -> float:
    """Resolve the tolerance: explicit arg > env var > default."""
    try:
        if override is not None:
            tolerance = float(override)
        else:
            raw = os.environ.get(TOLERANCE_ENV, "")
            tolerance = float(raw) if raw else DEFAULT_TOLERANCE_PCT
    except ValueError as exc:
        raise BenchmarkError(f"tolerance is not a number: {exc}") from None
    if not 0 < tolerance < 100:
        raise BenchmarkError(
            f"tolerance must be in (0, 100) percent, got {tolerance}"
        )
    return tolerance


def _series(payload: Dict[str, Any]) -> Dict[str, float]:
    """Flatten a bench payload into named throughput series."""
    out: Dict[str, float] = {}
    sweep = payload.get("sweep") or {}
    value = sweep.get("events_per_s")
    if value:
        out["sweep.events_per_s"] = float(value)
    for fabric, agg in (sweep.get("by_fabric") or {}).items():
        fabric_value = agg.get("events_per_s")
        if fabric_value:
            out[f"sweep.by_fabric.{fabric}.events_per_s"] = float(fabric_value)
    return out


def _fabric_events(payload: Dict[str, Any]) -> Dict[str, int]:
    """Per-fabric deterministic event counts of a bench payload."""
    by_fabric = (payload.get("sweep") or {}).get("by_fabric") or {}
    return {
        fabric: agg["events"] for fabric, agg in by_fabric.items()
        if "events" in agg
    }


def _event_count_failures(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> List[str]:
    """Fabrics whose exact event count differs from the baseline's.

    A fabric missing from the current payload already fails its
    throughput series.  Sweeps with retried or resumed cells leave those
    cells out of ``by_fabric``, so their counts are partial and skipped.
    """
    sweep = current.get("sweep") or {}
    if sweep.get("retried_cells") or sweep.get("resumed_cells"):
        return []
    cur = _fabric_events(current)
    return [
        f"sweep.by_fabric.{fabric}.events: {cur[fabric]:,} != baseline "
        f"{base:,} (event counts are deterministic; the event graph changed)"
        for fabric, base in sorted(_fabric_events(baseline).items())
        if fabric in cur and cur[fabric] != base
    ]


def _check_configs_match(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> None:
    """Refuse to compare runs of different benchmark configurations.

    events/sec depends on queue depth and sweep size; comparing a
    16-node baseline to an 8-node rerun would hide (or invent) a
    regression.  ``jobs`` is exempt — per-cell wall time sums worker
    time, so worker count does not change the metric's meaning.
    """
    base_cfg = dict(baseline.get("config") or {})
    cur_cfg = dict(current.get("config") or {})
    if not base_cfg or not cur_cfg:
        return
    base_cfg.pop("jobs", None)
    cur_cfg.pop("jobs", None)
    if base_cfg != cur_cfg:
        raise BenchmarkError(
            f"bench configs differ (baseline {base_cfg} vs current {cur_cfg}); "
            f"regenerate with the baseline's configuration"
        )


def baseline_warnings(baseline: Dict[str, Any]) -> List[str]:
    """Non-fatal problems with the committed baseline itself.

    A dirty baseline does not fail the gate — the comparison is still
    better than nothing — but it means the ratchet's reference numbers
    came from code that was never committed, so every report calls it
    out until the baseline is regenerated from a clean checkout.
    """
    warnings: List[str] = []
    git = baseline.get("git") or {}
    if git.get("dirty"):
        commit = str(git.get("commit") or "unknown")[:12]
        warnings.append(
            f"baseline was generated from a dirty working tree "
            f"(commit {commit}); regenerate it from a clean commit so the "
            f"gate ratchets against reviewable code"
        )
    return warnings


def gate_failures(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance_pct: Optional[float] = None,
) -> List[str]:
    """Regression messages for every series that dropped past tolerance,
    and for every fabric whose exact event count changed.

    Empty list = gate passes.  Series only the *current* payload has are
    skipped (schema growth must not fail old baselines), but a gated
    sweep series the baseline has and the current run lacks — or reports
    as zero — fails: a bench that stopped producing the number is a
    regression, not a skip.
    """
    tolerance = gate_tolerance_pct(tolerance_pct)
    _check_configs_match(baseline, current)
    base_series = _series(baseline)
    cur_series = _series(current)
    if not base_series:
        raise BenchmarkError("baseline payload carries no throughput series")
    failures: List[str] = []
    for name, base in sorted(base_series.items()):
        cur = cur_series.get(name)
        if cur is None:
            # A gated series that vanished (or collapsed to zero — _series
            # drops falsy values) is the worst regression, not a skip.
            failures.append(
                f"{name}: missing or zero in current payload "
                f"(baseline {base:,.0f})"
            )
            continue
        floor = base * (1.0 - tolerance / 100.0)
        if cur < floor:
            drop = 100.0 * (base - cur) / base
            failures.append(
                f"{name}: {cur:,.0f} is {drop:.1f}% below baseline "
                f"{base:,.0f} (tolerance {tolerance:g}%)"
            )
    failures.extend(_event_count_failures(baseline, current))
    return failures


def gate_report(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    tolerance_pct: Optional[float] = None,
) -> str:
    """Human-readable delta table for every shared series."""
    tolerance = gate_tolerance_pct(tolerance_pct)
    base_series = _series(baseline)
    cur_series = _series(current)
    lines = [f"bench gate (tolerance {tolerance:g}% drop):"]
    for warning in baseline_warnings(baseline):
        lines.append(f"  WARNING: {warning}")
    sweep = current.get("sweep") or {}
    if sweep.get("retried_cells") or sweep.get("resumed_cells"):
        # perf_summary / by_fabric already exclude these cells from
        # every events_per_s series, so the gate still sees clean
        # timings — this line just keeps the exclusion visible.
        lines.append(
            "  note: sweep excluded retried/resumed cells from its "
            "throughput series (gate ignores retried-cell wall times)"
        )
    for name, base in sorted(base_series.items()):
        cur = cur_series.get(name)
        if cur is None:
            lines.append(f"  {name:<44} baseline-only, skipped")
            continue
        delta = 100.0 * (cur - base) / base if base else 0.0
        if cur < base * (1.0 - tolerance / 100.0):
            verdict = "FAIL"
        else:
            verdict = "ok"
        lines.append(
            f"  {name:<44} {base:>12,.0f} -> {cur:>12,.0f}  "
            f"({delta:+.1f}%)  {verdict}"
        )
    changed = _event_count_failures(baseline, current)
    for failure in changed:
        lines.append(f"  FAIL {failure}")
    if _fabric_events(baseline) and not changed:
        lines.append("  per-fabric event counts: exact match")
    return "\n".join(lines)
