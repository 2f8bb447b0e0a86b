#!/usr/bin/env python3
"""Run one benchmark workload against ``src/`` and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload edm_64b_rw --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate traced repetition.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
provenance (commit, dirty-tree flag, CPUs, Python and numpy versions).
Progress and a readable table go to standard error.  ``--workload all``
runs each workload in its own process, so each peak-memory figure
covers that workload alone.

Exits 0 on a checked result, 1 when an output fails the correctness
gate (no numbers are reported), 2 when ``src/repro`` is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _git(*args: str) -> Optional[str]:
    """Output of a git command on this checkout, or None without git."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=30, env=env, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout if done.returncode == 0 else None


def provenance() -> Dict[str, object]:
    import numpy

    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "commit": commit.strip() if commit else None,
        "dirty": None if status is None else bool(status.strip()),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _format_table(workload: str, metrics: Dict[str, Dict[str, object]]) -> str:
    lines = [f"{workload}:"]
    for name, entry in metrics.items():
        lines.append(f"  {name:<36} {entry['value']:>18.6g} {entry['unit']}")
    return "\n".join(lines)


def _run_one(harness, args: argparse.Namespace) -> int:
    workload = harness.WORKLOADS[args.workload]
    prov = provenance()
    print(json.dumps({"provenance": prov}), flush=True)
    if prov["dirty"]:
        print(
            f"perfbench: WARNING: measured on a dirty tree at {prov['commit']}",
            file=sys.stderr,
        )
    try:
        outcome = harness.measure(
            workload, args.seed, args.seconds, bool(args.trace),
            log=lambda line: print(line, file=sys.stderr, flush=True),
        )
    except harness.CheckFailed as exc:
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        result = {
            "correct": False,
            "attempted": max(exc.attempted, 1),
            "failed": exc.failed,
            "metrics": {},
        }
        print(json.dumps(result))
        return 1
    metrics = {
        name: {"value": outcome.metrics[name], "unit": unit}
        for name, unit in outcome.units.items()
    }
    print(_format_table(workload.name, metrics), file=sys.stderr)
    result = {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _run_all(harness, args: argparse.Namespace) -> int:
    """Each workload in its own process; prints every result line."""
    worst = 0
    summary: Dict[str, object] = {}
    for name in harness.WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if lines else None
        for line in lines:
            print(line, flush=True)
    print(json.dumps({"workloads": summary}))
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload == "all":
        return _run_all(harness, args)
    if args.workload not in harness.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r} "
            f"(known: {', '.join(harness.WORKLOADS)}, all)"
        )
    return _run_one(harness, args)


if __name__ == "__main__":
    sys.exit(main())
