"""Self-test of the benchmark harness at a tiny size (8 nodes, 120 messages).

Run from the repository root::

    python -m pytest -q perfbench/test_harness.py

Covers every metric name and unit against ``BENCHMARK.json``, the
output line's contract, and every correctness check -- including a run
with one dropped completion, which must fail.
"""

from __future__ import annotations

import functools
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import reference
import run
import tracing

ROOT = Path(__file__).resolve().parent.parent
TINY = {"nodes": 8, "messages": 120}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_measure(monkeypatch) -> None:
    monkeypatch.setattr(harness, "measure", functools.partial(harness.measure, **TINY))


def _drop_last_completion(monkeypatch) -> None:
    """Make every fabric lose its last completion record."""
    real = harness.fabric_by_name

    def fabric_by_name(name, config):
        fabric = real(name, config)
        run_fabric = fabric.run

        def lossy_run(messages, **kwargs):
            result = run_fabric(messages, **kwargs)
            if len(messages) > 1:  # leave the single-message probes alone
                result.records.pop()
            return result

        fabric.run = lossy_run
        return fabric

    monkeypatch.setattr(harness, "fabric_by_name", fabric_by_name)


def _offered_and_records(name: str = "edm_64b_rw"):
    workload = harness.WORKLOADS[name]
    offered = harness.workload_from_spec(workload.spec(5, **TINY)).materialize()
    fabric = harness.fabric_by_name(
        workload.fabric, harness.ClusterConfig(num_nodes=8, link_gbps=100, seed=5)
    )
    return offered, fabric.run(offered, deadline_ns=workload.deadline_ns).records


# --------------------------------------------------------------------------- #
# BENCHMARK.json agrees with the harness                                      #
# --------------------------------------------------------------------------- #


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == harness.WORKLOADS[entry["name"]].why


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER


# --------------------------------------------------------------------------- #
# Metrics                                                                     #
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    outcome = harness.measure(harness.WORKLOADS[name], 3, 0.01, False, **TINY)
    assert outcome.units == harness.END_TO_END
    assert set(outcome.metrics) == set(harness.END_TO_END)
    assert all(value > 0 for value in outcome.metrics.values())
    minimum = harness.INPUTS * harness.MIN_ROUNDS
    assert outcome.attempted == TINY["messages"] // 10 + TINY["messages"] * minimum
    assert outcome.failed == 0
    assert all(rep.slowness > 0 for rep in outcome.reps[1:])


def test_runs_of_distinct_seeds_measure_distinct_inputs():
    seeds = [harness.input_seeds(seed) for seed in range(4)]
    assert all(len(set(s)) == harness.INPUTS for s in seeds)
    assert len({seed for s in seeds for seed in s}) == 4 * harness.INPUTS
    assert seeds[1] == harness.input_seeds(1)


def test_times_are_scaled_by_the_machine_slowness():
    quiet = _rep(slowness=1.0)
    slow = _rep(run_s=2.0, gen_s=0.2, build_s=0.2, probe_s=0.2, slowness=2.0)
    assert slow.msgs_per_s == quiet.msgs_per_s / 2
    assert slow.norm_msgs_per_s == quiet.norm_msgs_per_s
    assert slow.norm_setup_s == pytest.approx(quiet.norm_setup_s)
    metrics = harness.end_to_end_metrics([quiet, slow, slow])
    assert metrics["msgs_per_s"] == quiet.msgs_per_s
    assert metrics["setup_s"] == pytest.approx(quiet.setup_s)


def test_reference_probe_is_timed_with_the_collector_off():
    assert reference.probe_s() > 0
    assert reference.NOMINAL_S > 0
    assert gc.isenabled()


#: Layers each workload must pass through (nonzero calls) or skip (zero).
_EDM_LAYERS = ("host.calls", "memctrl.calls", "switchfab.calls", "core.scheduler.rounds")


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name):
    workload = harness.WORKLOADS[name]
    first = harness.measure(workload, 3, 0.01, True, **TINY)
    second = harness.measure(workload, 3, 0.01, True, **TINY)
    assert first.units == harness.PER_LAYER
    assert set(first.metrics) == set(harness.PER_LAYER)
    # Deterministic counts and simulated outputs repeat exactly.
    for metric, unit in harness.PER_LAYER.items():
        if unit in ("count", "B", "ns") or metric == "fabrics.norm_latency_mean":
            assert first.metrics[metric] == second.metrics[metric], metric
    metrics = first.metrics
    assert metrics["sim.engine.events"] > 0 and metrics["sim.link.sends"] > 0
    assert 0 < metrics["sim.engine.share"] <= 1
    is_edm = workload.fabric == "EDM"
    for metric in _EDM_LAYERS:
        assert (metrics[metric] > 0) == is_edm, metric
    assert (metrics["fabrics.queueing.calls"] > 0) == (not is_edm)
    if is_edm:
        assert 0 < metrics["core.scheduler.useful_round_frac"] <= 1
        assert metrics["core.scheduler.grants"] >= metrics["workloads.messages"]


def test_tracer_restores_every_entry_point():
    harness.measure(harness.WORKLOADS["edm_64b_rw"], 3, 0.01, True, **TINY)
    for cls, name, _ in tracing.Tracer()._patches():
        assert not hasattr(cls.__dict__[name], "perfbench_layer"), f"{cls}.{name}"


def test_self_times_add_up_to_the_root_span():
    tracer = tracing.Tracer()
    rep = harness.run_rep(harness.WORKLOADS["edm_64b_rw"], 3, tracer=tracer, **TINY)
    assert tracer.calls["sim.engine"] > 0
    assert all(value >= 0 for value in tracer.self_s.values())
    # The root span is the traced Fabric.run: its layers' self times cover
    # all of it, and the run's own timer adds only the patching around it.
    assert 0.9 * rep.run_s <= tracer.total_s() <= rep.run_s


# --------------------------------------------------------------------------- #
# Correctness gate                                                            #
# --------------------------------------------------------------------------- #


def test_complete_run_passes_the_gate():
    offered, records = _offered_and_records()
    assert harness.check_completions(offered, records) == []


def test_dropped_completion_fails():
    offered, records = _offered_and_records()
    problems = harness.check_completions(offered, records[:-1])
    assert problems and "never completed" in problems[0]


def test_duplicate_completion_fails():
    offered, records = _offered_and_records()
    problems = harness.check_completions(offered, records + records[:1])
    assert any("more than once" in p for p in problems)


def test_completion_before_arrival_fails():
    offered, records = _offered_and_records()
    record = records[0]
    record.completed_at = record.message.arrival_ns
    problems = harness.check_completions(offered, records)
    assert any("not after their arrival" in p for p in problems)


def test_completion_of_unoffered_uid_fails():
    offered, records = _offered_and_records()
    problems = harness.check_completions(offered[1:], records)
    assert any("never offered" in p for p in problems)


def test_repetition_with_a_dropped_completion_raises(monkeypatch):
    _drop_last_completion(monkeypatch)
    with pytest.raises(harness.CheckFailed) as caught:
        harness.run_rep(harness.WORKLOADS["pfc_hadoop_trace"], 3, **TINY)
    assert caught.value.attempted == TINY["messages"]
    assert caught.value.failed == 1


def _rep(**changes) -> harness.Rep:
    base = dict(
        offered=10, completed=10, digest="d", events=100, frames_dropped=0,
        gen_s=0.1, build_s=0.1, run_s=1.0, probe_s=0.1,
        sim_latency_p50_ns=100.0, sim_latency_p99_ns=200.0, norm_latency_mean=1.5,
    )
    base.update(changes)
    return harness.Rep(**base)


@pytest.mark.parametrize(
    "change", [{"digest": "other"}, {"events": 101}, {"frames_dropped": 1}]
)
def test_unrepeatable_repetitions_fail(change):
    harness.check_repeatable([_rep(), _rep()])
    with pytest.raises(harness.CheckFailed):
        harness.check_repeatable([_rep(), _rep(), _rep(**change)])


def test_traced_run_must_reproduce_the_untraced_outputs(monkeypatch):
    real = harness.run_rep

    def run_rep(*args, tracer=None, **kwargs):
        rep = real(*args, tracer=tracer, **kwargs)
        if tracer is not None:
            rep.events += 1
        return rep

    monkeypatch.setattr(harness, "run_rep", run_rep)
    with pytest.raises(harness.CheckFailed):
        harness.measure(harness.WORKLOADS["edm_64b_rw"], 3, 0.01, True, **TINY)


# --------------------------------------------------------------------------- #
# The command's output contract                                               #
# --------------------------------------------------------------------------- #


def _main(capsys, *argv: str):
    code = run.main(["--seed", "2", "--seconds", "0.01", *argv])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, [json.loads(line) for line in lines]


@pytest.mark.parametrize("trace, expected", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_metric_by_name_and_unit(monkeypatch, capsys, trace, expected):
    _tiny_measure(monkeypatch)
    code, lines = _main(capsys, "--workload", "edm_64b_rw", "--trace", trace)
    assert code == 0
    provenance, result = lines[-2]["provenance"], lines[-1]
    assert set(provenance) == {"commit", "dirty", "nproc", "python", "numpy"}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in SPEC[expected]
    }


def test_failed_check_reports_no_numbers(monkeypatch, capsys):
    _tiny_measure(monkeypatch)
    _drop_last_completion(monkeypatch)
    code, lines = _main(capsys, "--workload", "edm_64b_rw", "--trace", "0")
    assert code == 1
    assert lines[-1] == {
        "correct": False, "attempted": TINY["messages"] // 10, "failed": 1, "metrics": {}
    }


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edm_64b_rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
