"""Tests for the CI perf-regression gate over BENCH_kernel payloads."""

import copy
import json
import pathlib

import pytest

from repro.cli import main
from repro.errors import BenchmarkError
from repro.experiments.benchgate import (
    DEFAULT_TOLERANCE_PCT,
    baseline_warnings,
    gate_failures,
    gate_report,
    gate_tolerance_pct,
)


def _payload(events_per_s=200_000, nodes=16):
    return {
        "schema": 2,
        "config": {"num_nodes": nodes, "message_count": 4000,
                   "loads": [0.3, 0.8], "seed": 1, "jobs": 1},
        "sweep": {"events": 1, "events_per_s": events_per_s},
    }


class TestTolerance:
    def test_default(self):
        assert gate_tolerance_pct() == DEFAULT_TOLERANCE_PCT == 30.0

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE_PCT", "12.5")
        assert gate_tolerance_pct() == 12.5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE_PCT", "12.5")
        assert gate_tolerance_pct(40.0) == 40.0

    @pytest.mark.parametrize("bad", [0.0, -5.0, 100.0])
    def test_out_of_range(self, bad):
        with pytest.raises(BenchmarkError):
            gate_tolerance_pct(bad)

    def test_malformed_env_is_a_clean_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE_PCT", "30%")
        with pytest.raises(BenchmarkError, match="not a number"):
            gate_tolerance_pct()


class TestGate:
    def test_identical_payloads_pass(self):
        assert gate_failures(_payload(), _payload()) == []

    def test_injected_regression_fails(self):
        # The acceptance scenario: >30% events/sec drop must fail.
        slow = _payload(int(200_000 * 0.65))
        failures = gate_failures(_payload(), slow)
        assert len(failures) == 1
        assert "sweep.events_per_s" in failures[0]
        assert "35.0% below baseline" in failures[0]

    def test_drop_within_tolerance_passes(self):
        assert gate_failures(_payload(), _payload(160_000)) == []

    def test_tighter_tolerance_catches_smaller_drops(self):
        mild = _payload(160_000)  # -20%
        assert len(gate_failures(_payload(), mild, tolerance_pct=10)) == 1

    def test_improvements_never_fail(self):
        fast = _payload(400_000)
        assert gate_failures(_payload(), fast) == []

    def test_config_mismatch_refuses(self):
        with pytest.raises(BenchmarkError, match="configs differ"):
            gate_failures(_payload(), _payload(nodes=8))

    def test_jobs_difference_is_exempt(self):
        other = _payload()
        other["config"]["jobs"] = 8
        assert gate_failures(_payload(), other) == []

    def test_empty_baseline_refuses(self):
        with pytest.raises(BenchmarkError, match="no throughput series"):
            gate_failures({"sweep": {}}, _payload())

    def test_missing_gated_series_fails(self):
        partial = copy.deepcopy(_payload())
        del partial["sweep"]["events_per_s"]
        failures = gate_failures(_payload(), partial)
        assert len(failures) == 1
        assert "missing or zero" in failures[0]

    def test_zero_gated_series_fails(self):
        failures = gate_failures(_payload(), _payload(0))
        assert len(failures) == 1
        assert "sweep.events_per_s" in failures[0]

    def test_new_series_in_current_only_is_skipped(self):
        grown = copy.deepcopy(_payload())
        grown["sweep"]["by_fabric"] = {"wheel": {"events": 1, "events_per_s": 1}}
        assert gate_failures(_payload(), grown) == []


def _with_fabrics(payload, edm=100_000, pfc=100_000):
    out = copy.deepcopy(payload)
    out["sweep"]["by_fabric"] = {
        "edm": {"events": 1, "wall_s": 1.0, "events_per_s": edm},
        "pfc": {"events": 1, "wall_s": 1.0, "events_per_s": pfc},
    }
    return out


class TestPerFabricGate:
    def test_fabric_regression_fails_despite_healthy_aggregate(self):
        # A one-fabric collapse hidden by speedups elsewhere: the
        # aggregate holds, the per-fabric series must still fail.
        base = _with_fabrics(_payload())
        cur = _with_fabrics(_payload(), edm=40_000, pfc=200_000)
        failures = gate_failures(base, cur)
        assert len(failures) == 1
        assert "sweep.by_fabric.edm.events_per_s" in failures[0]

    def test_identical_fabrics_pass(self):
        base = _with_fabrics(_payload())
        assert gate_failures(base, copy.deepcopy(base)) == []

    def test_old_baseline_without_by_fabric_does_not_fail(self):
        # Schema growth: the committed baseline predates the per-fabric
        # split; a current payload that has it must still gate cleanly
        # on the aggregate alone.
        assert gate_failures(_payload(), _with_fabrics(_payload())) == []

    def test_missing_fabric_series_fails(self):
        base = _with_fabrics(_payload())
        cur = copy.deepcopy(base)
        del cur["sweep"]["by_fabric"]["edm"]
        failures = gate_failures(base, cur)
        assert len(failures) == 1
        assert "missing or zero" in failures[0]

    def test_changed_event_count_fails(self):
        # Event counts are deterministic: one extra event fails the gate
        # even when every throughput series is healthy.
        base = _with_fabrics(_payload())
        cur = copy.deepcopy(base)
        cur["sweep"]["by_fabric"]["pfc"]["events"] = 2
        failures = gate_failures(base, cur)
        assert failures == [
            "sweep.by_fabric.pfc.events: 2 != baseline 1 (event counts are "
            "deterministic; the event graph changed)"
        ]
        assert "FAIL sweep.by_fabric.pfc.events" in gate_report(base, cur)
        assert "exact match" in gate_report(base, copy.deepcopy(base))

    def test_event_counts_skipped_when_cells_were_retried(self):
        # by_fabric leaves retried cells out, so its counts are partial.
        base = _with_fabrics(_payload())
        cur = copy.deepcopy(base)
        cur["sweep"]["by_fabric"]["pfc"]["events"] = 0
        cur["sweep"]["retried_cells"] = 1
        assert gate_failures(base, cur) == []

    def test_fabric_series_respect_tolerance_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE_PCT", "60")
        base = _with_fabrics(_payload())
        cur = _with_fabrics(_payload(), edm=45_000)  # -55%: ok at 60%
        assert gate_failures(base, cur) == []
        monkeypatch.setenv("REPRO_BENCH_TOLERANCE_PCT", "50")
        assert len(gate_failures(base, cur)) == 1


class TestDirtyBaselineWarning:
    def test_clean_baseline_no_warnings(self):
        clean = _payload()
        clean["git"] = {"commit": "a" * 40, "dirty": False}
        assert baseline_warnings(clean) == []
        assert baseline_warnings(_payload()) == []  # no git block at all

    def test_dirty_baseline_warns(self):
        dirty = _payload()
        dirty["git"] = {"commit": "b" * 40, "dirty": True}
        warnings = baseline_warnings(dirty)
        assert len(warnings) == 1
        assert "dirty working tree" in warnings[0]
        assert "b" * 12 in warnings[0]

    def test_dirty_warning_in_report_but_gate_passes(self):
        dirty = _payload()
        dirty["git"] = {"commit": "c" * 40, "dirty": True}
        report = gate_report(dirty, _payload())
        assert "WARNING" in report and "dirty working tree" in report
        assert gate_failures(dirty, _payload()) == []


class TestCliGate:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload))
        return str(path)

    def test_cli_passes_on_identical(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _payload())
        cur = self._write(tmp_path / "cur.json", _payload())
        main(["bench-gate", "--baseline", base, "--current", cur])
        assert "bench gate: PASS" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", _payload())
        cur = self._write(
            tmp_path / "cur.json", _payload(100_000)
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["bench-gate", "--baseline", base, "--current", cur])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.err

    def test_cli_tolerance_flag(self, tmp_path):
        base = self._write(tmp_path / "base.json", _payload())
        cur = self._write(tmp_path / "cur.json", _payload(160_000))
        main(["bench-gate", "--baseline", base, "--current", cur,
              "--tolerance", "50"])  # -20% passes at 50%
        with pytest.raises(SystemExit):
            main(["bench-gate", "--baseline", base, "--current", cur,
                  "--tolerance", "5"])

    def test_committed_baseline_passes_against_itself(self, capsys):
        committed = str(
            pathlib.Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
        )
        main(["bench-gate", "--baseline", committed, "--current", committed])
        assert "bench gate: PASS" in capsys.readouterr().out
