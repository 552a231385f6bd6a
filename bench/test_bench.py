"""Self-tests of the benchmark: tiny workloads, metric names, checks that bite.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import snvtune.cli
import snvtune.control
import snvtune.spectroscopy
import worker
from tracing import layer_metrics, Tracer
from workloads import CliSize, ScanFitSize, StabilizeSize, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
SEED = 3


def tiny_plan(name, tmp_path):
    if name == "stabilize_feedback":
        return WORKLOADS[name](SEED, StabilizeSize(duration_s=300.0, n_scans=2))
    if name == "scan_fit":
        return WORKLOADS[name](SEED, ScanFitSize(n_voltages=2))
    return WORKLOADS[name](SEED, CliSize(tune_steps=5, ple_biases=2, ple_points=41,
                                         inhomo_n=100, pulse_grid=3,
                                         stabilize_s=60.0, stabilize_scans=2),
                           workdir=tmp_path)


def traced_counts(plan, tmp_path):
    _, metrics, _ = worker.measure_traced(plan, 0.0, tmp_path / "trace.json")
    return metrics, {k: v for k, (v, unit) in metrics.items()
                     if unit in ("count", "B", "ratio") and not k.startswith("trace.")}


def test_workload_names_match_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    plan = tiny_plan(name, tmp_path)
    tally, metrics, op_times = worker.measure(plan, 0.0)
    assert len(op_times) == 1 and tally.attempted > 0
    assert (tally.failed, tally.mismatched) == (0, 0)
    tally.add(worker.run_round(plan)[0])   # a second round must reproduce
    assert (tally.failed, tally.mismatched) == (0, 0)
    gated = set(metrics) | {"peak_rss_mb", "setup_s"}
    assert {m["name"] for m in SPEC["end_to_end"]} <= gated
    assert all(v > 0 for v, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_and_names_match_spec(name, tmp_path):
    metrics, counts = traced_counts(tiny_plan(name, tmp_path), tmp_path)
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert {metrics[m["name"]][1] for m in SPEC["per_layer"]} == \
        {m["unit"] for m in SPEC["per_layer"]}
    _, again = traced_counts(tiny_plan(name, tmp_path), tmp_path)
    assert counts == again
    assert 0.9 <= metrics["trace.accounted_ratio"][0] <= 1.0 + 1e-9


def test_tracer_restores_every_patch():
    before = (snvtune.control.lockin_error, snvtune.cli.main,
              snvtune.emitters.TuningCurve.shift)
    with Tracer():
        assert snvtune.control.lockin_error is not before[0]
    assert (snvtune.control.lockin_error, snvtune.cli.main,
            snvtune.emitters.TuningCurve.shift) == before


def test_self_time_excludes_children():
    tr = Tracer()
    inner = tr.wrap(lambda: sum(range(20000)), "inner")
    outer = tr.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    total_outer = tr.stats["outer"][1]
    assert tr.calls("inner") == 3
    assert tr.self_s("outer") == pytest.approx(total_outer - tr.stats["inner"][1])
    assert layer_metrics(tr, total_outer, total_outer)["trace.accounted_ratio"][0] \
        == pytest.approx(1.0)


def test_shifted_fit_center_raises_error_rate(tmp_path, monkeypatch):
    fit_line = snvtune.spectroscopy.fit_line

    def shifted(scan, shape="lorentzian"):
        fit = fit_line(scan, shape)
        return replace(fit, center=fit.center + 1.0)

    monkeypatch.setattr(snvtune.spectroscopy, "fit_line", shifted)
    tally, _, _ = worker.measure(tiny_plan("scan_fit", tmp_path), 0.0)
    assert tally.failed == tally.attempted > 0


def test_wrong_tune_curve_shift_raises_error_rate(tmp_path, monkeypatch):
    chain = snvtune.cli.shift_from_voltage_chain
    monkeypatch.setattr(snvtune.cli, "shift_from_voltage_chain",
                        lambda e, d, v: chain(e, d, v) * (1.0 + 1e-6) + 1e-6)
    tally, _, _ = worker.measure(tiny_plan("cli_pipeline", tmp_path), 0.0)
    assert tally.failed == 1


def test_unconverged_scans_fail_the_stabilization_spec(tmp_path, monkeypatch):
    fit_line = snvtune.control.fit_line
    monkeypatch.setattr(snvtune.control, "fit_line",
                        lambda scan, shape: replace(fit_line(scan, shape),
                                                    converged=False))
    tally, _, _ = worker.measure(tiny_plan("stabilize_feedback", tmp_path), 0.0)
    assert tally.spec_missed == tally.attempted == 2
    assert tally.failed == 0


def test_shifted_stabilization_scan_center_fails(tmp_path, monkeypatch):
    fit_line = snvtune.control.fit_line

    def shifted(scan, shape):
        fit = fit_line(scan, shape)
        return replace(fit, center=fit.center + 1.0)

    monkeypatch.setattr(snvtune.control, "fit_line", shifted)
    tally, _, _ = worker.measure(tiny_plan("stabilize_feedback", tmp_path), 0.0)
    assert tally.failed == tally.attempted == 2


def test_file_missing_in_a_later_round_fails(tmp_path, monkeypatch):
    plan = tiny_plan("cli_pipeline", tmp_path)
    tally = worker.Tally(plan)
    tally.add(worker.run_round(plan)[0])
    monkeypatch.setattr(snvtune.cli, "_write_json", lambda path, payload: None)
    tally.add(worker.run_round(plan)[0])
    # inhomo --matched, inhomo --n and stabilize each write a JSON summary
    assert tally.failed == 3
