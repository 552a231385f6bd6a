import copy
import csv
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

import snvtune as st
from snvtune import cli
from snvtune import config as config_module
from snvtune.cli import derive_seed, main
from snvtune.config import default_config_text, matched_sample_path, parse_config

from oracles import pulsed_heat_peak, read_scan


def run_cli(*args) -> int:
    return main([str(a) for a in args])


DROP = object()  # marks a key to delete


def reject_constant(name):
    """``json.loads`` hook that refuses NaN and Infinity, as strict parsers do."""
    raise ValueError(f"non-JSON constant {name}")


def mutate(doc, path, value):
    """``doc`` with the node at ``path`` replaced by ``value`` or deleted."""
    parent = doc
    for key in path[:-1]:
        parent = parent[int(key) if isinstance(parent, list) else key]
    last = int(path[-1]) if isinstance(parent, list) else path[-1]
    if value is DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


def key_paths(node, prefix=()):
    """Every key path below ``node`` (dict keys and list indices)."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def read_csv_rows(path: Path):
    with path.open() as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        return list(reader)


class TestTuneCurve:
    def test_bulk_reference_never_shifts(self, tmp_path):
        assert run_cli("--out", tmp_path, "tune-curve",
                       "--emitters", "bulk_reference,axial_hinge",
                       "--steps", "7") == 0
        rows = read_csv_rows(tmp_path / "tune_curve.csv")
        bulk = [r for r in rows if r["emitter"] == "bulk_reference"]
        assert len(bulk) == 7
        assert all(float(r["shift_GHz"]) == 0.0 for r in bulk)

    def test_zero_voltage_row_is_exactly_zero(self, tmp_path):
        assert run_cli("--out", tmp_path, "tune-curve", "--steps", "5") == 0
        rows = read_csv_rows(tmp_path / "tune_curve.csv")
        for row in rows:
            if float(row["bias_V"]) == 0.0:
                assert row["shift_GHz"] == "0"

    def test_reloaded_axial_curve_is_monotone(self, tmp_path):
        assert run_cli("--out", tmp_path, "tune-curve",
                       "--emitters", "axial_hinge", "--steps", "17") == 0
        rows = read_csv_rows(tmp_path / "tune_curve.csv")
        shifts = [abs(float(r["shift_GHz"])) for r in rows]
        volts = [float(r["bias_V"]) for r in rows]
        assert volts == sorted(volts)
        assert all(b >= a for a, b in zip(shifts, shifts[1:]))

    def test_unknown_emitter_exits_2_and_lists_ids(self, tmp_path, capsys):
        assert run_cli("--out", tmp_path, "tune-curve",
                       "--emitters", "nope") == 2
        err = capsys.readouterr().err
        assert "nope" in err
        assert "axial_hinge" in err
        assert not (tmp_path / "tune_curve.csv").exists()

    def test_jobs_flag_gives_identical_output(self, tmp_path):
        run_cli("--out", tmp_path / "serial", "tune-curve", "--steps", "9")
        run_cli("--out", tmp_path / "par", "--jobs", "3", "tune-curve",
                "--steps", "9")
        assert ((tmp_path / "serial" / "tune_curve.csv").read_bytes()
                == (tmp_path / "par" / "tune_curve.csv").read_bytes())

    def test_provenance_headers_present(self, tmp_path, config):
        run_cli("--out", tmp_path, "--seed", "808", "tune-curve", "--steps", "3")
        head = (tmp_path / "tune_curve.csv").read_text().splitlines()[:4]
        assert head[0].startswith("# tool=snvtune")
        assert head[1] == "# command=tune-curve"
        assert head[2] == f"# config_sha256={config.config_hash()}"
        assert head[3] == "# seed=808"

    @pytest.mark.parametrize("name", ["axial_hinge", "axial_mid",
                                      "transversal_hinge", "bulk_reference"])
    def test_shifts_match_the_cancellation_free_chain(self, config, name):
        # With nu0 = 0 the chain's nu_c - nu0 loses no digits to the
        # 4.8e5 GHz line frequency; with the shipped nu0 it is off by up to 9e-11.
        grid = np.linspace(0.0, 80.0, 1000)
        emitter = config.emitter(name)
        exact = dataclasses.replace(emitter, nu0=0.0)
        shifts = cli._tune_one(config, name, grid)[0]
        chain = [st.shift_from_voltage_chain(exact, config.device, v) for v in grid]
        assert np.max(np.abs(shifts - chain)) <= 1e-12

    def test_chain_runs_only_at_the_grid_ends(self, tmp_path, monkeypatch):
        calls = []
        chain = cli.shift_from_voltage_chain

        def recording(emitter, device, v):
            calls.append((emitter.name, float(v)))
            return chain(emitter, device, v)

        monkeypatch.setattr(cli, "shift_from_voltage_chain", recording)
        assert run_cli("--out", tmp_path, "tune-curve", "--emitters",
                       "axial_mid,bulk_reference", "--v-min", "5",
                       "--v-max", "70", "--steps", "50") == 0
        assert calls == [("axial_mid", 5.0), ("axial_mid", 70.0),
                         ("bulk_reference", 5.0), ("bulk_reference", 70.0)]

    def test_curve_disagreeing_with_chain_exits_3(self, tmp_path, capsys, monkeypatch):
        chain = cli.shift_from_voltage_chain
        monkeypatch.setattr(cli, "shift_from_voltage_chain",
                            lambda e, d, v: chain(e, d, v) + 1e-6)
        out = tmp_path / "out"
        assert run_cli("--out", out, "tune-curve", "--steps", "7") == 3
        err = capsys.readouterr().err
        assert "error: " in err and "voltage chain" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("emitters, code", [(None, 3), ("axial_hinge", 3),
                                                ("bulk_reference", 0)],
                             ids=["all", "axial_hinge", "bulk_reference"])
    def test_grid_beyond_actuator_range(self, tmp_path, capsys, emitters, code):
        # only a strained emitter feels the actuator's range
        pick = ["--emitters", emitters] if emitters else []
        out = tmp_path / "out"
        assert run_cli("--out", out, "tune-curve", *pick, "--v-max", "90") == code
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "tune_curve.csv").exists() == (code == 0)


class TestPle:
    def test_emits_scan_and_metadata(self, tmp_path):
        assert run_cli("--out", tmp_path, "ple", "--emitter", "axial_hinge",
                       "--bias", "75", "--points", "41") == 0
        (detunings, _), meta = read_scan(tmp_path / "ple_axial_hinge_75V.csv")
        assert detunings.size == 41
        assert meta["bias_V"] == 75.0
        assert meta["emitter"] == "axial_hinge"

    def test_round_trip_matches_memory(self, tmp_path, config):
        run_cli("--out", tmp_path, "ple", "--emitter", "axial_hinge",
                "--bias", "30", "--points", "33", "--span", "3.0")
        (detunings, counts), meta = read_scan(tmp_path / "ple_axial_hinge_30V.csv")
        assert meta["counts_kind"] == "int"
        emitter = config.emitter("axial_hinge")
        seed = derive_seed(config.seed, "ple", "axial_hinge", "30")
        curve = st.TuningCurve(emitter, config.device)
        center = float(curve.shift(30.0))
        det = center + np.linspace(-1.5, 1.5, 33)
        direct = st.simulate_ple(emitter, config.device, 30.0, det, 0.005,
                                 seed=seed)
        assert np.array_equal(counts, direct.counts)
        np.testing.assert_allclose(detunings, direct.detunings, rtol=1e-11)

    def test_window_warning_recorded(self, tmp_path):
        run_cli("--out", tmp_path, "ple", "--emitter", "axial_hinge",
                "--bias", "80", "--center", "0.0", "--span", "2.0",
                "--points", "17")
        meta = json.loads(
            (tmp_path / "ple_axial_hinge_80V.csv.meta.json").read_text())
        assert meta["window_warning"] is True

    def test_expected_value_mode(self, tmp_path):
        run_cli("--out", tmp_path, "--expected-value", "ple",
                "--emitter", "bulk_reference", "--bias", "10",
                "--points", "17")
        columns, meta = read_scan(tmp_path / "ple_bulk_reference_10V.csv")
        assert columns.shape == (3, 17)  # detuning, counts, expected counts
        assert meta["counts_kind"] == "float"
        np.testing.assert_allclose(columns[1], columns[2], rtol=1e-11)

    def test_jobs_start_no_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("ple started a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        args = ("ple", "--emitter", "axial_hinge", "--bias", "0,10,20,30,40",
                "--points", "21")
        assert run_cli("--out", tmp_path / "serial", "--jobs", "1", *args) == 0
        assert run_cli("--out", tmp_path / "par", "--jobs", "4", *args) == 0
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len(names) == 10
        assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
        for name in names:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "par" / name).read_bytes())

    def test_refused_scan_leaves_no_earlier_scan(self, tmp_path, capsys):
        # the 75 V scan is all background and draws; on resonance at 0 V
        # the expected counts pass the Poisson sampler's limit
        out = tmp_path / "out"
        assert run_cli("--out", out, "ple", "--emitter", "axial_hinge",
                       "--bias", "75,0", "--center", "0", "--span", "0.1",
                       "--points", "11", "--dwell", "1e16") == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Poisson" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("bias", ["-5", "500", "1000"])
    @pytest.mark.parametrize("verb", [
        ("ple", "--emitter", "axial_hinge", "--points", "9"),
        ("calibrate-pulse", "--pulses", "10", "--cooldowns", "100")],
        ids=lambda verb: verb[0])
    def test_out_of_range_bias_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                          verb, bias):
        # a finite bias outside [0, v_max] is a range error in both verbs
        out = tmp_path / "out"
        assert run_cli("--out", out, *verb, "--bias", bias) == 3
        assert f"error: bias {float(bias)} V outside" in capsys.readouterr().err
        assert not out.exists()


class TestInhomo:
    def test_matched_dataset_fraction(self, tmp_path):
        assert run_cli("--out", tmp_path, "inhomo", "--matched") == 0
        summary = json.loads((tmp_path / "inhomo_summary.json").read_text())
        assert summary["best_window_fraction"] == pytest.approx(0.40, abs=1e-12)

    def test_single_resonance_input(self, tmp_path):
        src = tmp_path / "one.csv"
        src.write_text("frequency_GHz\n484111.25\n")
        assert run_cli("--out", tmp_path, "inhomo", "--input", src) == 0
        rows = read_csv_rows(tmp_path / "inhomo_cdf.csv")
        assert len(rows) == 1
        assert float(rows[0]["cdf"]) == 1.0
        summary = json.loads((tmp_path / "inhomo_summary.json").read_text())
        assert summary["best_window_fraction"] == 1.0

    def test_uniform_input_fraction_near_width_over_span(self, tmp_path):
        rng = np.random.default_rng(207)
        src = tmp_path / "uniform.csv"
        lines = ["frequency_GHz"] + [f"{v:.9f}" for v in rng.uniform(0, 100, 1000)]
        src.write_text("\n".join(lines) + "\n")
        run_cli("--out", tmp_path, "inhomo", "--input", src, "--window", "40")
        summary = json.loads((tmp_path / "inhomo_summary.json").read_text())
        sigma = np.sqrt(0.4 * 0.6 / 1000)
        assert abs(summary["best_window_fraction"] - 0.4) <= 3 * sigma

    def test_generated_sample_count(self, tmp_path):
        assert run_cli("--out", tmp_path, "inhomo", "--n", "64") == 0
        rows = read_csv_rows(tmp_path / "inhomo_cdf.csv")
        assert len(rows) == 64

    def test_empty_input_is_error(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("frequency_GHz\n")
        assert run_cli("--out", tmp_path, "inhomo", "--input", src) == 2


class TestStabilize:
    def test_short_run_files_and_summary(self, tmp_path):
        assert run_cli("--out", tmp_path, "--seed", "77", "stabilize",
                       "--duration", "300", "--scans", "2") == 0
        summary = json.loads(
            (tmp_path / "stabilize_summary_77.json").read_text())
        assert summary["feedback"] is True
        assert summary["n_scans"] == 2
        updates = read_csv_rows(tmp_path / "stabilize_updates_77.csv")
        assert len(updates) == 1500  # 300 s at 5 Hz
        scans = read_csv_rows(tmp_path / "stabilize_scans_77.csv")
        assert len(scans) == 2

    def test_no_feedback_flag(self, tmp_path):
        assert run_cli("--out", tmp_path, "--seed", "78", "stabilize",
                       "--duration", "300", "--scans", "2",
                       "--no-feedback") == 0
        summary = json.loads(
            (tmp_path / "stabilize_summary_78.json").read_text())
        assert summary["feedback"] is False
        updates = read_csv_rows(tmp_path / "stabilize_updates_78.csv")
        assert all(r["error_GHz"] == "" for r in updates)
        assert all(r["dc_voltage_V"] == "40" for r in updates)

    def test_zero_duration_exits_2(self, tmp_path):
        assert run_cli("--out", tmp_path, "stabilize", "--duration", "0") == 2

    def test_failed_scan_fit_writes_unconverged_rows(self, tmp_path):
        # faint emitter, 1-photon CR threshold: the 5 ms scans hold no line
        doc = json.loads(default_config_text())
        emitter = next(e for e in doc["emitters"] if e["id"] == "axial_hinge")
        emitter["peak_rate"]["value"] = 100.0
        emitter["background_rate"]["value"] = 5.0
        doc["control"]["cr_check"]["photon_threshold"] = 1
        path = tmp_path / "dim.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("--out", out, "--config", path, "--seed", "7",
                       "stabilize", "--duration", "60", "--scans", "2") == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "stabilize_scans_7.csv", "stabilize_summary_7.json",
            "stabilize_updates_7.csv"]
        scans = read_csv_rows(out / "stabilize_scans_7.csv")
        assert len(scans) == 2
        for row in scans:
            assert row["converged"] == "0"
            assert row["fitted_center_GHz"] == row["fitted_fwhm_MHz"] == ""
            assert float(row["true_center_GHz"]) < 0.0
        summary = json.loads((out / "stabilize_summary_7.json").read_text(),
                             parse_constant=reject_constant)
        assert (summary["n_scans"], summary["n_converged"]) == (2, 0)
        # no converged scan: the spread, the means and the summed width are JSON null
        for key in ("center_std_ghz", "center_mean_ghz", "fwhm_mean_mhz",
                    "fwhm_summed_mhz"):
            assert key in summary and summary[key] is None, key

    def test_more_scans_than_frames_exit_2_and_write_nothing(self, tmp_path,
                                                               capsys):
        # 2 s at 5 Hz is 10 frames, and a frame takes at most one scan
        out = tmp_path / "out"
        assert run_cli("--out", out, "stabilize", "--duration", "2",
                       "--scans", "100") == 2
        err = capsys.readouterr().err
        assert "error: " in err and "100 scans" in err and "Traceback" not in err
        assert not out.exists()
        assert run_cli("--out", out, "stabilize", "--duration", "2",
                       "--scans", "10") == 0

    @pytest.mark.parametrize("key, value", [("peak_rate", 1e308),
                                            ("background_rate", 1e300)])
    def test_probe_rates_beyond_poisson_limit_exit_2(self, tmp_path, capsys,
                                                     key, value):
        doc = json.loads(default_config_text())
        emitter = next(e for e in doc["emitters"] if e["id"] == "axial_hinge")
        emitter[key]["value"] = value
        path = tmp_path / "bright.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("--out", out, "--config", path, "stabilize",
                       "--duration", "10", "--scans", "1") == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Poisson" in err and "Traceback" not in err
        assert not out.exists()

    def test_lockin_group_beyond_poisson_limit_exit_2(self, tmp_path, capsys):
        # One lock-in bin (3.125 ms) and the 1 ms CR probe stay under the
        # sampler's limit of about 9.2e18 counts, but a phase group draws
        # four bins (12.5 ms) at once: 1.25e19 counts.
        doc = json.loads(default_config_text())
        emitter = next(e for e in doc["emitters"] if e["id"] == "axial_hinge")
        emitter["peak_rate"]["value"] = 1e21
        doc["control"]["cr_check"]["probe_duration"]["value"] = 0.001
        path = tmp_path / "bright.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("--out", out, "--config", path, "stabilize",
                       "--duration", "10", "--scans", "1") == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Poisson" in err and "Traceback" not in err
        assert not out.exists()

    def test_multi_seed_jobs(self, tmp_path):
        assert run_cli("--out", tmp_path, "--jobs", "2", "stabilize",
                       "--duration", "240", "--scans", "1",
                       "--seeds", "5,6") == 0
        assert (tmp_path / "stabilize_summary_5.json").exists()
        assert (tmp_path / "stabilize_summary_6.json").exists()

    def test_jobs_pool_capped_at_task_count(self, tmp_path, monkeypatch):
        workers = []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        args = ("stabilize", "--seeds", "1,2,3", "--duration", "30", "--scans", "1")
        assert run_cli("--out", tmp_path / "serial", *args) == 0
        assert run_cli("--out", tmp_path / "par", "--jobs", "64", *args) == 0
        assert len(workers) == 1 and workers[0] <= 3
        names = sorted(p.name for p in (tmp_path / "serial").iterdir())
        assert len(names) == 9
        assert names == sorted(p.name for p in (tmp_path / "par").iterdir())
        for name in names:
            assert ((tmp_path / "serial" / name).read_bytes()
                    == (tmp_path / "par" / name).read_bytes())


class TestCalibratePulse:
    def test_safe_point_row_zero_and_marked(self, tmp_path):
        assert run_cli("--out", tmp_path, "calibrate-pulse",
                       "--pulses", "25,50,100",
                       "--cooldowns", "0,1500,3000") == 0
        rows = read_csv_rows(tmp_path / "pulse_calibration.csv")
        target = [r for r in rows if r["pulse_us"] == "50"
                  and r["cooldown_us"] == "1500"][0]
        assert target["offset_GHz"] == "0"
        assert target["safe"] == "1"

    def test_monotone_in_cooldown_along_rows(self, tmp_path):
        run_cli("--out", tmp_path, "calibrate-pulse", "--pulses", "120",
                "--cooldowns", "0,300,900,2700")
        rows = read_csv_rows(tmp_path / "pulse_calibration.csv")
        offsets = [float(r["offset_GHz"]) for r in rows]
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))
        assert offsets[0] < 0.0

    def test_boundary_matches_relaxation_oracle(self, tmp_path, config):
        run_cli("--out", tmp_path, "calibrate-pulse", "--pulses", "100",
                "--cooldowns", "0,500")
        rows = read_csv_rows(tmp_path / "pulse_calibration.csv")
        th = config.device.thermal
        safe = pulsed_heat_peak(th.max_pulse_us, th.cooldown_time_us, th.relax_time_us)
        for row in rows:
            heat = pulsed_heat_peak(100.0, float(row["cooldown_us"]), th.relax_time_us)
            expected = -th.heat_shift_coeff * (heat - safe)
            assert float(row["offset_GHz"]) == pytest.approx(expected, rel=1e-9)

    def test_no_cooldown_is_dc_for_every_pulse(self, tmp_path, config):
        # with no cooldown the heat never relaxes: any pulse, from 1e-300 us
        # to 100 ms, heats as a DC bias does, and none is safe
        assert run_cli("--out", tmp_path, "calibrate-pulse", "--pulses",
                       "1e-300,200,1000,3000,10000,100000", "--cooldowns", "0") == 0
        rows = read_csv_rows(tmp_path / "pulse_calibration.csv")
        th = config.device.thermal
        safe = pulsed_heat_peak(th.max_pulse_us, th.cooldown_time_us, th.relax_time_us)
        dc = -th.heat_shift_coeff * (th.relax_time_us - safe)
        assert len(rows) == 6
        for row in rows:
            assert row["safe"] == "0"
            assert float(row["offset_GHz"]) == pytest.approx(dc, rel=1e-9)


    @pytest.mark.parametrize("bias", ["1e200", "1e155"])
    def test_offset_past_float_range_exits_3(self, tmp_path, capsys, bias):
        # the squared bias overflows (1e200 V) or the heat times the shift
        # coefficient does (1e155 V): a range error, not a traceback or a
        # -inf row
        doc = json.loads(default_config_text())
        doc["device"]["calibration"]["v_max"]["value"] = 1e300
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("--out", out, "--config", path, "calibrate-pulse",
                       "--bias", bias, "--pulses", "100") == 3
        assert "float range" in capsys.readouterr().err
        assert not out.exists()

class TestMalformedArguments:
    CASES = [
        ("ple", "--emitter", "axial_hinge", "--bias", "x"),
        ("calibrate-pulse", "--pulses", "x"),
        ("calibrate-pulse", "--pulses", ","),
        ("stabilize", "--seeds", "x"),
        ("stabilize", "--seeds", "1,-2"),
        ("--seed", "-5", "stabilize"),
        ("tune-curve", "--steps", "-1"),
        ("tune-curve", "--v-max", "inf"),
        ("inhomo", "--input", "{bad_csv}"),
        ("inhomo", "--input", "{nan_csv}"),
        ("inhomo", "--input", "{missing}"),
        ("inhomo", "--window", "inf"),
        ("--config", "{missing}", "tune-curve"),
        ("--config", "{bad_gain}", "tune-curve"),
        ("stabilize", "--duration", "inf"),
        ("ple", "--emitter", "axial_hinge", "--span", "nan"),
        ("ple", "--emitter", "axial_hinge", "--center", "nan"),
        ("ple", "--emitter", "axial_hinge", "--dwell", "inf"),
        ("ple", "--emitter", "axial_hinge", "--dwell", "1e300"),
        ("ple", "--emitter", "axial_hinge", "--expected-value", "--dwell", "1e308"),
        ("ple", "--emitter", "axial_hinge", "--points", "0"),
        ("ple", "--emitter", "axial_hinge", "--points", "-1"),
        ("calibrate-pulse", "--bias", "nan"),
        ("calibrate-pulse", "--bias", "inf"),
        ("calibrate-pulse", "--pulses", "inf"),
        ("calibrate-pulse", "--cooldowns", "inf"),
        # only ple has an expected-value mode
        ("--expected-value", "stabilize", "--duration", "2", "--scans", "1"),
        # a non-finite bias is an input error, not an out-of-range one (exit 3)
        ("ple", "--emitter", "axial_hinge", "--bias", "nan"),
        ("ple", "--emitter", "axial_hinge", "--bias", "inf"),
        # a second run of one seed would write the same files
        ("stabilize", "--seeds", "7,7"),
        # ple names files and seeds scans by the voltage to 6 digits
        ("ple", "--emitter", "axial_hinge", "--bias", "10,10"),
        ("ple", "--emitter", "axial_hinge", "--bias", "10,10.0000001"),
        ("tune-curve", "--emitters", "axial_hinge,axial_hinge"),
        ("--jobs", "0", "tune-curve"),
        ("tune-curve", "--jobs", "-4"),
        # sizes numpy refuses to allocate at once
        ("stabilize", "--duration", "1e15"),
        ("stabilize", "--scans", "1000000000000000"),
        ("tune-curve", "--steps", "1000000000000000"),
        ("ple", "--emitter", "axial_hinge", "--points", "1000000000000000"),
        ("inhomo", "--n", "1000000000000000"),
    ]

    @pytest.mark.parametrize("args", CASES, ids=" ".join)
    def test_exits_2_with_error_line_and_no_file(self, tmp_path, capsys, args):
        names = {"bad_csv": tmp_path / "bad.csv", "nan_csv": tmp_path / "nan.csv",
                 "missing": tmp_path / "missing.csv", "bad_gain": tmp_path / "gain.json"}
        names["bad_csv"].write_text("# comment\nfrequency_GHz\n484111.25\nabc\n")
        names["nan_csv"].write_text("484111.25\nnan\n")
        # a proportional gain tagged with the integral gain's dimension
        names["bad_gain"].write_text(json.dumps(mutate(
            json.loads(default_config_text()), ["control", "pid", "kp", "unit"],
            "V/(GHz*s)")))
        out = tmp_path / "out"
        try:
            code = run_cli("--out", out, *(a.format(**names) for a in args))
        except SystemExit as exc:  # rejected by argparse itself
            code = exc.code
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        if "{bad_csv}" in args:
            assert "bad.csv, row 3" in err and "'abc'" in err
        if "{bad_gain}" in args:
            assert "control.pid.kp" in err and "V/(GHz*s)" in err
        assert not out.exists()


class TestConfigValidation:
    def test_missing_unit_tag_names_key(self, tmp_path, capsys):
        doc = json.loads(default_config_text())
        doc["physics"]["nu0"] = 484130.0  # untagged
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("--config", bad, "--out", tmp_path, "tune-curve") == 2
        assert "physics.nu0" in capsys.readouterr().err

    def test_unknown_unit_names_key_and_options(self, tmp_path, capsys):
        doc = json.loads(default_config_text())
        doc["device"]["geometry"]["w_waveguide"] = {"value": 250, "unit": "furlong"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("--config", bad, "--out", tmp_path, "tune-curve") == 2
        err = capsys.readouterr().err
        assert "w_waveguide" in err and "furlong" in err

    def test_constraint_violation_reported(self, tmp_path, capsys):
        doc = json.loads(default_config_text())
        doc["emitters"][0]["fwhm0"] = {"value": -5, "unit": "MHz"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("--config", bad, "--out", tmp_path, "tune-curve") == 2
        assert "emitters[0]" in capsys.readouterr().err

    def test_emitter_outside_beam_rejected_at_load(self, tmp_path, capsys):
        doc = json.loads(default_config_text())
        doc["emitters"][0]["position"]["x"] = {"value": 25.0, "unit": "um"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run_cli("--config", bad, "--out", tmp_path, "tune-curve") == 2
        assert "axial_hinge" in capsys.readouterr().err

    def test_no_partial_output_on_validation_failure(self, tmp_path):
        doc = json.loads(default_config_text())
        del doc["control"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("--config", bad, "--out", out, "tune-curve") == 2
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a,b", "a/b", "a\\b", "a\tb", "a\r\nb", "\x00"],
                             ids=["comma", "slash", "backslash", "tab", "crlf", "nul"])
    def test_unusable_emitter_id_exits_2(self, tmp_path, capsys, name):
        # a comma splits an --emitters list, a slash or backslash would put a
        # ple file in a subdirectory
        doc = json.loads(default_config_text())
        doc["emitters"][1]["id"] = name
        bad = tmp_path / "ids.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("--config", bad, "--out", out, "ple", "--emitter", name) == 2
        err = capsys.readouterr().err
        assert "error: emitters[1].id: " in err and "Traceback" not in err
        assert not out.exists()

    def test_every_field_of_a_built_section_is_reachable(self, monkeypatch):
        """Each field of a dataclass ``config._build`` makes is set by a
        field-table row or an argument of that call: a field neither sets is
        a knob no configuration can turn."""
        set_by = {}
        build = config_module._build

        def recording(cls, node, path, rows, **extra):
            set_by.setdefault(cls, set()).update([row[0] for row in rows], extra)
            return build(cls, node, path, rows, **extra)

        monkeypatch.setattr(config_module, "_build", recording)
        parse_config(default_config_text())
        # run state that DriftProcess.step advances, and the --no-feedback flag
        allowed = {(st.DriftProcess, "state_ghz"), (st.StabilizationConfig, "feedback")}
        assert {st.DriftProcess, st.StabilizationConfig, st.EmitterModel} <= set(set_by)
        unreachable = [f"{cls.__name__}.{f.name}" for cls, names in set_by.items()
                       for f in dataclasses.fields(cls)
                       if f.name not in names and (cls, f.name) not in allowed]
        assert unreachable == []

    def test_every_shipped_key_is_read(self, monkeypatch):
        """Each key of the shipped config is a field-table key, a section or a
        comment (``notes``, ``provenance``): none is carried and ignored."""
        read = {}  # object path -> keys the loader looks up there
        fields, section = config_module._fields, config_module._section

        def recording_fields(node, path, rows):
            read.setdefault(path, set()).update(row[1] for row in rows)
            return fields(node, path, rows)

        def recording_section(doc, key, path=""):
            read.setdefault(path, set()).add(key)
            return section(doc, key, path)

        monkeypatch.setattr(config_module, "_fields", recording_fields)
        monkeypatch.setattr(config_module, "_section", recording_section)
        doc = json.loads(default_config_text())
        parse_config(default_config_text())
        # looked up with dict.get: the seed, the emitter list, each emitter's id and position
        read[""].update({"seed", "emitters"})
        for i in range(len(doc["emitters"])):
            read[f"emitters[{i}]"].update({"id", "position"})

        def walk(node, path):
            for key, child in node.items():
                assert key in read[path] or key in ("notes", "provenance"), (path, key)
                child_path = f"{path}.{key}" if path else key
                if isinstance(child, list):
                    for i, item in enumerate(child):
                        if f"{child_path}[{i}]" in read:
                            walk(item, f"{child_path}[{i}]")
                elif isinstance(child, dict) and child_path in read:
                    walk(child, child_path)

        walk(doc, "")
        assert {"device.geometry", "emitters[3]", "control.stabilization"} <= set(read)

    # device.geometry keys that older configuration files carry and the
    # model does not read
    RETIRED_GEOMETRY = {"w_spring": (200.0, "nm"), "w_support": (250.0, "nm"),
                        "w_tp": (50.0, "nm"), "d_support": (2.0, "um"),
                        "l_tp": (15.0, "um"), "gap_height": (2.5, "um")}

    def test_retired_geometry_keys_still_load(self):
        doc = json.loads(default_config_text())
        for key, (value, unit) in self.RETIRED_GEOMETRY.items():
            doc["device"]["geometry"][key] = {"value": value, "unit": unit}
        old = parse_config(json.dumps(doc, indent=2))
        new = parse_config(default_config_text())
        assert old.device == new.device
        assert dataclasses.replace(old, source_text="") == dataclasses.replace(
            new, source_text="")

    @pytest.mark.parametrize("section, key, typo", [
        ("cr_check", "max_attempts", "max_attemps"),
        ("pid", "integral_limit", "integral_limt")])
    def test_misspelled_optional_key_exits_2(self, tmp_path, capsys, section, key, typo):
        doc = json.loads(default_config_text())
        node = doc["control"][section]
        node[typo] = node.pop(key)
        bad = tmp_path / "typo.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert run_cli("--config", bad, "--out", out, "tune-curve") == 2
        err = capsys.readouterr().err
        assert f"control.{section}.{typo}: unknown key" in err and "Traceback" not in err
        assert not out.exists()

    UNREAD = [(("emitters", 2), "provenance", True),
              (("control", "pid", "kp"), "provenance", True),
              ((), "notes", True),
              (("control", "pid"), "notes", False),
              (("emitters", 2, "position", "z"), "uncertainty", False),
              (("device", "calibration", "tensor_ratios"), "xx", False),
              ((), "inhomogenous", False),
              (("physics",), "w_spring", False)]

    @pytest.mark.parametrize("path, key, loads", UNREAD,
                             ids=["/".join(map(str, (*p, k))) for p, k, _ in UNREAD])
    def test_only_comment_and_retired_keys_load_unread(self, path, key, loads):
        doc = json.loads(default_config_text())
        node = doc
        for part in path:
            node = node[part]
        node[key] = {"value": 1.0, "unit": "V"}
        text = json.dumps(doc)
        if loads:
            assert dataclasses.replace(parse_config(text), source_text="") == \
                dataclasses.replace(parse_config(default_config_text()), source_text="")
        else:
            where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                            for p in (*path, key)).lstrip(".")
            with pytest.raises(st.ConfigError, match=re.escape(f"{where}: unknown key")):
                parse_config(text)

    def test_round_trip_of_default_config(self):
        cfg = parse_config(default_config_text())
        assert set(cfg.emitters) == {"axial_hinge", "axial_mid",
                                     "transversal_hinge", "bulk_reference"}
        assert cfg.control.pid.update_rate_hz == 5.0

    # (key path, new value or DROP, attribute path in RunConfig, expected):
    # one field per unit table, then every optional key left out
    CONVERSIONS = [
        ("physics.lambda_g", {"value": 0.85, "unit": "THz"},
         "physics.spin_orbit.lambda_g", 850.0),
        ("device.thermal.max_pulse", {"value": 0.05, "unit": "ms"},
         "device.thermal.max_pulse_us", 50.0),
        ("device.calibration.eps_ref", {"value": 7e-5, "unit": "1"},
         "device.calibration.eps_ref", 7e-5),
        ("emitters.0.peak_rate", {"value": 20.0, "unit": "kcounts/s"},
         "emitters.axial_hinge.peak_rate", 20000.0),
        ("device.geometry.w_waveguide", {"value": 0.25, "unit": "um"},
         "device.geometry.w_waveguide", 250e-9),
        ("physics.ground.t_perp", {"value": 520.0, "unit": "THz/strain"},
         "physics.susc_g.t_perp", 520000.0),
        ("control.pid.output_max", {"value": 79000.0, "unit": "mV"},
         "control.pid.output_max", 79.0),
        ("control.pid.kp", {"value": 0.5, "unit": "V/GHz"}, "control.pid.kp", 0.5),
        ("control.pid.ki", {"value": 0.5, "unit": "V/GHz/s"}, "control.pid.ki", 0.5),
        ("control.pid.kd", {"value": 0.5, "unit": "V*s/GHz"}, "control.pid.kd", 0.5),
        ("control.stabilization.duration", {"value": 420.0, "unit": "min"},
         "control.stabilization.duration_s", 25200.0),
        ("control.stabilization.n_scans", 40.0, "control.stabilization.n_scans", 40),
        ("control.stabilization.scan_shape", "lorentzian",
         "control.stabilization.scan_shape", "lorentzian"),
        ("control.pid.integral_limit", DROP, "control.pid.integral_limit", 20.0),
        ("control.cr_check.max_attempts", DROP, "control.cr_check.max_attempts", 1),
        ("device.calibration.tensor_ratios.yz", DROP, "device.calibration.ratio_yz", 0.0),
        ("device.calibration.tensor_ratios.zx", DROP, "device.calibration.ratio_zx", 0.0),
        ("device.calibration.tensor_ratios.xy", DROP, "device.calibration.ratio_xy", 0.0),
        ("control.stabilization.scan_shape", DROP,
         "control.stabilization.scan_shape", "voigt"),
        ("inhomogeneous", DROP, "inhomogeneous.cluster_weight", 0.45),
    ]

    @pytest.mark.parametrize("key, value, attr, expected", CONVERSIONS,
                             ids=[c[0] + ("-default" if c[1] is DROP else "")
                                  for c in CONVERSIONS])
    def test_pho_unit_conversion(self, key, value, attr, expected):
        doc = mutate(json.loads(default_config_text()), key.split("."), value)
        got = parse_config(json.dumps(doc))
        for name in attr.split("."):
            got = got[name] if isinstance(got, dict) else getattr(got, name)
        assert got == pytest.approx(expected, rel=1e-12)
        assert type(got) is type(expected)

    DOC = json.loads(default_config_text())
    MUTANTS = [DROP, "text", True, None, float("nan"), float("inf"), 2.5,
               [1.0, 2.0], {"value": 1.0, "unit": "furlong"}]

    @given(path=hyp.sampled_from(list(key_paths(DOC))),
           mutant=hyp.sampled_from(MUTANTS))
    @example(path=("control", "lockin", "bins_per_period"), mutant=float("nan"))
    @example(path=("control", "stabilization", "n_scans"), mutant=2.7)
    @settings(max_examples=400, deadline=None)
    def test_mutated_config_raises_only_config_error(self, path, mutant):
        doc = mutate(copy.deepcopy(self.DOC), path, mutant)
        try:
            parse_config(json.dumps(doc))
        except st.ConfigError:
            pass


class TestReproducibility:
    COMMANDS = [
        ("tune-curve", "--steps", "5"),
        ("ple", "--emitter", "axial_hinge", "--bias", "40", "--points", "21"),
        ("inhomo", "--n", "50"),
        ("stabilize", "--duration", "120", "--scans", "1"),
        ("calibrate-pulse", "--pulses", "50,100", "--cooldowns", "0,1500"),
    ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_byte_identical_outputs(self, tmp_path, command):
        for sub in ("first", "second"):
            assert run_cli("--out", tmp_path / sub, "--seed", "4242",
                           *command) == 0
        first = sorted((tmp_path / "first").iterdir())
        second = sorted((tmp_path / "second").iterdir())
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), a.name
