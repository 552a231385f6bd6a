"""The benchmark's workloads: fixed batches of calls into snvtune.

A workload is a list of operations, built from the benchmark seed before
anything is timed.  One pass over the list is a round; a run repeats
identical rounds, so every round must reproduce the first one exactly.
Each operation has a ``run`` part, which is timed (and traced), and an
``inspect`` part, which runs after the round, outside timing and tracing,
and checks the outputs.

Calls go through module attributes (``snvtune.control.run_stabilization``,
``snvtune.cli.main``, ...) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np

import snvtune.cli
import snvtune.config
import snvtune.control
import snvtune.spectroscopy
from snvtune.emitters import TuningCurve

# Criterion 08: worst fitted-center std at most the free-running spread / 12,
# and at most 5 of 50 scans not converged (scaled for shortened runs).
CENTER_STD_CAP_GHZ = 1.38 / 12.0
MAX_UNCONVERGED_SHARE = 5.0 / 50.0
# A converged stabilization scan whose fitted center is further than this
# share of its fitted FWHM from the simulator's true line position is a
# wrong fit (about 0.08 is the largest seen on correct runs).
MAX_SCAN_CENTER_FWHM = 0.5
# A fitted center further than this many standard errors from the true
# line position counts as a failed fit.
MAX_CENTER_Z = 5.0
# tune-curve shifts must agree with TuningCurve.shift to this relative error.
TUNE_CURVE_RTOL = 1e-9
# Output directory of the CLI verbs, inside the checkout; removed after a run.
CLI_WORKDIR = Path(".bench_out/cli_pipeline")


@dataclass
class Op:
    """One timed call and the check of its output.

    ``inspect(raw)`` returns a dict with ``attempted``, ``failed``, a
    ``digest`` of the output (compared across rounds) and any values the
    workload's report needs.
    """

    label: str
    run: Callable[[], Any]
    inspect: Callable[[Any], dict]


@dataclass
class Plan:
    """A workload's operations and how to turn a run into its report.

    ``report(first, op_times)`` gets the inspected results of the first
    round and the per-round operation times (seconds, one list per
    round) and returns ``{name: (value, unit)}``.
    """

    ops: list[Op]
    report: Callable[[list[dict], list[list[float]]], dict]


def sub_seed(seed: int, *keys: int) -> int:
    """Independent 32-bit seed for one input, derived from the run seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail_percentile(samples) -> tuple[float, float]:
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(samples, p))
    return 100.0, float(np.max(samples))


# ---------------------------------------------------------------------------
# stabilize_feedback


@dataclass(frozen=True)
class StabilizeSize:
    # One simulated hour per seed with the configured scan rate (50 per
    # 7 h), so that a run repeats several rounds and stays well inside its
    # time budget when the machine is slow.
    n_seeds: int = 2
    duration_s: float = 3600.0
    n_scans: int = 7


def stabilize_feedback(seed: int, size: StabilizeSize = StabilizeSize()) -> Plan:
    cfg = snvtune.config.load_default_config()
    emitter = cfg.emitter("axial_hinge")
    c = cfg.control
    stab = replace(c.stabilization, duration_s=size.duration_s,
                   n_scans=size.n_scans)
    min_converged = stab.n_scans - math.ceil(MAX_UNCONVERGED_SHARE * stab.n_scans)

    def run(run_seed):
        return lambda: snvtune.control.run_stabilization(
            emitter, cfg.device, c.drift, c.lockin, c.pid, c.cr_check, stab,
            run_seed)

    n_frames = round(stab.duration_s * c.pid.update_rate_hz)
    epochs = stab.duration_s * np.arange(1, stab.n_scans + 1) / stab.n_scans
    half_frame = 0.5 / c.pid.update_rate_hz

    def log_ok(log) -> bool:
        """The run's records are consistent with each other and the simulator."""
        conv = log.scan_converged
        n = conv.size
        miss = np.abs(log.scan_center_ghz - log.scan_true_center_ghz)[conv]
        return bool(
            log.dc_voltage_v.shape == log.error_ghz.shape == (n_frames,)
            and np.all((c.pid.output_min <= log.dc_voltage_v)
                       & (log.dc_voltage_v <= c.pid.output_max))
            and np.array_equal(np.isnan(log.error_ghz), ~log.lockin_valid)
            and n <= stab.n_scans
            and log.scan_center_ghz.size == log.scan_true_center_ghz.size == n
            and np.all(log.scan_time_s >= epochs[:n] - half_frame)
            and np.all(miss <= MAX_SCAN_CENTER_FWHM * 1e-3 * log.scan_fwhm_mhz[conv]))

    def inspect(log):
        centers = log.scan_center_ghz[log.scan_converged]
        std = float(np.std(centers, ddof=1)) if centers.size > 1 else math.inf
        spec_ok = std <= CENTER_STD_CAP_GHZ and centers.size >= min_converged
        # Missing the criterion-08 spec is not a wrong output: on some drift
        # realizations the loop loses lock and the remaining scans wait for
        # a CR pass that never comes.  It is counted apart from failures.
        return {"attempted": 1, "failed": 0 if log_ok(log) else 1,
                "spec_missed": 0 if spec_ok else 1, "center_std_ghz": std,
                "n_converged": int(centers.size),
                "digest": digest(log.dc_voltage_v, log.error_ghz,
                                 log.cr_pass, log.scan_center_ghz,
                                 log.scan_fwhm_mhz)}

    ops = [Op(f"seed {s}", run(s), inspect)
           for s in (sub_seed(seed, 8, k) for k in range(size.n_seeds))]
    sim_hours = size.n_seeds * stab.duration_s / 3600.0

    def report(first, op_times):
        wall = median([sum(t) for t in op_times])
        return {
            "sim_h_per_s": (sim_hours / wall, "h/s"),
            "center_std_mhz": (1000.0 * max(r["center_std_ghz"] for r in first),
                               "MHz"),
            "min_converged_scans": (min(r["n_converged"] for r in first), "count"),
        }

    return Plan(ops, report)


# ---------------------------------------------------------------------------
# scan_fit


@dataclass(frozen=True)
class ScanFitSize:
    n_voltages: int = 36
    points: int = 161
    span_ghz: float = 4.0
    dwell_s: float = 0.005


def scan_fit(seed: int, size: ScanFitSize = ScanFitSize()) -> Plan:
    cfg = snvtune.config.load_default_config()
    rng = np.random.default_rng(sub_seed(seed, 5))
    ops = []

    def run(emitter, v, detunings, scan_seed):
        def call():
            scan = snvtune.spectroscopy.simulate_ple(
                emitter, cfg.device, v, detunings, size.dwell_s, seed=scan_seed)
            return scan, [snvtune.spectroscopy.fit_line(scan, shape)
                          for shape in ("lorentzian", "voigt")]
        return call

    def inspect_for(truth):
        def inspect(raw):
            scan, fits = raw
            failed = sum(1 for f in fits if not (
                f.converged and abs(f.center - truth) <= MAX_CENTER_Z * f.center_stderr))
            return {"attempted": len(fits), "failed": failed,
                    "errors_ghz": [f.center - truth for f in fits],
                    "digest": digest(scan.counts, [[f.center, f.fwhm, f.center_stderr]
                                                   for f in fits])}
        return inspect

    for e_idx, name in enumerate(cfg.emitters):
        emitter = cfg.emitter(name)
        curve = TuningCurve(emitter, cfg.device)
        for v_idx, v in enumerate(np.linspace(0.0, 75.0, size.n_voltages)):
            truth = float(curve.shift(v))
            # scan window off-center by up to a quarter span, so the fit
            # does not start on the true center
            center = truth + rng.uniform(-0.25, 0.25) * size.span_ghz
            detunings = center + np.linspace(-0.5 * size.span_ghz,
                                             0.5 * size.span_ghz, size.points)
            ops.append(Op(f"{name}@{v:g}V",
                          run(emitter, float(v), detunings,
                              sub_seed(seed, 5, e_idx, v_idx)),
                          inspect_for(truth)))

    def report(first, op_times):
        per_op = [1000.0 * t for times in op_times for t in times]
        errors = np.array([e for r in first for e in r["errors_ghz"]])
        wall = median([sum(t) for t in op_times])
        p, tail = tail_percentile(per_op)
        return {
            "scans_per_s": (len(first) / wall, "1/s"),
            "scan_ms_p50": (median(per_op), "ms"),
            "scan_ms_tail": (tail, "ms"),
            "scan_ms_tail_percentile": (p, "%"),
            "scan_samples": (len(per_op), "count"),
            "fit_center_rms_mhz": (1000.0 * float(np.sqrt(np.mean(errors ** 2))),
                                   "MHz"),
        }

    return Plan(ops, report)


# ---------------------------------------------------------------------------
# cli_pipeline


@dataclass(frozen=True)
class CliSize:
    tune_steps: int = 1000
    ple_biases: int = 32
    ple_points: int = 2001
    inhomo_n: int = 200000
    pulse_grid: int = 150
    stabilize_s: float = 1800.0
    stabilize_scans: int = 4


def _grid(lo: float, hi: float, n: int) -> str:
    return ",".join(f"{x:g}" for x in np.linspace(lo, hi, n))


def _read_rows(path: Path) -> list[list[str]]:
    with path.open(encoding="utf-8") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def cli_pipeline(seed: int, size: CliSize = CliSize(),
                 workdir: Path = CLI_WORKDIR) -> Plan:
    cfg = snvtune.config.load_default_config()
    master = sub_seed(seed, 3)
    biases = _grid(0.0, 75.0, size.ple_biases)
    verbs = [
        ("tune-curve", ["tune-curve", "--steps", str(size.tune_steps)]),
        ("ple", ["ple", "--emitter", "axial_hinge", "--bias", biases,
                 "--points", str(size.ple_points)]),
        ("ple-expected", ["--expected-value", "ple", "--emitter",
                          "transversal_hinge", "--bias", biases,
                          "--points", str(size.ple_points)]),
        ("inhomo-matched", ["inhomo", "--matched"]),
        ("inhomo-n", ["inhomo", "--n", str(size.inhomo_n)]),
        ("calibrate-pulse", ["calibrate-pulse",
                             "--pulses", _grid(5.0, 300.0, size.pulse_grid),
                             "--cooldowns", _grid(0.0, 3000.0, size.pulse_grid)]),
        ("stabilize", ["stabilize", "--emitter", "axial_hinge",
                       "--duration", f"{size.stabilize_s:g}",
                       "--scans", str(size.stabilize_scans)]),
    ]
    ple_files = [f"ple_{{}}_{float(v):g}V.csv" for v in biases.split(",")]
    expected_files = {
        "tune-curve": ["tune_curve.csv"],
        "ple": [f.format("axial_hinge") for f in ple_files],
        "ple-expected": [f.format("transversal_hinge") for f in ple_files],
        "inhomo-matched": ["inhomo_cdf.csv", "inhomo_summary.json"],
        "inhomo-n": ["inhomo_cdf.csv", "inhomo_summary.json"],
        "calibrate-pulse": ["pulse_calibration.csv"],
        "stabilize": [f"stabilize_{kind}_{master}.{ext}" for kind, ext in
                      (("updates", "csv"), ("scans", "csv"), ("summary", "json"))],
    }
    curves = {name: TuningCurve(cfg.emitter(name), cfg.device)
              for name in cfg.emitters}

    def tune_curve_ok(path: Path) -> bool:
        rows = _read_rows(path)[1:]
        if len(rows) != size.tune_steps * len(curves):
            return False
        for name, bias, shift, _ in rows:
            ref = curves[name].shift(float(bias))
            if abs(float(shift) - ref) > TUNE_CURVE_RTOL * max(abs(ref), 1.0):
                return False
        return True

    def run(label, argv):
        out = workdir / label

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return snvtune.cli.main(["--out", str(out), "--seed", str(master),
                                         "--jobs", "1", *argv])
        return call

    def inspect_for(label):
        out = workdir / label

        def inspect(code):
            paths = [out / name for name in expected_files[label]]
            ok = code == 0 and all(p.is_file() and p.stat().st_size > 0
                                   for p in paths)
            if ok and label == "tune-curve":
                ok = tune_curve_ok(paths[0])
            h = hashlib.sha256(str(code).encode())
            for p in paths:
                if p.is_file():
                    h.update(p.read_bytes())
            # so that a file the next round fails to write cannot pass
            shutil.rmtree(out, ignore_errors=True)
            return {"attempted": 1, "failed": 0 if ok else 1,
                    "digest": h.hexdigest()}
        return inspect

    ops = [Op(label, run(label, argv), inspect_for(label)) for label, argv in verbs]
    index = {label: i for i, (label, _) in enumerate(verbs)}

    def verb_s(op_times, *labels):
        return median([sum(t[index[k]] for k in labels) for t in op_times])

    def report(first, op_times):
        return {
            "cli_tune_curve_s": (verb_s(op_times, "tune-curve"), "s"),
            "cli_ple_s": (verb_s(op_times, "ple", "ple-expected"), "s"),
            "cli_inhomo_s": (verb_s(op_times, "inhomo-matched", "inhomo-n"), "s"),
            "cli_calibrate_pulse_s": (verb_s(op_times, "calibrate-pulse"), "s"),
            "cli_stabilize_s": (verb_s(op_times, "stabilize"), "s"),
        }

    return Plan(ops, report)


WORKLOADS = {
    "stabilize_feedback": stabilize_feedback,
    "scan_fit": scan_fit,
    "cli_pipeline": cli_pipeline,
}
