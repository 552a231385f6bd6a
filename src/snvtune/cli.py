"""Command-line front end: config-driven experiment pipelines.

Verbs: tune-curve, ple, inhomo, stabilize, calibrate-pulse.  Every command
reads one JSON configuration (shipped default unless --config is given),
derives per-task seeds from the master seed, and emits CSV/JSON files with
provenance headers.  Identical config and seed give byte-identical outputs.

Exit codes: 0 success, 2 configuration or input validation error (an input
too large to allocate included), 3 runtime range/domain error or broken
internal contract.  A refused run writes nothing: the output directory is
made by the first file write.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .config import (RunConfig, load_config, load_default_config,
                     matched_sample_path)
from .control import run_stabilization, summarize_log
from .emitters import TuningCurve, shift_from_voltage_chain
from .errors import (ConfigError, ContractError, DomainError, InputError,
                     RangeError)
from .spectroscopy import (ScanRecord, cdf_and_window, effective_linewidth,
                           sample_inhomogeneous, scan_to_csv, simulate_ple)
# the writers keep the cli's own names, which bench/tracing.py wraps
from .spectroscopy import write_csv as _write_csv, write_json as _write_json
from .actuator import pulsed_resonance_offset


def derive_seed(master: int, *keys) -> int:
    """Stable per-task sub-seed from the master seed and task labels."""
    parts = [master]
    for key in keys:
        parts.append(zlib.crc32(str(key).encode("utf-8")))
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _provenance(cfg: RunConfig, command: str, seed: int) -> list[str]:
    return [
        f"tool=snvtune {__version__}",
        f"command={command}",
        f"config_sha256={cfg.config_hash()}",
        f"seed={seed}",
    ]


def non_negative_int(text: str) -> int:
    """Argument converter for seeds: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise ValueError(f"negative seed {value}")
    return value


def positive_int(text: str) -> int:
    """Argument converter for --jobs: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} workers")
    return value


def _finite_bias(v: float) -> float:
    """A --bias value, refused as an input error unless finite."""
    if not math.isfinite(v):
        raise InputError(f"--bias: not a finite voltage: {v}")
    return v


def _refuse_repeats(keys: list, flag: str, text: str, what: str) -> None:
    """Refuse a list in which a key repeats: each key names one task's output."""
    if len(set(keys)) < len(keys):
        raise InputError(f"{flag}: {what} repeats in {text!r}")


def _number_list(text: str, kind, flag: str) -> list:
    """Comma-separated values of a command-line flag, each converted by ``kind``."""
    try:
        return [kind(item) for item in text.split(",")]
    except ValueError:
        raise InputError(f"{flag}: invalid comma-separated list {text!r}") from None


# ---------------------------------------------------------------------------
# tune-curve

def _tune_one(cfg: RunConfig, name: str, voltages: np.ndarray) -> np.ndarray:
    """Shift (GHz) and FWHM (MHz) rows of one emitter over the voltage grid.

    The shifts come from the emitter's closed-form ``TuningCurve``.  The full
    voltage chain runs at the two grid ends: strain grows with V^2, so its
    actuator-range, position and small-strain guards bind there, and the
    curve must agree with it there to 1e-9 relative (``ContractError``).
    """
    emitter = cfg.emitter(name)
    shifts = np.array(TuningCurve(emitter, cfg.device).shifts(0.0, voltages.tolist()))
    for v, shift in ((voltages[0], shifts[0]), (voltages[-1], shifts[-1])):
        chain = shift_from_voltage_chain(emitter, cfg.device, v)
        if not abs(shift - chain) <= 1e-9 * max(abs(chain), 1.0):
            raise ContractError(f"emitter {name!r} at {v:g} V: tuning curve gives "
                                f"{shift:.15g} GHz, the voltage chain {chain:.15g} GHz")
    return np.stack([shifts, effective_linewidth(emitter, shifts)])


def cmd_tune_curve(cfg: RunConfig, ns, seed: int) -> int:
    names = ns.emitters.split(",") if ns.emitters else list(cfg.emitters)
    _refuse_repeats(names, "--emitters", ns.emitters, "an emitter id")
    for name in names:
        cfg.emitter(name)  # validate before any output
    v_max = ns.v_max if ns.v_max is not None else cfg.device.calibration.v_max
    if not 0.0 <= ns.v_min <= v_max < math.inf:
        raise InputError(f"voltage grid [{ns.v_min}, {v_max}] is invalid")
    if ns.steps < 1:
        raise InputError("--steps must be >= 1")
    voltages = np.linspace(ns.v_min, v_max, ns.steps)
    shift, fwhm = np.hstack([_tune_one(cfg, n, voltages) for n in names])
    path = ns.out / "tune_curve.csv"
    _write_csv(path, _provenance(cfg, "tune-curve", seed),
               {"emitter": [n for n in names for _ in range(ns.steps)],
                "bias_V": np.tile(voltages, len(names)),
                "shift_GHz": shift, "fwhm_MHz": fwhm})
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# ple

def _ple_one(cfg: RunConfig, ns, curve: TuningCurve, v: float, seed: int) -> ScanRecord:
    """The scan at bias ``v`` over ``--span`` around ``--center``, or around
    the predicted shift; noise-free with ``--expected-value``."""
    center = float(curve.shift(v)) if ns.center is None else ns.center
    detunings = center + np.linspace(-0.5 * ns.span, 0.5 * ns.span, ns.points)
    return simulate_ple(cfg.emitter(ns.emitter), cfg.device, v, detunings, ns.dwell,
                        seed=None if ns.expected_value else seed)


def cmd_ple(cfg: RunConfig, ns, seed: int) -> int:
    emitter = cfg.emitter(ns.emitter)
    voltages = [_finite_bias(v) for v in _number_list(ns.bias, float, "--bias")]
    for v in voltages:
        if not 0.0 <= v <= cfg.device.calibration.v_max:
            raise RangeError(
                f"bias {v} V outside [0, {cfg.device.calibration.v_max}] V")
    # file names and scan seeds keep the 6 significant digits of :g
    _refuse_repeats([f"{v:g}" for v in voltages], "--bias", ns.bias,
                    "a voltage (to 6 significant digits)")
    if ns.points < 1:
        raise InputError("--points must be >= 1")
    curve = TuningCurve(emitter, cfg.device)
    seeds = [derive_seed(seed, "ple", ns.emitter, f"{v:g}") for v in voltages]
    # every scan is simulated before the first file is written
    scans = [_ple_one(cfg, ns, curve, v, s) for v, s in zip(voltages, seeds)]
    for scan_seed, scan in zip(seeds, scans):
        path = ns.out / f"ple_{ns.emitter}_{scan.bias_v:g}V.csv"
        scan_to_csv(scan, path, header_lines=_provenance(cfg, "ple", scan_seed),
                    include_expected=ns.expected_value)
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# inhomo

def _read_resonances_csv(path: Path) -> np.ndarray:
    """First column of a resonance CSV; ``#`` lines and an optional header skipped."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            reader = csv.reader(line for line in fh if not line.startswith("#"))
            cells = [(reader.line_num, row[0]) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InputError(f"{path}: cannot read resonance file: {exc}") from None
    values = []
    for i, (row, cell) in enumerate(cells):
        try:
            value = float(cell)
        except ValueError:
            if i == 0:  # only the first row may be a header
                continue
            value = math.nan
        if not math.isfinite(value):
            raise InputError(f"{path}, row {row}: not a finite number: {cell!r}")
        values.append(value)
    if not values:
        raise InputError(f"{path}: no resonance values found")
    return np.asarray(values)


def cmd_inhomo(cfg: RunConfig, ns, seed: int) -> int:
    if ns.input is not None:
        source = Path(ns.input)
        values = _read_resonances_csv(source)
        origin = str(source)
    elif ns.matched:
        source = matched_sample_path()
        values = _read_resonances_csv(source)
        origin = "shipped synthetic-matched dataset"
    else:
        n = ns.n if ns.n is not None else 173
        if n < 1:
            raise InputError("--n must be >= 1")
        rng = np.random.default_rng(derive_seed(seed, "inhomo", n))
        inh = cfg.inhomogeneous
        values = sample_inhomogeneous(
            n, inh.cluster_sigma_ghz, inh.cluster_weight, inh.broad_span_ghz,
            rng, center_ghz=cfg.physics.nu0)
        origin = f"generated, n={n}"
    result = cdf_and_window(values, ns.window)

    cdf_path = ns.out / "inhomo_cdf.csv"
    _write_csv(cdf_path, _provenance(cfg, "inhomo", seed) + [f"source={origin}"],
               {"frequency_GHz": result.values, "cdf": result.cdf})
    summary = {
        "n_resonances": int(result.values.size),
        "window_GHz": ns.window,
        "best_window_fraction": result.best_fraction,
        "best_window_start_GHz": result.best_window_start,
        "source": origin,
        "config_sha256": cfg.config_hash(),
        "seed": seed,
    }
    _write_json(ns.out / "inhomo_summary.json", summary)
    print(f"wrote {cdf_path}")
    print(f"best {ns.window:g} GHz window captures "
          f"{100.0 * result.best_fraction:.1f}% of resonances")
    return 0


# ---------------------------------------------------------------------------
# stabilize

def _stabilize_one(cfg: RunConfig, emitter_name: str, stab, out: Path,
                   run_seed: int) -> tuple[str, dict]:
    emitter = cfg.emitter(emitter_name)
    log = run_stabilization(emitter, cfg.device, cfg.control.drift,
                            cfg.control.lockin, cfg.control.pid,
                            cfg.control.cr_check, stab, run_seed)
    summary = summarize_log(log)
    summary.update(log.meta)
    summary["config_sha256"] = cfg.config_hash()
    summary["configs"] = {
        "drift": asdict(cfg.control.drift),
        "lockin": asdict(cfg.control.lockin),
        "pid": asdict(cfg.control.pid),
        "cr_check": asdict(cfg.control.cr_check),
        "stabilization": asdict(stab),
        "provenance": "drift block calibrated to the free-running spread; "
                      "lock-in/PID/CR values are documented defaults",
    }

    tag = f"{run_seed}"
    head = _provenance(cfg, "stabilize", run_seed)
    upd_path = out / f"stabilize_updates_{tag}.csv"
    _write_csv(upd_path, head,
               {"time_s": log.update_time_s, "dc_voltage_V": log.dc_voltage_v,
                "error_GHz": log.error_ghz, "lockin_valid": log.lockin_valid,
                "cr_pass": log.cr_pass},
               blank_nan=("error_GHz",))
    scan_path = out / f"stabilize_scans_{tag}.csv"
    _write_csv(scan_path, head,
               {"time_s": log.scan_time_s, "fitted_center_GHz": log.scan_center_ghz,
                "fitted_fwhm_MHz": log.scan_fwhm_mhz,
                "converged": log.scan_converged,
                "true_center_GHz": log.scan_true_center_ghz},
               blank_nan=("fitted_center_GHz", "fitted_fwhm_MHz"))
    _write_json(out / f"stabilize_summary_{tag}.json", summary)
    return str(upd_path), summary


def cmd_stabilize(cfg: RunConfig, ns, seed: int) -> int:
    cfg.emitter(ns.emitter)
    if ns.seeds:
        run_seeds = _number_list(ns.seeds, non_negative_int, "--seeds")
        _refuse_repeats(run_seeds, "--seeds", ns.seeds, "a seed")
    else:
        run_seeds = [seed]
    overrides = {"duration_s": ns.duration, "n_scans": ns.scans,
                 "feedback": False if ns.no_feedback else None}
    stab = replace(cfg.control.stabilization,
                   **{k: v for k, v in overrides.items() if v is not None})
    run = partial(_stabilize_one, cfg, ns.emitter, stab, ns.out)
    if ns.jobs <= 1 or len(run_seeds) <= 1:
        results = [run(s) for s in run_seeds]
    else:
        # a fork-started pool launches all max_workers processes at once
        with ProcessPoolExecutor(max_workers=min(ns.jobs, len(run_seeds))) as pool:
            results = list(pool.map(run, run_seeds))
    for path, summary in results:
        mode = "free-running" if ns.no_feedback else "feedback"
        print(f"wrote {path}")
        print(f"seed {summary['seed']} ({mode}): center std = "
              f"{1000.0 * summary['center_std_ghz']:.1f} MHz over "
              f"{summary['n_converged']} scans, mean FWHM = "
              f"{summary['fwhm_mean_mhz']:.1f} MHz, summed FWHM = "
              f"{summary.get('fwhm_summed_mhz', float('nan')):.1f} MHz")
    return 0


# ---------------------------------------------------------------------------
# calibrate-pulse

def cmd_calibrate_pulse(cfg: RunConfig, ns, seed: int) -> int:
    pulses = _number_list(ns.pulses, float, "--pulses")
    cooldowns = _number_list(ns.cooldowns, float, "--cooldowns")
    bias = _finite_bias(ns.bias) if ns.bias is not None else cfg.device.calibration.v_ref
    if not 0.0 <= bias <= cfg.device.calibration.v_max:
        raise RangeError(
            f"bias {bias} V outside [0, {cfg.device.calibration.v_max}] V")
    thermal = cfg.device.thermal
    offsets = np.array([pulsed_resonance_offset(thermal, p, c, bias,
                                                v_ref=cfg.device.calibration.v_ref)
                        for p in pulses for c in cooldowns])
    path = ns.out / "pulse_calibration.csv"
    _write_csv(path, _provenance(cfg, "calibrate-pulse", seed),
               {"pulse_us": np.repeat(pulses, len(cooldowns)),
                "cooldown_us": np.tile(cooldowns, len(pulses)),
                "offset_GHz": offsets, "safe": offsets == 0.0})
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------

def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # registered on the main parser with real defaults and on every
    # subparser with SUPPRESS defaults, so the flags work in both positions
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument("--config", type=Path, default=default(None),
                        help="configuration JSON (default: shipped config)")
    parser.add_argument("--seed", type=non_negative_int, default=default(None),
                        help="master seed (default: from config)")
    parser.add_argument("--out", type=Path, default=default(Path(".")),
                        help="output directory")
    parser.add_argument("--jobs", type=positive_int, default=default(1),
                        help="parallel workers for stabilize --seeds; other "
                             "verbs run serially (>= 1)")
    parser.add_argument("--expected-value", action="store_true",
                        default=default(False),
                        help="noise-free expected-value scans (ple only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snvtune",
        description="Strain-tuning and resonance-stabilization simulator "
                    "for SnV- centers in MEMS waveguide devices.")
    _add_global_flags(parser, suppress=False)
    parser.add_argument("--version", action="version",
                        version=f"snvtune {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tune-curve", help="voltage-tuning curves per emitter",
                       parents=[common])
    p.add_argument("--emitters", default=None,
                   help="comma-separated emitter ids (default: all)")
    p.add_argument("--v-min", type=float, default=0.0)
    p.add_argument("--v-max", type=float, default=None)
    p.add_argument("--steps", type=int, default=33)
    p.set_defaults(func=cmd_tune_curve)

    p = sub.add_parser("ple", help="simulate PLE scans at given bias voltages",
                   parents=[common])
    p.add_argument("--emitter", required=True)
    p.add_argument("--bias", default="0",
                   help="comma-separated bias voltages in V")
    p.add_argument("--center", type=float, default=None,
                   help="scan window center in GHz (default: predicted shift)")
    p.add_argument("--span", type=float, default=4.0, help="scan span in GHz")
    p.add_argument("--points", type=int, default=161)
    p.add_argument("--dwell", type=float, default=0.005,
                   help="dwell time per point in s")
    p.set_defaults(func=cmd_ple)

    p = sub.add_parser("inhomo", help="inhomogeneous-distribution statistics",
                   parents=[common])
    group = p.add_mutually_exclusive_group()
    group.add_argument("--n", type=int, default=None,
                       help="number of resonances to generate")
    group.add_argument("--input", default=None,
                       help="CSV of resonance frequencies to ingest")
    group.add_argument("--matched", action="store_true",
                       help="use the shipped synthetic-matched dataset")
    p.add_argument("--window", type=float, default=40.0,
                   help="capture window width in GHz")
    p.set_defaults(func=cmd_inhomo)

    p = sub.add_parser("stabilize", help="run the stabilization loop",
                   parents=[common])
    p.add_argument("--emitter", default="axial_hinge")
    p.add_argument("--duration", type=float, default=None,
                   help="run duration in s (default: from config)")
    p.add_argument("--scans", type=int, default=None,
                   help="number of PLE scans (default: from config)")
    p.add_argument("--no-feedback", action="store_true",
                   help="free-running comparison run")
    p.add_argument("--seeds", default=None,
                   help="comma-separated run seeds (default: master seed)")
    p.set_defaults(func=cmd_stabilize)

    p = sub.add_parser("calibrate-pulse", help="pulsed-bias thermal offsets",
                   parents=[common])
    p.add_argument("--pulses", default="10,25,50,100,200",
                   help="pulse durations in us")
    p.add_argument("--cooldowns", default="0,250,500,1000,1500,3000",
                   help="cooldown durations in us")
    p.add_argument("--bias", type=float, default=None,
                   help="bias voltage in V (default: calibration v_ref)")
    p.set_defaults(func=cmd_calibrate_pulse)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.expected_value and ns.command != "ple":
            raise InputError(f"--expected-value: {ns.command} has no expected-value mode")
        cfg = load_config(ns.config) if ns.config else load_default_config()
        seed = ns.seed if ns.seed is not None else cfg.seed
        return ns.func(cfg, ns, seed)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a size numpy cannot allocate
        print(f"error: input too large: {exc}", file=sys.stderr)
        return 2
    except (RangeError, DomainError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
