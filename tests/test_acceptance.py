"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance is pinned here; nothing defers to
later calibration.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import snvtune as st
from snvtune.cli import main as cli_main
from snvtune.control import (EmitterState, calibrate_lockin, lockin_error)
from snvtune.emitters import TuningCurve
from snvtune.frames import Orientation
from snvtune.spectroscopy import best_window_fraction, effective_linewidth
from snvtune.strain import Frame, IrreducibleStrain, SpinOrbit, StrainTensor

from oracles import eigengap_2x2, random_rotation, random_symmetric

CONFIG = st.load_default_config()
DEVICE = CONFIG.device
AXIAL = CONFIG.emitter("axial_hinge")
TRANSVERSAL = CONFIG.emitter("transversal_hinge")


def report(number: int, description: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {verdict} - {description} ({detail})")
    assert ok, f"criterion {number}: {description}: {detail}"


def test_criterion_01_eigen_oracle_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        comps = rng.uniform(-1e-3, 1e-3, 6)
        eps = StrainTensor(*comps, frame=Frame.DEFECT)
        susc = st.StrainSusceptibilities(*rng.uniform(-2e6, 2e6, 4))
        lam = float(rng.uniform(0.0, 3000.0))
        ir = st.irreducible_components(eps, susc)
        closed = st.splitting(ir, lam)
        gap = eigengap_2x2(st.strain_matrix(ir, lam))
        worst = max(worst, abs(closed - gap) / max(abs(gap), 1e-300))
    elapsed = time.perf_counter() - t0
    report(1, "closed forms match eigen-gaps of the strain matrix",
           worst < 1e-10 and elapsed < 5.0,
           f"worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_zero_strain_limit():
    so = SpinOrbit(lambda_g=850.0, lambda_u=3000.0)
    zero = IrreducibleStrain(0.0, 0.0, 0.0)
    resp = st.level_response(zero, zero, so, nu0=484130.0)
    ok = (resp.delta_g == so.lambda_g and resp.delta_u == so.lambda_u
          and resp.nu_zpl == 484130.0)
    report(2, "zero strain reproduces bare splittings and ZPL exactly", ok,
           f"delta_g={resp.delta_g}, delta_u={resp.delta_u}, nu_zpl={resp.nu_zpl}")


def test_criterion_03_rotation_invariants():
    rng = np.random.default_rng(303)
    worst_trace = worst_eig = 0.0
    for _ in range(1000):
        eps = StrainTensor.from_matrix(random_symmetric(rng, 1e-3), Frame.LAB)
        r = random_rotation(rng)
        out = st.rotate_strain(eps, r, Frame.CRYSTAL)
        worst_trace = max(worst_trace, abs(np.trace(out.as_matrix())
                                           - np.trace(eps.as_matrix())))
        worst_eig = max(worst_eig, float(np.max(np.abs(
            np.sort(np.linalg.eigvalsh(out.as_matrix()))
            - np.sort(np.linalg.eigvalsh(eps.as_matrix()))))))
    # threefold-compatible in-plane convention change leaves splittings fixed
    worst_split = 0.0
    for o in Orientation:
        eps = StrainTensor.from_matrix(random_symmetric(rng, 5e-5), Frame.LAB)
        base = None
        for step in (0, 1, 2):
            rot = st.lab_to_defect(o, in_plane_angle=step * 2.0 * np.pi / 3.0)
            eps_def = st.rotate_strain(eps, rot, Frame.DEFECT)
            resp = st.level_response(
                st.irreducible_components(eps_def, CONFIG.physics.susc_g),
                st.irreducible_components(eps_def, CONFIG.physics.susc_u),
                CONFIG.physics.spin_orbit, nu0=0.0)
            if base is None:
                base = resp
            else:
                worst_split = max(
                    worst_split,
                    abs(resp.delta_g - base.delta_g) / base.delta_g,
                    abs(resp.delta_u - base.delta_u) / base.delta_u)
    ok = worst_trace < 1e-10 and worst_eig < 1e-10 and worst_split < 1e-10
    report(3, "rotations preserve trace/eigenvalues; convention change is free",
           ok, f"trace {worst_trace:.1e}, eig {worst_eig:.1e}, "
               f"splittings {worst_split:.1e}")


def test_criterion_04_actuator_calibration():
    from snvtune.actuator import hinge_point
    eps = st.strain_at(DEVICE, hinge_point(DEVICE.geometry), 75.0)
    anchor_err = abs(eps.e_xx - 7e-5) / 7e-5
    pos = (3e-6, 0.0, 50e-9)
    e1 = st.strain_at(DEVICE, pos, 19.0).e_xx
    e2 = st.strain_at(DEVICE, pos, 38.0).e_xx
    ratio_err = abs(e2 / e1 - 4.0)
    ok = anchor_err < 1e-9 and ratio_err < 1e-10
    report(4, "peak strain anchor at 75 V and exact quadratic voltage law",
           ok, f"anchor rel err {anchor_err:.1e}, ratio err {ratio_err:.1e}")


def test_criterion_05_orientation_contrast():
    t0 = time.perf_counter()
    v = DEVICE.calibration.v_max
    ax = abs(st.shift_from_voltage_chain(AXIAL, DEVICE, v))
    tr = abs(st.shift_from_voltage_chain(TRANSVERSAL, DEVICE, v))
    elapsed = time.perf_counter() - t0
    ok = ax >= 5.0 * tr and ax >= 40.0 and elapsed < 10.0
    report(5, "axial emitters out-tune transversal by >= 5x and reach 40 GHz",
           ok, f"axial {ax:.1f} GHz, transversal {tr:.1f} GHz, "
               f"ratio {ax / tr:.1f}, {elapsed:.2f} s")


def test_criterion_06_linewidth_loop_closure():
    t0 = time.perf_counter()
    curve = TuningCurve(AXIAL, DEVICE)
    voltages = np.linspace(0.0, DEVICE.calibration.v_max, 15)
    shifts, widths = [], []
    for i, v in enumerate(voltages):
        predicted = float(curve.shift(float(v)))
        width_ghz = effective_linewidth(AXIAL, predicted) / 1000.0
        det = predicted + np.linspace(-8.0 * width_ghz, 8.0 * width_ghz, 161)
        scan = st.simulate_ple(AXIAL, DEVICE, float(v), det, 0.02,
                               seed=60_000 + i)
        fit = st.fit_line(scan, "lorentzian")
        assert fit.converged
        shifts.append(abs(fit.center))
        widths.append(fit.fwhm)
    slope = float(np.polyfit(shifts, widths, 1)[0])
    elapsed = time.perf_counter() - t0
    rel = abs(slope - AXIAL.broadening_slope) / AXIAL.broadening_slope
    ok = rel < 0.05 and elapsed < 60.0
    report(6, "fitted FWHM vs fitted shift recovers the broadening slope",
           ok, f"slope {slope:.3f} vs {AXIAL.broadening_slope} MHz/GHz "
               f"({100 * rel:.1f}%), {elapsed:.1f} s")


FREE_RUN_STD = {}


def test_criterion_07_free_running_calibration():
    t0 = time.perf_counter()
    stab = replace(CONFIG.control.stabilization, feedback=False)
    log = st.run_stabilization(AXIAL, DEVICE, CONFIG.control.drift,
                               CONFIG.control.lockin, CONFIG.control.pid,
                               CONFIG.control.cr_check, stab, seed=CONFIG.seed)
    centers = log.scan_center_ghz[log.scan_converged]
    std = float(np.std(centers, ddof=1))
    FREE_RUN_STD["value"] = std
    elapsed = time.perf_counter() - t0
    ok = abs(std - 1.38) / 1.38 <= 0.15 and elapsed < 120.0
    report(7, "7 h free-running run reproduces the 1.38 GHz spread",
           ok, f"std {std:.3f} GHz over {centers.size} scans, {elapsed:.1f} s")


@pytest.mark.slow
def test_criterion_08_stabilization_ratio():
    t0 = time.perf_counter()
    threshold = 1.38 / 12.0
    stds = []
    scans_taken = []
    for k in range(10):
        log = st.run_stabilization(AXIAL, DEVICE, CONFIG.control.drift,
                                   CONFIG.control.lockin, CONFIG.control.pid,
                                   CONFIG.control.cr_check,
                                   CONFIG.control.stabilization,
                                   seed=CONFIG.seed + k)
        centers = log.scan_center_ghz[log.scan_converged]
        stds.append(float(np.std(centers, ddof=1)))
        scans_taken.append(int(centers.size))
    elapsed = time.perf_counter() - t0
    worst = max(stds)
    free_run = FREE_RUN_STD.get("value", 1.38)
    ok = worst <= threshold and min(scans_taken) >= 45 and elapsed < 600.0
    report(8, "feedback stabilizes >= 12-fold below the free-running spread",
           ok, f"worst std {1000 * worst:.1f} MHz vs {1000 * threshold:.0f} MHz "
               f"cap, ratio {free_run / worst:.0f}x, "
               f"scans >= {min(scans_taken)}/50, {elapsed:.0f} s")


def test_criterion_09_lockin_correctness():
    lk = CONFIG.control.lockin
    curve = TuningCurve(AXIAL, DEVICE)
    v_op = CONFIG.control.stabilization.operating_voltage
    target = float(curve.shift(v_op))
    state = EmitterState(emitter=AXIAL, device=DEVICE, dc_voltage=v_op,
                         drift_ghz=0.0)
    cal = calibrate_lockin(state, target, lk, curve)
    fwhm_ghz = effective_linewidth(AXIAL, target) / 1000.0

    zero = lockin_error(state, target, lk, curve=curve, calibration=cal)
    zero_ok = abs(zero.error_ghz) <= 1e-8 * fwhm_ghz

    odd_worst = 0.0
    acc_worst = 0.0
    for frac in (1.0 / 16.0, 1.0 / 8.0, 3.0 / 16.0, 0.25):
        delta = frac * fwhm_ghz
        plus = lockin_error(replace(state, drift_ghz=delta), target, lk,
                            curve=curve, calibration=cal).error_ghz
        minus = lockin_error(replace(state, drift_ghz=-delta), target, lk,
                             curve=curve, calibration=cal).error_ghz
        odd_worst = max(odd_worst, abs(plus + minus) / abs(plus))
        acc_worst = max(acc_worst, abs(plus - delta) / delta)
    ok = zero_ok and odd_worst < 0.02 and acc_worst <= 0.20
    report(9, "lock-in error: zero at resonance, odd, within 20% to fwhm/4",
           ok, f"zero {zero.error_ghz:.2e} GHz, odd asym {odd_worst:.3f}, "
               f"worst accuracy {100 * acc_worst:.1f}%")


def test_criterion_10_statistics():
    # 10^4 identically distributed draws through the simulator's sampling
    # path: a background-only emitter has one expected rate at every point
    flat = replace(AXIAL, peak_rate=0.0, background_rate=200.0)
    det = np.linspace(-5.0, 5.0, 10_000)
    scan = st.simulate_ple(flat, DEVICE, 0.0, det, 0.2, seed=1010)
    vm_ratio = float(np.var(scan.counts) / np.mean(scan.counts))
    poisson_ok = 0.9 <= vm_ratio <= 1.1

    curve = TuningCurve(AXIAL, DEVICE)
    v = 10.0
    shift = float(curve.shift(v))
    fwhm_mhz = effective_linewidth(AXIAL, shift)
    det = shift + np.linspace(-1.0, 1.0, 101)
    hits = 0
    for seed in range(200):
        scan = st.simulate_ple(AXIAL, DEVICE, v, det, 0.005, seed=10_000 + seed)
        fit = st.fit_line(scan, "lorentzian")
        tol = max(3.0 * fit.center_stderr, fwhm_mhz / 1000.0 / 20.0)
        if fit.converged and abs(fit.center - shift) <= tol:
            hits += 1
    recovery = hits / 200.0
    ok = poisson_ok and recovery >= 0.95
    report(10, "Poisson variance/mean in [0.9, 1.1]; fit recovery >= 95%",
           ok, f"var/mean {vm_ratio:.3f}, recovery {100 * recovery:.1f}%")


def test_criterion_11_window_statistic():
    rng = np.random.default_rng(1111)
    values = rng.uniform(0.0, 100.0, 1000)
    frac, _ = best_window_fraction(values, 40.0)
    sigma = np.sqrt(0.4 * 0.6 / 1000.0)
    ok = abs(frac - 0.4) <= 3.0 * sigma
    report(11, "uniform sample: best 40 GHz window captures ~40%",
           ok, f"fraction {frac:.3f} vs 0.400 +- {3 * sigma:.3f}")


def test_criterion_12_cli_reproducibility(tmp_path):
    commands = [
        ("tune-curve", "--steps", "5"),
        ("ple", "--emitter", "axial_hinge", "--bias", "55", "--points", "25"),
        ("inhomo", "--n", "40"),
        ("stabilize", "--duration", "120", "--scans", "1"),
        ("calibrate-pulse", "--pulses", "25,50", "--cooldowns", "0,1500"),
    ]
    mismatches = []
    for command in commands:
        dirs = [tmp_path / command[0] / sub for sub in ("a", "b")]
        for d in dirs:
            code = cli_main(["--out", str(d), "--seed", "31415", *command])
            assert code == 0
        files_a = sorted(p for p in dirs[0].iterdir())
        files_b = sorted(p for p in dirs[1].iterdir())
        if [p.name for p in files_a] != [p.name for p in files_b]:
            mismatches.append(f"{command[0]}: file sets differ")
            continue
        for a, b in zip(files_a, files_b):
            if a.read_bytes() != b.read_bytes():
                mismatches.append(f"{command[0]}: {a.name}")
    ok = not mismatches
    report(12, "every CLI command is byte-identical across repeat runs",
           ok, "all 5 commands" if ok else "; ".join(mismatches))
