"""Independent oracles used across the test suite.

Everything here deliberately re-derives results through a different route
than the library code: brute-force eigendecompositions, literal index
summations, numeric integration and differentiation, Monte-Carlo moments.
"""

import json
import math
from dataclasses import replace

import numpy as np
from scipy.optimize import curve_fit

from snvtune.control import (EmitterState, PIDState, calibrate_lockin, cr_check,
                             lockin_error, pid_update)
from snvtune.emitters import TuningCurve
from snvtune.errors import InputError, RangeError
from snvtune.spectroscopy import effective_linewidth, fit_line, sample_scan

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def read_scan(path) -> tuple[np.ndarray, dict]:
    """Columns of a scan CSV written by ``scan_to_csv``, read with numpy's
    parser (``#`` lines and the header row skipped), and its JSON sidecar."""
    rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    columns = np.loadtxt(rows[1:], delimiter=",", ndmin=2).T
    meta = json.loads(path.with_name(path.name + ".meta.json").read_text())
    return columns, meta


def eigengap_2x2(h: np.ndarray) -> float:
    """Numerical eigenvalue gap of a Hermitian 2x2 matrix."""
    vals = np.linalg.eigvalsh(h)
    return float(vals[1] - vals[0])


def rotate_index_sum(eps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Literal 9-term tensor rotation eps'_kl = sum_ij R_ki R_lj eps_ij."""
    out = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            acc = 0.0
            for i in range(3):
                for j in range(3):
                    acc += r[k, i] * r[l, j] * eps[i, j]
            out[k, l] = acc
    return out


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR decomposition."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def random_symmetric(rng: np.random.Generator, scale: float) -> np.ndarray:
    m = rng.uniform(-scale, scale, size=(3, 3))
    return 0.5 * (m + m.T)


def second_derivative(fn, x: float, h: float) -> float:
    """Central finite-difference second derivative."""
    return (fn(x + h) - 2.0 * fn(x) + fn(x - h)) / (h * h)


def central_difference_jacobian(fn, x, params, steps) -> np.ndarray:
    """Column-by-column central-difference Jacobian of ``fn(x, *params)``.

    ``steps`` holds one absolute step per parameter.
    """
    params = [float(p) for p in params]
    cols = []
    for i, h in enumerate(steps):
        up, down = list(params), list(params)
        up[i] += h
        down[i] -= h
        cols.append((fn(x, *up) - fn(x, *down)) / (2.0 * h))
    return np.column_stack(cols)


def fit_line_finite_difference(scan, shape):
    """Two-pass line fit with scipy's finite-difference Jacobian.

    Reference for ``fit_line``: the same starting guesses, bounds, Poisson
    weights and convergence test, with the models written out here and
    scipy's ``trf`` solver converged to tight tolerances.
    Returns ``(center, fwhm_mhz, center_stderr, converged)``.
    """
    def lorentz(x, amp, center, fwhm, bg):
        return amp / (1.0 + (2.0 * (x - center) / fwhm) ** 2) + bg

    def pseudo_voigt(x, amp, center, fwhm, eta, bg):
        u2 = ((x - center) / (0.5 * fwhm)) ** 2
        gauss = np.exp(-np.log(2.0) * u2)
        return amp * (eta / (1.0 + u2) + (1.0 - eta) * gauss) + bg

    x = scan.detunings
    y = np.asarray(scan.counts, dtype=float)
    bg0 = float(np.median(y))
    i_max = int(np.argmax(y))
    amp0 = max(y[i_max] - bg0, 1.0)
    c0 = float(x[i_max])
    step = float(np.median(np.diff(x)))
    fwhm0 = max(float(np.count_nonzero(y > bg0 + 0.5 * amp0)) * step, step)
    span = float(x[-1] - x[0])
    if shape == "lorentzian":
        model, p0 = lorentz, [amp0, c0, fwhm0, bg0]
        bounds = ([0.0, x[0], step * 0.1, 0.0],
                  [np.inf, x[-1], 4.0 * span, np.inf])
    else:
        model, p0 = pseudo_voigt, [amp0, c0, fwhm0, 0.7, bg0]
        bounds = ([0.0, x[0], step * 0.1, 0.0, 0.0],
                  [np.inf, x[-1], 4.0 * span, 1.0, np.inf])
    # scipy's default tolerances (1e-8) stop short of the optimum by more
    # than the comparison bounds; these converge it to rounding
    tight = dict(ftol=1e-15, xtol=1e-15, gtol=1e-15)
    try:
        popt, _ = curve_fit(model, x, y, p0=p0, bounds=bounds, maxfev=20000,
                            **tight)
        sigma = np.sqrt(np.maximum(model(x, *popt), 1.0))
        popt, pcov = curve_fit(model, x, y, p0=popt, sigma=sigma,
                               absolute_sigma=True, bounds=bounds, maxfev=20000,
                               **tight)
    except (RuntimeError, ValueError):
        return c0, fwhm0 * 1000.0, np.inf, False
    center, fwhm = popt[1], popt[2]
    stderr = float(np.sqrt(np.abs(pcov[1, 1])))
    ok = (np.isfinite(stderr) and fwhm > 0.0
          and x[0] <= center <= x[-1] and fwhm < 2.0 * span)
    return float(center), float(fwhm) * 1000.0, stderr, bool(ok)


def fisher_center_sigma(detunings, center_ghz, fwhm_mhz, peak_rate, bg_rate,
                        dwell_s) -> float:
    """Cramer-Rao bound for the fitted line center of a Poisson-counted scan.

    I(c) = sum_i (d mu_i / d c)^2 / mu_i with mu_i the expected counts per
    point; the derivative is taken numerically.
    """
    x = np.asarray(detunings, dtype=float)
    w = fwhm_mhz / 1000.0

    def mu(c):
        return dwell_s * (peak_rate / (1.0 + (2.0 * (x - c) / w) ** 2) + bg_rate)

    h = w / 1000.0
    dmu = (mu(center_ghz + h) - mu(center_ghz - h)) / (2.0 * h)
    info = np.sum(dmu ** 2 / mu(center_ghz))
    return float(1.0 / np.sqrt(info))


def ou_jump_mc_std(tau_s, sigma_ghz, jump_rate_hz, jump_sigma_ghz, dt_s,
                   n_steps, seed) -> float:
    """Monte-Carlo stationary std of the OU-plus-jumps recurrence.

    Independent implementation: vectorized over a batch of walkers instead
    of stepping one chain through library code.
    """
    rng = np.random.default_rng(seed)
    decay = np.exp(-dt_s / tau_s)
    kick = sigma_ghz * np.sqrt(1.0 - decay * decay)
    x = 0.0
    burn = int(10 * tau_s / dt_s)
    samples = np.empty(n_steps)
    for i in range(burn + n_steps):
        x = x * decay + rng.normal(0.0, kick)
        n_j = rng.poisson(jump_rate_hz * dt_s)
        if n_j:
            x += np.sum(rng.normal(0.0, jump_sigma_ghz, n_j))
        if i >= burn:
            samples[i - burn] = x
    return float(np.std(samples))


def pulsed_heat_peak(pulse, cooldown, tau, step=1.0) -> float:
    """Peak heat of a pulse train in its periodic steady state, in us.

    Time-steps dT/dt = 1 - T/tau while the pulse is on and -T/tau during the
    cooldown with classical Runge-Kutta (steps of at most ``step``), from
    T = 0, period after period, until the heat at the end of a pulse stops
    changing.  No closed form is used.
    """
    def advance(t, rate, duration):
        n = max(1, int(np.ceil(duration / step)))
        h = duration / n
        for _ in range(n):
            k1 = rate - t / tau
            k2 = rate - (t + 0.5 * h * k1) / tau
            k3 = rate - (t + 0.5 * h * k2) / tau
            k4 = rate - (t + h * k3) / tau
            t += h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        return t

    t = peak = 0.0
    for _ in range(100_000):
        t = advance(t, 1.0, pulse)
        if abs(t - peak) <= 1e-13 * t:
            return t
        peak = t
        t = advance(t, 0.0, cooldown)
    raise RuntimeError("pulse train did not settle")


def scalar_peak_heat(thermal, pulse_us: float, cooldown_us: float) -> float:
    """One cell of ``actuator._peak_heat``, in Python floats: the scalar
    form it had before it broadcast, kept as its bit-for-bit reference."""
    tau = thermal.relax_time_us
    cooled = -math.expm1(-cooldown_us / tau)
    if cooled == 0.0:  # no cooldown, or one too short to cool at all
        return tau
    try:
        heated = math.expm1(pulse_us / tau)
    except OverflowError:  # a pulse that reaches the DC limit
        return tau
    return tau / (1.0 + cooled / heated) if heated > 0.0 else 0.0


def scalar_pulsed_resonance_offset(thermal, pulse_us: float, cooldown_us: float,
                                   v: float, v_ref: float = 75.0) -> float:
    """One cell of ``pulsed_resonance_offset``, in Python floats (its scalar
    form before it broadcast)."""
    if not (0.0 < pulse_us < math.inf and 0.0 <= cooldown_us < math.inf):
        raise InputError("pulse duration must be finite and > 0, cooldown finite and >= 0")
    if not 0.0 <= v < math.inf:
        raise InputError("voltage must be finite and >= 0")
    try:
        heat = scalar_peak_heat(thermal, pulse_us, cooldown_us) * (v / v_ref) ** 2
    except OverflowError:  # a float power raises where a product gives inf
        heat = math.inf
    safe = scalar_peak_heat(thermal, thermal.max_pulse_us, thermal.cooldown_time_us)
    offset = -thermal.heat_shift_coeff * max(0.0, heat - safe) + 0.0
    if not math.isfinite(offset):
        raise RangeError(f"bias {v:g} V heats the device beyond the float range")
    return offset


def one_shot_best_window(v: np.ndarray, window_ghz: float) -> tuple[float, float]:
    """Best-window fraction and start of a sorted sample from one
    ``searchsorted`` over every start and one ``argmax`` (its first maximum)."""
    counts = np.searchsorted(v, v + window_ghz, side="right") - np.arange(v.size)
    best = int(np.argmax(counts))
    return float(counts[best]) / v.size, float(v[best])


def reference_stabilization(emitter, device, drift, lockin_cfg, pid_cfg, cr_cfg,
                            stab, seed) -> dict:
    """Per-call reference of ``run_stabilization``'s frame loop.

    Each frame goes through the public probes one call at a time:
    ``DriftProcess.step``, ``lockin_error`` and ``cr_check`` on an
    ``EmitterState``, then ``pid_update``; each scan through ``sample_scan``
    and ``fit_line``, with a fit that finds no line recorded unconverged.
    Takes a valid setup (no input checks) and returns the ``FeedbackLog``
    arrays by field name.  Where a central difference of the tuning curve
    rises at the operating voltage, the PID runs with negated gains.
    """
    curve = TuningCurve(emitter, device)
    v0, h = stab.operating_voltage, 1e-3
    if curve.shift(v0 + h) > curve.shift(v0 - h):
        pid_cfg = replace(pid_cfg, kp=-pid_cfg.kp, ki=-pid_cfg.ki, kd=-pid_cfg.kd)
    dt = 1.0 / pid_cfg.update_rate_hz
    n_frames = int(round(stab.duration_s * pid_cfg.update_rate_hz))
    target = float(curve.shift(stab.operating_voltage))
    drift_rng, lockin_rng, cr_rng, scan_rng = (
        np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(4))
    drift = replace(drift)
    state = EmitterState(emitter=emitter, device=device,
                         dc_voltage=float(stab.operating_voltage),
                         drift_ghz=drift.state_ghz)
    calibration = (calibrate_lockin(state, target, lockin_cfg, curve)
                   if stab.feedback else None)
    scan_epochs = stab.duration_s * (np.arange(1, stab.n_scans + 1) / stab.n_scans)
    half = 0.5 * stab.scan_span_ghz
    scan_grid = target + np.linspace(-half, half, stab.scan_points)

    t_arr, v_arr = np.empty(n_frames), np.empty(n_frames)
    e_arr = np.full(n_frames, np.nan)
    valid_arr = np.zeros(n_frames, dtype=bool)
    cr_arr = np.zeros(n_frames, dtype=bool)
    s_time, s_center, s_fwhm, s_conv, s_true = [], [], [], [], []
    pid_state = PIDState()
    next_scan = 0
    for i in range(n_frames):
        t = (i + 1) * dt
        drift.step(dt, drift_rng)
        state.drift_ghz = drift.state_ghz
        frame_cr = False
        if stab.feedback:
            probe = lockin_error(state, target, lockin_cfg, rng=lockin_rng,
                                 curve=curve, calibration=calibration)
            frame_cr = cr_check(state, target, cr_cfg, cr_rng, curve).passed
            if probe.valid:
                state.dc_voltage = pid_update(pid_state, state.dc_voltage,
                                              probe.error_ghz, pid_cfg, dt)
                e_arr[i] = probe.error_ghz
            valid_arr[i] = probe.valid
        t_arr[i] = t
        v_arr[i] = state.dc_voltage
        cr_arr[i] = frame_cr
        if next_scan < stab.n_scans and t >= scan_epochs[next_scan] - 0.5 * dt:
            if stab.feedback and not frame_cr:
                continue
            shift_now = float(curve.shift(state.dc_voltage))
            scan = sample_scan(emitter, scan_grid, shift_now + state.drift_ghz,
                               effective_linewidth(emitter, shift_now),
                               stab.scan_dwell_s, state.dc_voltage, rng=scan_rng)
            try:
                fit = fit_line(scan, stab.scan_shape)
                s_center.append(fit.center)
                s_fwhm.append(fit.fwhm)
                s_conv.append(fit.converged)
            except InputError:
                s_center.append(np.nan)
                s_fwhm.append(np.nan)
                s_conv.append(False)
            s_time.append(t)
            s_true.append(shift_now + state.drift_ghz)
            next_scan += 1
    return {
        "update_time_s": t_arr, "dc_voltage_v": v_arr, "error_ghz": e_arr,
        "lockin_valid": valid_arr, "cr_pass": cr_arr,
        "scan_time_s": np.asarray(s_time), "scan_center_ghz": np.asarray(s_center),
        "scan_fwhm_mhz": np.asarray(s_fwhm),
        "scan_converged": np.asarray(s_conv, dtype=bool),
        "scan_true_center_ghz": np.asarray(s_true),
    }
