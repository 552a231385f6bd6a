"""Resonance drift, gate-modulated lock-in readout and PID stabilization.

The emitter's optical resonance wanders as an Ornstein-Uhlenbeck process
with superimposed compound-Poisson jumps (slow spectral wandering plus
charge-state jumps).  The feedback protocol per 5 Hz frame: probe the line
at the target frequency while the bias carries a small sinusoidal
modulation, demodulate the photon counts at the first harmonic into a
signed frequency error, gate on a charge-resonance check, and let a PID
controller nudge the DC bias.  Periodic PLE scans sample the stabilized (or
free-running) line; their fitted centers are the stability record.

All randomness flows through explicit generators derived from one seed, so
runs are bit-reproducible and feedback on/off comparisons can share the
identical drift realization.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .actuator import DeviceModel
from .emitters import EmitterModel, TuningCurve
from .errors import ConfigError, InputError
from .spectroscopy import (MHZ_PER_GHZ, ScanRecord, effective_linewidth,
                           fit_line, lorentzian_peak, sample_scan)


@dataclass
class DriftProcess:
    """Mean-reverting frequency drift with jumps; state in GHz.

    Exact OU discretization per step plus a Poisson number of normally
    distributed jump additions; jumps relax with the same time constant.
    """

    ou_tau_s: float = 300.0
    ou_sigma_ghz: float = 1.41
    jump_rate_hz: float = 1.0 / 120.0
    jump_sigma_ghz: float = 0.15
    state_ghz: float = 0.0

    def __post_init__(self):
        if not self.ou_tau_s > 0.0:
            raise InputError("ou_tau_s must be > 0")
        if self.ou_sigma_ghz < 0.0 or self.jump_sigma_ghz < 0.0:
            raise InputError("drift sigmas must be >= 0")
        if self.jump_rate_hz < 0.0:
            raise InputError("jump_rate_hz must be >= 0")

    @property
    def stationary_std_ghz(self) -> float:
        """Stationary std of the combined process.

        OU variance plus the jump contribution
        jump_rate * jump_sigma^2 * tau / 2 (each jump decays with tau).
        """
        jump_var = self.jump_rate_hz * self.jump_sigma_ghz ** 2 * self.ou_tau_s / 2.0
        return math.sqrt(self.ou_sigma_ghz ** 2 + jump_var)

    def step(self, dt_s: float, rng: np.random.Generator) -> float:
        """Advance the state by ``dt_s`` and return the new offset in GHz."""
        if not dt_s > 0.0:
            raise InputError("dt_s must be > 0")
        decay = math.exp(-dt_s / self.ou_tau_s)
        new = self.state_ghz * decay
        if self.ou_sigma_ghz > 0.0:
            new += rng.normal(0.0, self.ou_sigma_ghz * math.sqrt(1.0 - decay * decay))
        if self.jump_rate_hz > 0.0 and self.jump_sigma_ghz > 0.0:
            n_jumps = rng.poisson(self.jump_rate_hz * dt_s)
            if n_jumps:
                new += float(np.sum(rng.normal(0.0, self.jump_sigma_ghz, n_jumps)))
        self.state_ghz = float(new)
        return self.state_ghz


@dataclass(frozen=True)
class LockInConfig:
    """Gate-modulation probe settings."""

    mod_amp_v: float = 0.16
    periods_per_probe: int = 2
    bins_per_period: int = 16
    probe_duration_s: float = 0.1
    slope_normalized: bool = True

    def __post_init__(self):
        if not self.mod_amp_v > 0.0:
            raise InputError("mod_amp_v must be > 0")
        if self.bins_per_period < 4:
            raise InputError("bins_per_period must be >= 4")
        if self.periods_per_probe < 1:
            raise InputError("periods_per_probe must be >= 1")
        if not self.probe_duration_s > 0.0:
            raise InputError("probe_duration_s must be > 0")


@dataclass(frozen=True)
class PIDConfig:
    """Discrete PID gains (volts per GHz) and output limits (volts)."""

    kp: float = 1.35
    ki: float = 0.0
    kd: float = 0.0
    output_min: float = 0.0
    output_max: float = 79.0
    update_rate_hz: float = 5.0
    integral_limit: float = 20.0  # GHz*s magnitude cap on the integral term

    def __post_init__(self):
        if not self.output_min < self.output_max:
            raise InputError("output_min must be < output_max")
        if not self.update_rate_hz > 0.0:
            raise InputError("update_rate_hz must be > 0")
        if not self.integral_limit >= 0.0:
            raise InputError("integral_limit must be >= 0")


@dataclass(frozen=True)
class CRCheckConfig:
    """Charge-resonance check: photon-count heralding at the target."""

    probe_duration_s: float = 0.05
    photon_threshold: int = 300
    max_attempts: int = 1

    def __post_init__(self):
        if self.photon_threshold < 1:
            raise InputError("photon_threshold must be >= 1")
        if not self.probe_duration_s > 0.0:
            raise InputError("probe_duration_s must be > 0")
        if self.max_attempts < 1:
            raise InputError("max_attempts must be >= 1")


@dataclass
class EmitterState:
    """Instantaneous state of the controlled emitter."""

    emitter: EmitterModel
    device: DeviceModel
    dc_voltage: float
    drift_ghz: float = 0.0


@dataclass(frozen=True)
class LockInResult:
    error_ghz: float
    raw_demod: float
    total_counts: float
    valid: bool


@dataclass(frozen=True)
class CRCheckResult:
    passed: bool
    attempts: int
    counts: int


@dataclass
class PIDState:
    integral: float = 0.0
    last_measurement: float | None = None


@functools.lru_cache(maxsize=16)
def _probe_table(cfg: LockInConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-config probe constants: sin(phase) and bias offset per bin, bin time.

    Every caller shares the cached arrays, so they are read-only.
    """
    n = cfg.periods_per_probe * cfg.bins_per_period
    phases = 2.0 * np.pi * (np.arange(n) + 0.5) / cfg.bins_per_period
    sin = np.sin(phases)
    offsets_v = cfg.mod_amp_v * sin
    sin.setflags(write=False)
    offsets_v.setflags(write=False)
    return sin, offsets_v, cfg.probe_duration_s / n


def _modulated_rates(state: EmitterState, target_ghz: float,
                     offsets_v: np.ndarray, curve: TuningCurve) -> np.ndarray:
    """Expected count rate per phase bin under bias modulation."""
    line = curve.shift(state.dc_voltage + offsets_v) + state.drift_ghz
    fwhm_ghz = effective_linewidth(state.emitter, curve.shift(state.dc_voltage)) / MHZ_PER_GHZ
    shape = lorentzian_peak(target_ghz - line, fwhm_ghz)
    return state.emitter.peak_rate * shape + state.emitter.background_rate


@dataclass(frozen=True)
class LockInCalibration:
    """Conversion constants of the demodulated signal at the operating point.

    ``sensitivity`` is the expected demodulated counts per GHz of resonance
    offset; ``zero_offset`` is the expected demodulated counts with the
    emitter exactly on resonance (nonzero because the quadratic
    voltage-to-frequency map makes a symmetric voltage modulation slightly
    asymmetric in frequency).
    """

    sensitivity: float
    zero_offset: float


def _expected_demod(state: EmitterState, target_ghz: float, cfg: LockInConfig,
                    curve: TuningCurve) -> float:
    sin, offsets_v, t_bin = _probe_table(cfg)
    rates = _modulated_rates(state, target_ghz, offsets_v, curve)
    return float(np.add.reduce(rates * t_bin * sin))


def calibrate_lockin(state: EmitterState, target_ghz: float,
                     cfg: LockInConfig,
                     curve: TuningCurve | None = None) -> LockInCalibration:
    """Numeric calibration of the error-signal slope and zero offset.

    Evaluates the expected demodulated signal with the emitter placed on
    resonance and displaced by +-fwhm/100; the two-point derivative converts
    raw demodulated counts into a frequency error, exactly what a hardware
    lock-in calibration sweep would measure.
    """
    curve = curve if curve is not None else TuningCurve(state.emitter, state.device)
    fwhm_ghz = effective_linewidth(state.emitter, curve.shift(state.dc_voltage)) / MHZ_PER_GHZ
    h = fwhm_ghz / 100.0
    on_res = replace(state, drift_ghz=target_ghz - curve.shift(state.dc_voltage))
    zero = _expected_demod(on_res, target_ghz, cfg, curve)
    plus = _expected_demod(replace(on_res, drift_ghz=on_res.drift_ghz + h),
                           target_ghz, cfg, curve)
    minus = _expected_demod(replace(on_res, drift_ghz=on_res.drift_ghz - h),
                            target_ghz, cfg, curve)
    return LockInCalibration(sensitivity=(plus - minus) / (2.0 * h),
                             zero_offset=zero)


def lockin_error(state: EmitterState, target_ghz: float, cfg: LockInConfig,
                 rng: np.random.Generator | None = None,
                 curve: TuningCurve | None = None,
                 calibration: LockInCalibration | None = None) -> LockInResult:
    """One gate-modulated probe: demodulated signed frequency error in GHz.

    Photon counts are accumulated in phase bins of the bias modulation and
    correlated with sin(phase); after zero-offset subtraction the first
    harmonic is zero on resonance and odd in the detuning.  ``rng`` draws
    Poisson counts; None gives the noise-free expected-value estimate.  Zero
    total counts flags the result invalid (the caller holds the last
    voltage).
    """
    curve = curve if curve is not None else TuningCurve(state.emitter, state.device)
    sin, offsets_v, t_bin = _probe_table(cfg)
    expected = _modulated_rates(state, target_ghz, offsets_v, curve) * t_bin
    counts = expected if rng is None else rng.poisson(expected)
    total = float(np.add.reduce(counts))
    demod = float(np.add.reduce(counts * sin))
    if total <= 0.0:
        return LockInResult(error_ghz=0.0, raw_demod=0.0, total_counts=0.0, valid=False)
    if not cfg.slope_normalized:
        return LockInResult(error_ghz=demod, raw_demod=demod,
                            total_counts=total, valid=True)
    if calibration is None:
        calibration = calibrate_lockin(state, target_ghz, cfg, curve)
    if calibration.sensitivity == 0.0:
        return LockInResult(error_ghz=0.0, raw_demod=demod,
                            total_counts=total, valid=False)
    error = (demod - calibration.zero_offset) / calibration.sensitivity
    return LockInResult(error_ghz=error, raw_demod=demod,
                        total_counts=total, valid=True)


def cr_check(state: EmitterState, target_ghz: float, cfg: CRCheckConfig,
             rng: np.random.Generator,
             curve: TuningCurve | None = None,
             advance=None) -> CRCheckResult:
    """Photon-count heralding probe at the target frequency.

    Pass when the counts collected during ``probe_duration_s`` reach the
    threshold; otherwise retry up to ``max_attempts``, calling ``advance``
    (if given) between attempts so each retry sees the newly drifted state.
    """
    curve = curve if curve is not None else TuningCurve(state.emitter, state.device)
    counts = 0
    for attempt in range(1, cfg.max_attempts + 1):
        shift = curve.shift(state.dc_voltage)
        fwhm_ghz = effective_linewidth(state.emitter, shift) / MHZ_PER_GHZ
        line = shift + state.drift_ghz
        rate = (state.emitter.peak_rate * lorentzian_peak(target_ghz - line, fwhm_ghz)
                + state.emitter.background_rate)
        counts = int(rng.poisson(rate * cfg.probe_duration_s))
        if counts >= cfg.photon_threshold:
            return CRCheckResult(passed=True, attempts=attempt, counts=counts)
        if advance is not None and attempt < cfg.max_attempts:
            advance(cfg.probe_duration_s)
    return CRCheckResult(passed=False, attempts=cfg.max_attempts, counts=counts)


def pid_update(state: PIDState, voltage: float, error_ghz: float,
               cfg: PIDConfig, dt_s: float) -> float:
    """One discrete PID step; returns the new clamped DC voltage.

    The correction is applied as an increment to the held voltage.  The
    integral term is clamped to avoid windup and the derivative acts on the
    measurement so setpoint steps cause no derivative kick.
    """
    if not dt_s > 0.0:
        raise InputError("dt_s must be > 0")
    # min/max give np.clip's value bit for bit (NaN and signed zeros included)
    state.integral = float(min(max(state.integral + error_ghz * dt_s,
                                   -cfg.integral_limit), cfg.integral_limit))
    if state.last_measurement is None or cfg.kd == 0.0:
        derivative = 0.0
    else:
        derivative = (state.last_measurement - error_ghz) / dt_s
    state.last_measurement = error_ghz
    u = cfg.kp * error_ghz + cfg.ki * state.integral + cfg.kd * derivative
    return float(min(max(voltage + u, cfg.output_min), cfg.output_max))


@dataclass(frozen=True)
class StabilizationConfig:
    """Run plan of the stabilization experiment."""

    duration_s: float = 25200.0
    n_scans: int = 50
    scan_span_ghz: float = 8.0
    scan_points: int = 201
    scan_dwell_s: float = 0.005
    operating_voltage: float = 40.0
    target_ghz: float | None = None   # None: the shift at the operating voltage
    feedback: bool = True
    scan_shape: str = "voigt"

    def __post_init__(self):
        if not 0.0 < self.duration_s < math.inf:
            raise ConfigError("stabilization.duration must be finite and > 0")
        if self.n_scans < 1:
            raise ConfigError("stabilization.n_scans must be >= 1")
        if self.scan_points < 8:
            raise ConfigError("stabilization.scan_points must be >= 8")
        if not (0.0 < self.scan_span_ghz < math.inf and 0.0 < self.scan_dwell_s < math.inf):
            raise ConfigError("scan span and dwell must be finite and > 0")


@dataclass
class FeedbackLog:
    """Time series of one stabilization run.

    Per-frame arrays (one row per 5 Hz update) and per-scan arrays, plus the
    raw scan records for summed-histogram statistics.
    """

    update_time_s: np.ndarray
    dc_voltage_v: np.ndarray
    error_ghz: np.ndarray
    lockin_valid: np.ndarray
    cr_pass: np.ndarray
    scan_time_s: np.ndarray
    scan_center_ghz: np.ndarray
    scan_fwhm_mhz: np.ndarray
    scan_converged: np.ndarray
    scan_true_center_ghz: np.ndarray
    scans: list[ScanRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def run_stabilization(emitter: EmitterModel, device: DeviceModel,
                      drift: DriftProcess, lockin_cfg: LockInConfig,
                      pid_cfg: PIDConfig, cr_cfg: CRCheckConfig,
                      stab: StabilizationConfig, seed: int) -> FeedbackLog:
    """Run the gate-modulated, CR-checked stabilization loop.

    Each frame: step the drift, probe the lock-in error, run the CR check,
    and (feedback on, probe valid, CR passed) update the DC bias.  PLE scans
    are taken at ``n_scans`` evenly spaced epochs; with feedback they wait
    for the first CR-passing frame at or after the epoch, without feedback
    they run unconditionally at the epoch.  Deterministic given the seed.
    """
    curve = TuningCurve(emitter, device)
    dt = 1.0 / pid_cfg.update_rate_hz
    n_frames = int(round(stab.duration_s * pid_cfg.update_rate_hz))
    if n_frames < 1:
        raise ConfigError("duration shorter than one update frame")
    if emitter.peak_rate <= 0.0:
        raise ConfigError("emitter has zero peak rate; nothing to lock on")
    cal = device.calibration
    if not (0.0 <= pid_cfg.output_min < pid_cfg.output_max <= cal.v_max):
        raise ConfigError(
            f"PID output range [{pid_cfg.output_min}, {pid_cfg.output_max}] V must "
            f"sit inside the actuator range [0, {cal.v_max}] V")
    if not (pid_cfg.output_min <= stab.operating_voltage <= pid_cfg.output_max):
        raise ConfigError("operating_voltage outside the PID output range")
    if stab.operating_voltage + lockin_cfg.mod_amp_v > cal.v_max:
        raise ConfigError("bias modulation would exceed the actuator voltage limit")

    target = stab.target_ghz
    if target is None:
        target = float(curve.shift(stab.operating_voltage))
    else:
        v_grid = np.linspace(0.0, cal.v_max, 512)
        shifts = curve.shift(v_grid)
        if not (float(np.min(shifts)) - 1e-9 <= target <= float(np.max(shifts)) + 1e-9):
            raise ConfigError(
                f"target {target:.3f} GHz outside the tuning range "
                f"[{float(np.min(shifts)):.3f}, {float(np.max(shifts)):.3f}] GHz")

    ss = np.random.SeedSequence(seed)
    drift_rng, lockin_rng, cr_rng, scan_rng = (np.random.default_rng(c)
                                               for c in ss.spawn(4))
    drift = replace(drift)  # private copy; caller's state is untouched

    state = EmitterState(emitter=emitter, device=device,
                         dc_voltage=float(stab.operating_voltage),
                         drift_ghz=drift.state_ghz)
    calibration = None
    if stab.feedback:
        calibration = calibrate_lockin(state, target, lockin_cfg, curve)
        if abs(calibration.sensitivity) < 1e-12:
            raise ConfigError(
                "lock-in sensitivity vanishes at the operating point; "
                "increase the operating voltage or modulation amplitude")

    scan_epochs = stab.duration_s * (np.arange(1, stab.n_scans + 1) / stab.n_scans)
    half = 0.5 * stab.scan_span_ghz
    scan_grid = target + np.linspace(-half, half, stab.scan_points)

    t_arr = np.empty(n_frames)
    v_arr = np.empty(n_frames)
    e_arr = np.full(n_frames, np.nan)
    valid_arr = np.zeros(n_frames, dtype=bool)
    cr_arr = np.zeros(n_frames, dtype=bool)
    s_time, s_center, s_fwhm, s_conv, s_true = [], [], [], [], []
    scans: list[ScanRecord] = []
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
            check = cr_check(state, target, cr_cfg, cr_rng, curve=curve)
            frame_cr = check.passed
            # The CR check heralds the resonance condition for the scans;
            # the bias update itself runs every frame the probe saw photons.
            if probe.valid:
                state.dc_voltage = pid_update(pid_state, state.dc_voltage,
                                              probe.error_ghz, pid_cfg, dt)
            e_arr[i] = probe.error_ghz if probe.valid else np.nan
            valid_arr[i] = probe.valid
        t_arr[i] = t
        v_arr[i] = state.dc_voltage
        cr_arr[i] = frame_cr

        if next_scan < stab.n_scans and t >= scan_epochs[next_scan] - 0.5 * dt:
            if stab.feedback and not frame_cr:
                continue  # wait for the next CR-passing frame
            shift_now = float(curve.shift(state.dc_voltage))
            fwhm_now = effective_linewidth(emitter, shift_now)
            scan = sample_scan(emitter, scan_grid, shift_now, fwhm_now,
                               stab.scan_dwell_s, state.dc_voltage,
                               rng=scan_rng, extra_offset_ghz=state.drift_ghz)
            fit = fit_line(scan, stab.scan_shape)
            s_time.append(t)
            s_center.append(fit.center)
            s_fwhm.append(fit.fwhm)
            s_conv.append(fit.converged)
            s_true.append(shift_now + state.drift_ghz)
            scans.append(scan)
            next_scan += 1

    meta = {
        "seed": seed,
        "feedback": stab.feedback,
        "target_ghz": target,
        "emitter": emitter.name,
        "duration_s": stab.duration_s,
        "update_rate_hz": pid_cfg.update_rate_hz,
        "n_scans_requested": stab.n_scans,
        "n_scans_taken": len(scans),
    }
    return FeedbackLog(
        update_time_s=t_arr, dc_voltage_v=v_arr, error_ghz=e_arr,
        lockin_valid=valid_arr, cr_pass=cr_arr,
        scan_time_s=np.asarray(s_time), scan_center_ghz=np.asarray(s_center),
        scan_fwhm_mhz=np.asarray(s_fwhm),
        scan_converged=np.asarray(s_conv, dtype=bool),
        scan_true_center_ghz=np.asarray(s_true),
        scans=scans, meta=meta,
    )


def summarize_log(log: FeedbackLog) -> dict:
    """Stability statistics of a run: center spread and linewidth measures."""
    ok = log.scan_converged
    centers = log.scan_center_ghz[ok]
    fwhms = log.scan_fwhm_mhz[ok]
    summary = {
        "n_scans": int(log.scan_center_ghz.size),
        "n_converged": int(np.count_nonzero(ok)),
        "center_std_ghz": float(np.std(centers, ddof=1)) if centers.size > 1 else 0.0,
        "center_mean_ghz": float(np.mean(centers)) if centers.size else float("nan"),
        "fwhm_mean_mhz": float(np.mean(fwhms)) if fwhms.size else float("nan"),
        "cr_pass_rate": float(np.mean(log.cr_pass)) if log.cr_pass.size else 0.0,
    }
    summed = summed_scan(log)
    if summed is not None:
        try:
            fit = fit_line(summed, "voigt")
            summary["fwhm_summed_mhz"] = float(fit.fwhm) if fit.converged else float("nan")
        except InputError:
            summary["fwhm_summed_mhz"] = float("nan")
    return summary


def summed_scan(log: FeedbackLog) -> ScanRecord | None:
    """Sum the counts of all scans on the shared detuning grid."""
    if not log.scans:
        return None
    first = log.scans[0]
    total = np.zeros_like(np.asarray(first.counts, dtype=np.int64))
    for scan in log.scans:
        total = total + np.asarray(scan.counts, dtype=np.int64)
    return ScanRecord(detunings=first.detunings, counts=total,
                      dwell_s=first.dwell_s * len(log.scans),
                      bias_v=first.bias_v, emitter=first.emitter)
