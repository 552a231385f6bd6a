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

import math
from dataclasses import dataclass, field

import numpy as np

from .actuator import DeviceModel
from .emitters import EmitterModel, TuningCurve
from .errors import ConfigError, InputError
from .spectroscopy import (_POISSON_LAM_MAX, MHZ_PER_GHZ, ScanRecord, count_rate,
                           effective_linewidth, fit_line, sample_scan)


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
        decay, noise_std, jump_mean, jump_std = self._step_terms(dt_s)
        x = self.state_ghz * decay
        if noise_std is not None:
            x += rng.normal(0.0, noise_std)
        if jump_mean is not None:
            n_jumps = rng.poisson(jump_mean)
            if n_jumps:
                x += float(np.sum(rng.normal(0.0, jump_std, n_jumps)))
        self.state_ghz = float(x)
        return self.state_ghz

    def _step_terms(self, dt_s: float) -> tuple:
        """Constants of one step of ``dt_s``: OU decay, OU noise std (None
        without OU noise), mean jump count and jump std (None without jumps)."""
        decay = math.exp(-dt_s / self.ou_tau_s)
        noise_std = (self.ou_sigma_ghz * math.sqrt(1.0 - decay * decay)
                     if self.ou_sigma_ghz > 0.0 else None)
        jumps = self.jump_rate_hz > 0.0 and self.jump_sigma_ghz > 0.0
        return (decay, noise_std, self.jump_rate_hz * dt_s if jumps else None,
                self.jump_sigma_ghz)


@dataclass(frozen=True)
class LockInConfig:
    """Gate-modulation probe settings."""

    mod_amp_v: float = 0.16
    periods_per_probe: int = 2
    bins_per_period: int = 16
    probe_duration_s: float = 0.1

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
    """Discrete PID gains (volts per GHz) and output limits (volts).

    The gains are those of a line that moves down as the bias rises, as
    the axial emitters' does; :func:`run_stabilization` negates all three
    where the line moves up (d shift / dV > 0 at the operating voltage).
    """

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


def _phase_groups(b: int, n: int) -> list[list[int]]:
    """Bins 0..n-1 of a probe grouped by modulation phase 2*pi*(k + 1/2)/b,
    in order of first bin: bins k and k' share sin(phase) when k = k' (mod b)
    and, for even b, when k' = b/2 - 1 - k (mod b), as sin(pi - x) = sin(x)."""
    groups: dict[int, list[int]] = {}
    for k in range(n):
        j = k % b
        if b % 2 == 0:
            j = min(j, (b // 2 - 1 - j) % b)
        groups.setdefault(j, []).append(k)
    return list(groups.values())


class _LockIn:
    """The gate-modulated probe of one emitter, one draw per phase group.

    Bias and drift are constant within a probe, so the m bins of a
    :func:`_phase_groups` group expect equal counts and their sum is one
    Poisson draw over m bin times.  ``groups`` holds (bias offset in V, sin
    weight, span in s) per group as Python floats.
    """

    __slots__ = ("groups", "_constants", "_emitter", "_peak", "_background")

    def __init__(self, emitter: EmitterModel, curve: TuningCurve,
                 cfg: LockInConfig):
        b = cfg.bins_per_period
        n = cfg.periods_per_probe * b
        self.groups = []
        for bins in _phase_groups(b, n):
            sin = math.sin(2.0 * math.pi * (bins[0] + 0.5) / b)
            self.groups.append((cfg.mod_amp_v * sin, sin,
                                len(bins) * (cfg.probe_duration_s / n)))
        self._constants = curve.constants
        self._emitter = emitter
        self._peak = float(emitter.peak_rate)
        self._background = float(emitter.background_rate)

    def probe(self, dc_voltage: float, drift_ghz: float, target_ghz: float,
              poisson=None) -> tuple[float, float, float]:
        """Total counts, first-harmonic (sin-weighted) sum and the CR count
        rate at the DC bias of one probe, for a Python float bias.

        The line at the DC bias, then at each group's bias, is
        :meth:`TuningCurve.shifts`'s closed form on the curve's
        ``constants``, evaluated where its rate is needed; the linewidth is
        the one at the DC bias.  ``poisson`` (a generator's) draws each
        group's counts in group order; None sums the expected counts.
        """
        k, da1g, c_g, c_u, lam_g, lam_u, lam_g2, lam_u2 = self._constants
        sqrt = math.sqrt
        peak, background = self._peak, self._background
        # TuningCurve.shifts at the DC bias, and count_rate(peak, background,
        # target - line, fwhm) in floats: the operations numpy applies to a
        # scalar (``** 2`` is libm ``pow`` in both), so the same value
        s = k * (dc_voltage * dc_voltage)
        s2 = s * s
        shift = (s * da1g - 0.5 * (sqrt(lam_u2 + c_u * s2) - lam_u)
                 + 0.5 * (sqrt(lam_g2 + c_g * s2) - lam_g))
        fwhm_ghz = effective_linewidth(self._emitter, shift) / MHZ_PER_GHZ
        y = 2.0 * (target_ghz - (shift + drift_ghz)) / fwhm_ghz
        try:
            y2 = y ** 2
        except OverflowError:  # numpy returns inf here
            y2 = math.inf
        cr_rate = peak * (1.0 / (1.0 + y2)) + background
        total = demod = 0.0
        for offset_v, sin, span_s in self.groups:
            # the same line and rate at the group's bias
            v = dc_voltage + offset_v
            s = k * (v * v)
            s2 = s * s
            shift = (s * da1g - 0.5 * (sqrt(lam_u2 + c_u * s2) - lam_u)
                     + 0.5 * (sqrt(lam_g2 + c_g * s2) - lam_g))
            y = 2.0 * (target_ghz - (shift + drift_ghz)) / fwhm_ghz
            try:
                y2 = y ** 2
            except OverflowError:
                y2 = math.inf
            mean = span_s * (peak * (1.0 / (1.0 + y2)) + background)
            counts = mean if poisson is None else poisson(mean)
            total += counts
            demod += sin * counts
        return total, demod, cr_rate


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

    def error(self, demod: float) -> float:
        """Signed frequency error in GHz of a demodulated signal."""
        return (demod - self.zero_offset) / self.sensitivity


def calibrate_lockin(state: EmitterState, target_ghz: float,
                     cfg: LockInConfig, curve: TuningCurve) -> LockInCalibration:
    """Numeric calibration of the error-signal slope and zero offset.

    Evaluates the expected demodulated signal with the emitter placed on
    resonance and displaced by +-fwhm/100; the two-point derivative converts
    raw demodulated counts into a frequency error, exactly what a hardware
    lock-in calibration sweep would measure.
    """
    probe, dc = _LockIn(state.emitter, curve, cfg).probe, float(state.dc_voltage)
    shift = curve.shift(dc)
    h = effective_linewidth(state.emitter, shift) / MHZ_PER_GHZ / 100.0
    on_res = target_ghz - shift

    def demod(drift_ghz):
        return probe(dc, drift_ghz, target_ghz)[1]

    zero, plus, minus = demod(on_res), demod(on_res + h), demod(on_res - h)
    return LockInCalibration(sensitivity=(plus - minus) / (2.0 * h),
                             zero_offset=zero)


def lockin_error(state: EmitterState, target_ghz: float, cfg: LockInConfig,
                 rng: np.random.Generator | None = None, *,
                 curve: TuningCurve,
                 calibration: LockInCalibration) -> LockInResult:
    """One gate-modulated probe: demodulated signed frequency error in GHz.

    Photon counts are accumulated in phase bins of the bias modulation and
    correlated with sin(phase); after zero-offset subtraction the first
    harmonic is zero on resonance and odd in the detuning.  ``rng`` draws
    Poisson counts, one per group of bins that share a phase; None gives the
    noise-free expected-value estimate.  Zero total counts flags the result
    invalid (the caller holds the last voltage).
    """
    total, demod, _ = _LockIn(state.emitter, curve, cfg).probe(
        float(state.dc_voltage), state.drift_ghz, target_ghz,
        None if rng is None else rng.poisson)
    if total <= 0.0 or calibration.sensitivity == 0.0:
        return LockInResult(error_ghz=0.0, valid=False)
    return LockInResult(error_ghz=calibration.error(demod), valid=True)


def cr_check(state: EmitterState, target_ghz: float, cfg: CRCheckConfig,
             rng: np.random.Generator, curve: TuningCurve) -> CRCheckResult:
    """Photon-count heralding probe at the target frequency.

    Pass when the counts collected during ``probe_duration_s`` reach the
    threshold; otherwise probe the same state again, up to ``max_attempts``
    times in all.
    """
    emitter, shift = state.emitter, curve.shift(state.dc_voltage)
    rate = count_rate(emitter.peak_rate, emitter.background_rate,
                      target_ghz - (shift + state.drift_ghz),
                      effective_linewidth(emitter, shift) / MHZ_PER_GHZ)
    mean = rate * cfg.probe_duration_s
    counts = 0
    for attempt in range(1, cfg.max_attempts + 1):
        counts = int(rng.poisson(mean))
        if counts >= cfg.photon_threshold:
            return CRCheckResult(True, attempt, counts)
    return CRCheckResult(False, cfg.max_attempts, counts)


def pid_update(state: PIDState, voltage: float, error_ghz: float,
               cfg: PIDConfig, dt_s: float) -> float:
    """One discrete PID step; returns the new clamped DC voltage.

    The correction is applied as an increment to the held voltage.  The
    integral term is clamped to avoid windup and the derivative acts on the
    measurement so setpoint steps cause no derivative kick.
    """
    if not dt_s > 0.0:
        raise InputError("dt_s must be > 0")
    if not math.isfinite(error_ghz):
        raise InputError(f"error_ghz must be finite, got {error_ghz}")
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
    and (feedback on, probe saw photons) update the DC bias.  PLE scans are
    taken at ``n_scans`` evenly spaced epochs; with feedback they wait for
    the first CR-passing frame at or after the epoch, without feedback they
    run unconditionally at the epoch.  A scan whose fit finds no line above
    the background is recorded unconverged, with NaN center and width.
    Deterministic given the seed.

    The frame loop makes the draws and float operations of
    :meth:`DriftProcess.step`, :func:`lockin_error`, :func:`cr_check` and
    :func:`pid_update` in their order, with every per-run constant built
    before the loop.  One frame makes one lock-in probe call, which
    evaluates the line at the DC bias and then each phase group's line in
    the loop that draws that group's counts, and gives the CR check's count
    rate too.  The drift, CR, calibration and PID steps run on locals; the
    OU noise is drawn as ``0.0 + std * standard_normal()``, the expression
    ``normal(0.0, std)`` evaluates, and the PID clamps are conditional
    expressions that pick what ``min`` and ``max`` pick.  The PID gains
    take the sign of -d shift / dV at the operating voltage
    (:meth:`TuningCurve.slope`), so the loop pulls a line that tunes up
    with the bias back as it does one that tunes down; the logged error
    keeps its sign.  A drift jump rate whose mean jump count
    per frame is above the Poisson sampler's limit is a ``ConfigError``.
    """
    curve = TuningCurve(emitter, device)
    dt = 1.0 / pid_cfg.update_rate_hz
    n_frames = int(round(stab.duration_s * pid_cfg.update_rate_hz))
    if n_frames < 1:
        raise ConfigError("duration shorter than one update frame")
    if stab.n_scans > n_frames:  # a frame takes at most one scan
        raise ConfigError(f"{stab.n_scans} scans need at least as many update "
                          f"frames; the run has {n_frames}")
    if emitter.peak_rate <= 0.0:
        raise ConfigError("emitter has zero peak rate; nothing to lock on")
    cal = device.calibration
    if not (0.0 <= pid_cfg.output_min < pid_cfg.output_max <= cal.v_max):
        raise ConfigError(
            f"PID output range [{pid_cfg.output_min}, {pid_cfg.output_max}] V must "
            f"sit inside the actuator range [0, {cal.v_max}] V")
    if not (pid_cfg.output_min <= stab.operating_voltage <= pid_cfg.output_max):
        raise ConfigError("operating_voltage outside the PID output range")
    # the PID may drive the bias anywhere up to output_max
    if pid_cfg.output_max + lockin_cfg.mod_amp_v > cal.v_max:
        raise ConfigError("bias modulation would exceed the actuator voltage limit")
    decay, noise_std, jump_mean, jump_std = drift._step_terms(dt)
    if jump_mean is not None and not jump_mean <= _POISSON_LAM_MAX:
        raise ConfigError(f"drift jump rate {drift.jump_rate_hz:.3g} 1/s gives a mean "
                          f"jump count per frame above the Poisson sampler's limit "
                          f"of {_POISSON_LAM_MAX:.3g}")

    target = curve.shift(stab.operating_voltage)

    ss = np.random.SeedSequence(seed)
    drift_rng, lockin_rng, cr_rng, scan_rng = (np.random.default_rng(c)
                                               for c in ss.spawn(4))

    feedback = stab.feedback
    dc = float(stab.operating_voltage)
    x = float(drift.state_ghz)  # drift offset; the caller's process is untouched
    if feedback:
        lockin = _LockIn(emitter, curve, lockin_cfg)
        # the line's peak rate over its longest draw: a lock-in group or a CR probe
        probe_s = max(cr_cfg.probe_duration_s, *(span for *_, span in lockin.groups))
        if not (emitter.peak_rate + emitter.background_rate) * probe_s <= _POISSON_LAM_MAX:
            raise ConfigError(f"emitter {emitter.name!r}: count rates give probe counts "
                              f"above the Poisson sampler's limit of {_POISSON_LAM_MAX:.3g}")
        calibration = calibrate_lockin(EmitterState(emitter, device, dc, x),
                                       target, lockin_cfg, curve)
        if abs(calibration.sensitivity) < 1e-12:
            raise ConfigError(
                "lock-in sensitivity vanishes at the operating point; "
                "increase the operating voltage or modulation amplitude")
        probe, poisson = lockin.probe, lockin_rng.poisson
        zero_offset, sensitivity = calibration.zero_offset, calibration.sensitivity
        cr_poisson, cr_s = cr_rng.poisson, cr_cfg.probe_duration_s
        threshold, attempts = cr_cfg.photon_threshold, range(cr_cfg.max_attempts)
        kp, ki, kd = pid_cfg.kp, pid_cfg.ki, pid_cfg.kd
        if curve.slope(stab.operating_voltage) > 0.0:
            # the error is the line's offset, and u volts move the line by
            # u * dshift/dV: only gains of the sign of -dshift/dV pull it back
            kp, ki, kd = -kp, -ki, -kd
        limit, out_min, out_max = (float(pid_cfg.integral_limit), float(pid_cfg.output_min),
                                   float(pid_cfg.output_max))
        neg_limit, isfinite = -limit, math.isfinite
        integral, last_error = 0.0, None  # pid_update's PIDState
    normal, jump_count = drift_rng.normal, drift_rng.poisson
    standard_normal = drift_rng.standard_normal

    t_arr = np.arange(1, n_frames + 1) * dt
    epochs = stab.duration_s * (np.arange(1, stab.n_scans + 1) / stab.n_scans)
    # first frame at or after each epoch (within half a frame), then a
    # sentinel no frame reaches
    scan_due = np.searchsorted(t_arr, epochs - 0.5 * dt).tolist() + [n_frames]
    half = 0.5 * stab.scan_span_ghz
    scan_grid = target + np.linspace(-half, half, stab.scan_points)

    v_arr = np.full(n_frames, dc)
    e_arr = np.full(n_frames, np.nan)
    cr_arr = np.zeros(n_frames, dtype=bool)
    s_time, s_center, s_fwhm, s_conv, s_true = [], [], [], [], []
    scans: list[ScanRecord] = []
    next_scan, due = 0, scan_due[0]

    for i in range(n_frames):
        # DriftProcess.step
        x = x * decay
        if noise_std is not None:
            # normal(0.0, noise_std) computes 0.0 + noise_std * z: the same bits
            x += 0.0 + noise_std * standard_normal()
        if jump_mean is not None:
            n_jumps = jump_count(jump_mean)
            if n_jumps:
                x += float(np.sum(normal(0.0, jump_std, n_jumps)))
        passed = False
        if feedback:
            total, demod, cr_rate = probe(dc, x, target, poisson)
            # cr_check
            mean = cr_rate * cr_s
            for _ in attempts:
                if cr_poisson(mean) >= threshold:
                    passed = True
                    break
            # The CR check heralds the resonance condition for the scans;
            # the bias update itself runs every frame the probe saw photons.
            if total > 0.0:
                error = (demod - zero_offset) / sensitivity  # calibration.error
                # pid_update
                if not isfinite(error):
                    raise InputError(f"error_ghz must be finite, got {error}")
                # min(max(v, lo), hi) for lo <= hi as conditionals: max keeps
                # v unless lo > v, min keeps that unless hi < it
                integral += error * dt
                integral = (neg_limit if neg_limit > integral
                            else limit if limit < integral else integral)
                derivative = (0.0 if last_error is None or kd == 0.0
                              else (last_error - error) / dt)
                last_error = error
                u = kp * error + ki * integral + kd * derivative
                dc += u
                dc = out_min if out_min > dc else out_max if out_max < dc else dc
                e_arr[i] = error
            v_arr[i] = dc
            cr_arr[i] = passed

        if i >= due:
            if feedback and not passed:
                continue  # wait for the next CR-passing frame
            shift_now = curve.shift(dc)
            line_now = shift_now + x
            scan = sample_scan(emitter, scan_grid, line_now,
                               effective_linewidth(emitter, shift_now),
                               stab.scan_dwell_s, dc, rng=scan_rng)
            try:
                fit = fit_line(scan, stab.scan_shape)
                center, fwhm, converged = fit.center, fit.fwhm, fit.converged
            except InputError:  # no line above the background
                center, fwhm, converged = math.nan, math.nan, False
            s_time.append((i + 1) * dt)
            s_center.append(center)
            s_fwhm.append(fwhm)
            s_conv.append(converged)
            s_true.append(line_now)
            scans.append(scan)
            next_scan += 1
            due = scan_due[next_scan]

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
        # pid_update accepts only a finite error, and an invalid probe's is NaN
        lockin_valid=~np.isnan(e_arr), cr_pass=cr_arr,
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
        "center_std_ghz": (float(np.std(centers, ddof=1)) if centers.size > 1
                           else float("nan")),
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
