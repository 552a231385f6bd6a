import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

import snvtune as st
from snvtune.control import (CRCheckConfig, DriftProcess, EmitterState,
                             LockInConfig, PIDConfig, PIDState, _LockIn,
                             _phase_groups, calibrate_lockin, cr_check,
                             lockin_error, pid_update, summarize_log,
                             summed_scan)
from snvtune.emitters import TuningCurve, shift_from_voltage_chain
from snvtune.spectroscopy import count_rate, effective_linewidth

from oracles import (fisher_center_sigma, ou_jump_mc_std,
                     reference_stabilization, trapezoid)


class TestDriftProcess:
    def test_noiseless_exponential_decay(self, rng):
        p = DriftProcess(ou_tau_s=10.0, ou_sigma_ghz=0.0, jump_rate_hz=0.0,
                         jump_sigma_ghz=0.0, state_ghz=2.0)
        for k in range(1, 6):
            p.step(1.0, rng)
            assert p.state_ghz == pytest.approx(2.0 * math.exp(-k / 10.0), rel=1e-12)

    def test_stationary_std_formula(self):
        p = DriftProcess(ou_tau_s=5.0, ou_sigma_ghz=0.8, jump_rate_hz=0.5,
                         jump_sigma_ghz=0.4)
        expected = math.sqrt(0.8 ** 2 + 0.5 * 0.4 ** 2 * 5.0 / 2.0)
        assert p.stationary_std_ghz == pytest.approx(expected, rel=1e-12)

    def test_stationary_std_against_monte_carlo_oracle(self):
        p = DriftProcess(ou_tau_s=5.0, ou_sigma_ghz=0.8, jump_rate_hz=0.5,
                         jump_sigma_ghz=0.4)
        mc = ou_jump_mc_std(5.0, 0.8, 0.5, 0.4, dt_s=0.05, n_steps=1_000_000,
                            seed=42)
        assert p.stationary_std_ghz == pytest.approx(mc, rel=0.05)

    def test_long_run_std_of_process_matches_formula(self):
        p = DriftProcess(ou_tau_s=5.0, ou_sigma_ghz=0.8, jump_rate_hz=0.5,
                         jump_sigma_ghz=0.4)
        rng = np.random.default_rng(8)
        samples = np.empty(200_000)
        for i in range(samples.size):
            samples[i] = p.step(0.05, rng)
        burn = 2000
        assert np.std(samples[burn:]) == pytest.approx(p.stationary_std_ghz,
                                                       rel=0.05)

    def test_deterministic_given_seed(self):
        a = DriftProcess()
        b = DriftProcess()
        ra, rb = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(100):
            a.step(0.2, ra)
            b.step(0.2, rb)
        assert a.state_ghz == b.state_ghz

    def test_parameter_validation(self):
        with pytest.raises(st.InputError):
            DriftProcess(ou_tau_s=0.0)
        with pytest.raises(st.InputError):
            DriftProcess(ou_sigma_ghz=-1.0)


@pytest.fixture(scope="module")
def lock_setup(request):
    cfg = st.load_default_config()
    emitter = cfg.emitter("axial_hinge")
    device = cfg.device
    curve = TuningCurve(emitter, device)
    v_op = 40.0
    target = float(curve.shift(v_op))
    state = EmitterState(emitter=emitter, device=device, dc_voltage=v_op,
                         drift_ghz=0.0)
    cal = calibrate_lockin(state, target, cfg.control.lockin, curve)
    return cfg, emitter, device, curve, v_op, target, state, cal


class TestLockInError:
    def test_zero_on_resonance_expected_value(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        probe = lockin_error(replace(state), target, cfg.control.lockin,
                             curve=curve, calibration=cal)
        assert probe.valid
        assert abs(probe.error_ghz) <= 1e-8 * fwhm_ghz

    def test_odd_in_detuning(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        for frac in (0.1, 0.25, 0.5, 1.0):
            delta = frac * fwhm_ghz
            plus = lockin_error(replace(state, drift_ghz=delta), target,
                                cfg.control.lockin, curve=curve, calibration=cal)
            minus = lockin_error(replace(state, drift_ghz=-delta), target,
                                 cfg.control.lockin, curve=curve, calibration=cal)
            assert plus.error_ghz == pytest.approx(
                -minus.error_ghz, rel=0.02, abs=1e-4 * fwhm_ghz)

    @given(name=hyp.sampled_from(["axial_hinge", "axial_mid", "transversal_hinge"]),
           v_op=hyp.floats(10.0, 75.0), frac=hyp.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_odd_and_zero_at_resonance_over_operating_points(self, config, device,
                                                             name, v_op, frac):
        lk = config.control.lockin
        emitter = config.emitter(name)
        curve = TuningCurve(emitter, device)
        target = curve.shift(v_op)
        state = EmitterState(emitter, device, v_op, 0.0)
        cal = calibrate_lockin(state, target, lk, curve)
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0

        def error(delta):
            return lockin_error(replace(state, drift_ghz=delta), target, lk,
                                rng=None, curve=curve, calibration=cal).error_ghz

        assert abs(error(0.0)) <= 1e-8 * fwhm_ghz
        # the quadratic voltage-to-frequency map makes the response slightly
        # asymmetric: up to 4.3% at 10 V and one FWHM on the shipped emitters
        delta = frac * fwhm_ghz
        assert error(delta) == pytest.approx(-error(-delta), rel=0.05,
                                             abs=1e-4 * fwhm_ghz)

    def test_linear_range_against_numeric_integration_oracle(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        lk = cfg.control.lockin
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0

        # oracle: fine-grid first harmonic of the modulated line, built on the
        # slow voltage chain rather than the factored tuning curve
        phi = np.linspace(0.0, 2.0 * np.pi, 4001)
        volts = v_op + lk.mod_amp_v * np.sin(phi)
        chain_shift = np.array([shift_from_voltage_chain(emitter, device, v)
                                for v in volts])

        def first_harmonic(delta):
            line = chain_shift + delta
            rates = (emitter.peak_rate
                     / (1.0 + (2.0 * (target - line) / fwhm_ghz) ** 2)
                     + emitter.background_rate)
            return float(trapezoid(rates * np.sin(phi), phi) / np.pi)

        h = fwhm_ghz / 100.0
        k_oracle = (first_harmonic(h) - first_harmonic(-h)) / (2.0 * h)
        zero_oracle = first_harmonic(0.0)

        for frac in (1.0 / 16.0, 1.0 / 8.0, 3.0 / 16.0, 0.25, -0.25):
            delta = frac * fwhm_ghz
            probe = lockin_error(replace(state, drift_ghz=delta), target, lk,
                                 curve=curve, calibration=cal)
            oracle_est = (first_harmonic(delta) - zero_oracle) / k_oracle
            assert probe.error_ghz == pytest.approx(oracle_est, rel=1e-3)
            assert abs(probe.error_ghz - delta) <= 0.2 * abs(delta)

    def test_saturates_far_from_resonance(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        near = lockin_error(replace(state, drift_ghz=0.4 * fwhm_ghz), target,
                            cfg.control.lockin, curve=curve, calibration=cal)
        for mult in (3.0, 6.0, 12.0):
            far = lockin_error(replace(state, drift_ghz=mult * fwhm_ghz), target,
                               cfg.control.lockin, curve=curve, calibration=cal)
            assert abs(far.error_ghz) < abs(near.error_ghz)
            assert abs(far.error_ghz) < fwhm_ghz

    def test_zero_counts_flagged_invalid(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        dark = replace(emitter, peak_rate=0.0, background_rate=0.0)
        probe = lockin_error(EmitterState(dark, device, v_op, 0.0), target,
                             cfg.control.lockin,
                             rng=np.random.default_rng(0), curve=curve,
                             calibration=cal)
        assert not probe.valid

    def test_sampled_estimate_unbiased(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        delta = fwhm_ghz / 8.0
        rng = np.random.default_rng(21)
        ests = [lockin_error(replace(state, drift_ghz=delta), target,
                             cfg.control.lockin, rng=rng, curve=curve,
                             calibration=cal).error_ghz
                for _ in range(400)]
        expected = lockin_error(replace(state, drift_ghz=delta), target,
                                cfg.control.lockin, curve=curve,
                                calibration=cal).error_ghz
        stderr = np.std(ests, ddof=1) / np.sqrt(len(ests))
        assert np.mean(ests) == pytest.approx(expected, abs=4.0 * stderr)


class TestPhaseGroups:
    """The lock-in probe draws one Poisson count per group of bins that share
    a modulation phase; these tests hold it to the per-bin probe it replaces."""

    @staticmethod
    def per_bin(emitter, curve, lk, v_op, drift, target, fwhm_ghz):
        """sin weight and expected counts of every bin, through the array path
        of ``TuningCurve.shift`` and ``count_rate``."""
        n = lk.periods_per_probe * lk.bins_per_period
        sin = np.sin(2.0 * np.pi * (np.arange(n) + 0.5) / lk.bins_per_period)
        line = curve.shift(v_op + lk.mod_amp_v * sin) + drift
        lam = count_rate(emitter.peak_rate, emitter.background_rate,
                         target - line, fwhm_ghz) * (lk.probe_duration_s / n)
        return sin, lam

    @given(name=hyp.sampled_from(["axial_hinge", "axial_mid", "transversal_hinge"]),
           bins=hyp.integers(4, 24), periods=hyp.integers(1, 3),
           amp=hyp.floats(0.01, 1.0), v_op=hyp.floats(10.0, 75.0),
           drift=hyp.floats(-1.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_groups_match_the_per_bin_probe(self, config, device, name, bins,
                                            periods, amp, v_op, drift):
        emitter = config.emitter(name)
        curve = TuningCurve(emitter, device)
        lk = replace(config.control.lockin, bins_per_period=bins,
                     periods_per_probe=periods, mod_amp_v=amp)
        n = bins * periods
        members = _phase_groups(bins, n)
        assert sorted(k for group in members for k in group) == list(range(n))
        lockin = _LockIn(emitter, curve, lk)
        assert len(lockin.groups) == len(members)
        for group, (offset_v, sin, span_s) in zip(members, lockin.groups):
            # a bin's phase within its modulation period
            phase = 2.0 * np.pi * (np.asarray(group) % bins + 0.5) / bins
            assert np.all(np.abs(np.sin(phase) - sin) <= 1e-15)
            assert offset_v == amp * sin
            assert span_s == pytest.approx(len(group) * lk.probe_duration_s / n,
                                           rel=1e-15)
        target = curve.shift(v_op)
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        sin, lam = self.per_bin(emitter, curve, lk, v_op, drift, target, fwhm_ghz)
        total, demod = lockin.probe(v_op, drift, target, fwhm_ghz)
        assert total == pytest.approx(np.sum(lam), rel=1e-12)
        # the demodulated sum cancels to near zero on resonance: compare on
        # the scale of its terms
        assert abs(demod - np.sum(sin * lam)) <= 1e-12 * np.sum(np.abs(sin * lam))

    def test_draws_match_per_bin_poisson_moments(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        lk = cfg.control.lockin
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        drift = fwhm_ghz / 4.0
        probe = _LockIn(emitter, curve, lk).probe
        rng = np.random.default_rng(2024)
        n_probes = 20_000
        draws = np.array([probe(v_op, drift, target, fwhm_ghz, rng.poisson)
                          for _ in range(n_probes)])
        sin, lam = self.per_bin(emitter, curve, lk, v_op, drift, target, fwhm_ghz)
        # a weighted sum of independent Poisson counts: mean sum(w*lam),
        # variance sum(w^2*lam), fourth cumulant sum(w^4*lam)
        for col, w in ((draws[:, 0], 1.0), (draws[:, 1], sin)):
            mean, var = np.sum(w * lam), np.sum(w ** 2 * lam)
            kappa4 = np.sum(w ** 4 * lam)
            assert abs(np.mean(col) - mean) <= 4.0 * math.sqrt(var / n_probes)
            assert abs(np.var(col, ddof=1) - var) <= 4.0 * math.sqrt(
                (2.0 * var ** 2 + kappa4) / n_probes)


class TestCRCheck:
    def test_on_resonance_pass_probability(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        rng = np.random.default_rng(17)
        passes = sum(
            cr_check(replace(state), target, cfg.control.cr_check, rng,
                     curve=curve).passed
            for _ in range(1000))
        assert passes / 1000 > 0.99

    def test_dark_emitter_always_fails(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        dark = replace(emitter, peak_rate=0.0, background_rate=0.0)
        check = cr_check(EmitterState(dark, device, v_op, 0.0), target,
                         replace(cfg.control.cr_check, max_attempts=3),
                         np.random.default_rng(1), curve)
        assert not check.passed
        assert check.attempts == 3

    def test_pass_probability_monotone_in_detuning(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        rng = np.random.default_rng(33)
        rates = []
        for mult in (0.0, 0.3, 0.6, 0.9, 1.3, 2.0):
            hits = sum(
                cr_check(replace(state, drift_ghz=mult * fwhm_ghz), target,
                         cfg.control.cr_check, rng, curve=curve).passed
                for _ in range(300))
            rates.append(hits / 300)
        for lo, hi in zip(rates[1:], rates[:-1]):
            assert lo <= hi + 0.05  # Monte-Carlo slack
        assert rates[0] > 0.99 and rates[-1] < 0.01

    def test_retries_reprobe_the_same_state(self, lock_setup):
        # oracle: max_attempts=3 is three single probes of the unchanged
        # state drawn from one rng stream, stopping at the first pass
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        fwhm_ghz = effective_linewidth(emitter, target) / 1000.0
        # a single probe passes about a third of the time at this detuning
        probe = replace(state, drift_ghz=0.8 * fwhm_ghz)
        single = replace(cfg.control.cr_check, max_attempts=1)
        triple = replace(cfg.control.cr_check, max_attempts=3)
        seen = set()
        for seed in range(200):
            check = cr_check(probe, target, triple, np.random.default_rng(seed),
                             curve)
            rng = np.random.default_rng(seed)
            singles = [cr_check(probe, target, single, rng, curve)
                       for _ in range(3)]
            first = next((i for i, s in enumerate(singles) if s.passed), 2)
            assert check.passed == singles[first].passed
            assert check.attempts == first + 1
            assert check.counts == singles[first].counts
            seen.add(check.attempts if check.passed else 0)
        assert seen == {0, 1, 2, 3}
        assert probe == replace(state, drift_ghz=0.8 * fwhm_ghz)

    def test_probes_require_curve_and_calibration(self, lock_setup):
        cfg, emitter, device, curve, v_op, target, state, cal = lock_setup
        with pytest.raises(TypeError):
            calibrate_lockin(state, target, cfg.control.lockin)
        with pytest.raises(TypeError):
            lockin_error(state, target, cfg.control.lockin, calibration=cal)
        with pytest.raises(TypeError):
            lockin_error(state, target, cfg.control.lockin, curve=curve)
        with pytest.raises(TypeError):
            cr_check(state, target, cfg.control.cr_check,
                     np.random.default_rng(0))


class TestPIDUpdate:
    def test_zero_error_zero_history_holds_voltage(self):
        state = PIDState()
        cfg = PIDConfig()
        assert pid_update(state, 40.0, 0.0, cfg, 0.2) == 40.0

    def test_p_only_step_per_update(self):
        cfg = PIDConfig(kp=0.8, ki=0.0, kd=0.0)
        state = PIDState()
        v = 40.0
        for _ in range(3):
            v_new = pid_update(state, v, 0.5, cfg, 0.2)
            assert v_new == pytest.approx(v + 0.8 * 0.5, rel=1e-12)
            v = v_new

    def test_output_clamped(self):
        cfg = PIDConfig(kp=100.0, output_min=0.0, output_max=79.0)
        state = PIDState()
        assert pid_update(state, 75.0, 10.0, cfg, 0.2) == 79.0
        assert pid_update(state, 5.0, -10.0, cfg, 0.2) == 0.0

    def test_integral_clamped(self):
        cfg = PIDConfig(kp=0.0, ki=1.0, kd=0.0, integral_limit=1.0)
        state = PIDState()
        for _ in range(100):
            pid_update(state, 40.0, 5.0, cfg, 1.0)
        assert state.integral == 1.0

    def test_derivative_on_measurement_no_first_kick(self):
        cfg = PIDConfig(kp=0.0, ki=0.0, kd=2.0)
        state = PIDState()
        assert pid_update(state, 40.0, 3.0, cfg, 0.5) == 40.0  # no history yet
        # measurement rising from 3.0 to 4.0 at dt=0.5 -> derivative term -2*(2.0)
        assert pid_update(state, 40.0, 4.0, cfg, 0.5) == pytest.approx(36.0)

    @staticmethod
    def np_clip_reference(state, voltage, error_ghz, cfg, dt_s):
        """One PID step with both clamps done by ``np.clip``."""
        integral = float(np.clip(state.integral + error_ghz * dt_s,
                                 -cfg.integral_limit, cfg.integral_limit))
        if state.last_measurement is None or cfg.kd == 0.0:
            derivative = 0.0
        else:
            derivative = (state.last_measurement - error_ghz) / dt_s
        u = cfg.kp * error_ghz + cfg.ki * integral + cfg.kd * derivative
        return integral, float(np.clip(voltage + u, cfg.output_min, cfg.output_max))

    @given(gains=hyp.tuples(hyp.floats(-10.0, 10.0), hyp.floats(-10.0, 10.0),
                            hyp.sampled_from([0.0, 0.5, -2.0])),
           lo=hyp.floats(-100.0, 100.0), width=hyp.floats(1e-3, 100.0),
           limit=hyp.floats(0.0, 50.0), integral=hyp.floats(-50.0, 50.0),
           last=hyp.none() | hyp.floats(-1e3, 1e3), voltage=hyp.floats(-200.0, 200.0),
           error=hyp.floats(-1e6, 1e6) | hyp.sampled_from(
               [-0.0, math.nan, math.inf, -math.inf]),
           dt=hyp.floats(1e-3, 10.0))
    @example(gains=(1.0, 0.0, 0.0), lo=0.0, width=79.0, limit=0.0, integral=-0.0,
             last=None, voltage=-0.0, error=-0.0, dt=0.2)
    @settings(max_examples=300, deadline=None)
    def test_clamps_match_np_clip_bit_for_bit(self, gains, lo, width, limit,
                                              integral, last, voltage, error, dt):
        kp, ki, kd = gains
        cfg = PIDConfig(kp=kp, ki=ki, kd=kd, output_min=lo, output_max=lo + width,
                        integral_limit=limit)
        state = PIDState(integral=integral, last_measurement=last)
        if not math.isfinite(error):
            with pytest.raises(st.InputError):
                pid_update(state, voltage, error, cfg, dt)
            assert state == PIDState(integral=integral, last_measurement=last)
            return
        ref_integral, ref_out = self.np_clip_reference(state, voltage, error, cfg, dt)
        out = pid_update(state, voltage, error, cfg, dt)
        assert np.float64(out).tobytes() == np.float64(ref_out).tobytes()
        assert np.float64(state.integral).tobytes() == np.float64(ref_integral).tobytes()
        assert cfg.output_min <= out <= cfg.output_max
        assert abs(state.integral) <= cfg.integral_limit

    def test_rejected_nan_step_leaves_later_steps_exact(self):
        cfg = PIDConfig(ki=0.1)
        state = PIDState()
        with pytest.raises(st.InputError):
            pid_update(state, 40.0, math.nan, cfg, 0.2)
        _, ref_out = self.np_clip_reference(PIDState(), 40.0, 0.3, cfg, 0.2)
        assert pid_update(state, 40.0, 0.3, cfg, 0.2) == ref_out

    def test_linear_plant_convergence_with_shipped_gains(self, config):
        cfg = config.control.pid
        gain = -0.577  # GHz per volt, plant slope at the operating point
        state = PIDState()
        v = 40.0
        offset = 1.0  # GHz initial error
        error = offset
        for step in range(50):
            v = pid_update(state, v, error, cfg, 1.0 / cfg.update_rate_hz)
            error = offset + gain * (v - 40.0)
        assert abs(error) < 0.010

    def test_anti_windup_recovery_bound(self):
        # saturate the output for a while, then demand a feasible setpoint;
        # the clamped integral must let the loop recover quickly
        cfg = PIDConfig(kp=1.0, ki=0.4, kd=0.0, output_min=0.0, output_max=50.0,
                        integral_limit=2.0)
        gain = -0.5
        dt = 0.2
        state = PIDState()
        v = 40.0

        def plant_error(v, disturbance):
            return disturbance + gain * (v - 40.0)

        sat_frames = 100
        for _ in range(sat_frames):  # unreachable: would need v = 60 V
            v = pid_update(state, v, plant_error(v, 10.0), cfg, dt)
            assert v <= 50.0
        # steady-state error for the feasible disturbance
        steady = 0.0
        recovery = None
        for frame in range(5 * sat_frames):
            v = pid_update(state, v, plant_error(v, 2.0), cfg, dt)
            err = plant_error(v, 2.0)
            if abs(err) < 2.0 * 0.01 and recovery is None:
                recovery = frame
                break
        assert recovery is not None
        assert recovery <= 5 * sat_frames


class TestRunStabilization:
    def test_bit_identical_logs_for_equal_seeds(self, config, axial, device):
        stab = st.StabilizationConfig(duration_s=240.0, n_scans=2)
        logs = [st.run_stabilization(axial, device, config.control.drift,
                                     config.control.lockin, config.control.pid,
                                     config.control.cr_check, stab, seed=5)
                for _ in range(2)]
        for name in ("update_time_s", "dc_voltage_v", "error_ghz",
                     "lockin_valid", "cr_pass", "scan_time_s",
                     "scan_center_ghz", "scan_fwhm_mhz", "scan_true_center_ghz"):
            a, b = getattr(logs[0], name), getattr(logs[1], name)
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.fixture(scope="class")
    def golden_log(self, config, axial, device):
        stab = replace(config.control.stabilization, duration_s=1800.0, n_scans=4)
        return st.run_stabilization(axial, device, config.control.drift,
                                    config.control.lockin, config.control.pid,
                                    config.control.cr_check, stab, seed=11)

    @staticmethod
    def _digest(log, names):
        digest = hashlib.sha256()
        for name in names:
            a = np.ascontiguousarray(getattr(log, name))
            digest.update(name.encode() + str(a.dtype).encode() + a.tobytes())
        return digest.hexdigest()

    def test_golden_control_digest(self, golden_log):
        # Pins the per-frame control arrays of a short fixed-seed run bit for
        # bit, so a refactor that claims to keep behaviour must leave this
        # digest as is.  The fit columns are pinned separately below: they
        # are not fed back into the loop.
        assert self._digest(golden_log, (
            "dc_voltage_v", "error_ghz", "lockin_valid", "cr_pass",
            "scan_true_center_ghz")) == (
            "62d2fa460bd31b61907ab0c4a4f43faf3080b0f9d767eeb5fb85b0b58d87db69")

    def test_golden_fit_digest(self, golden_log):
        # The fitted scan columns of the same run: a change to the fit's
        # solver or rounding moves only these.
        assert self._digest(golden_log, ("scan_center_ghz", "scan_fwhm_mhz")) == (
            "c63bfb1d8f7e5b2dd19f7a6b7029ffc427d55bcef0ea59b6238e4501d2c2bde2")

    def test_golden_free_running_digest(self, config, axial, device):
        # Every array of the same run without feedback: only the drift and
        # scan streams are drawn, so a change to the lock-in probe or its
        # draws must leave this digest as is.
        stab = replace(config.control.stabilization, duration_s=1800.0,
                       n_scans=4, feedback=False)
        log = st.run_stabilization(axial, device, config.control.drift,
                                   config.control.lockin, config.control.pid,
                                   config.control.cr_check, stab, seed=11)
        assert self._digest(log, (
            "update_time_s", "dc_voltage_v", "error_ghz", "lockin_valid",
            "cr_pass", "scan_time_s", "scan_center_ghz", "scan_fwhm_mhz",
            "scan_converged", "scan_true_center_ghz")) == (
            "685be1d1bc57e7b8ef9cc80cae2e306378543167839b09e8658d7cd08ed5c9b2")

    def test_voltage_always_clamped(self, config, axial, device):
        pid = replace(config.control.pid, output_min=38.0, output_max=42.0)
        stab = st.StabilizationConfig(duration_s=600.0, n_scans=2)
        log = st.run_stabilization(axial, device, config.control.drift,
                                   config.control.lockin, pid,
                                   config.control.cr_check, stab, seed=9)
        assert np.all(log.dc_voltage_v >= 38.0)
        assert np.all(log.dc_voltage_v <= 42.0)

    def test_times_strictly_increasing(self, config, axial, device):
        stab = st.StabilizationConfig(duration_s=300.0, n_scans=3)
        log = st.run_stabilization(axial, device, config.control.drift,
                                   config.control.lockin, config.control.pid,
                                   config.control.cr_check, stab, seed=2)
        assert np.all(np.diff(log.update_time_s) > 0.0)
        assert np.all(np.diff(log.scan_time_s) > 0.0)

    def test_zero_drift_scatter_is_shot_noise_limited(self, config, axial, device):
        no_drift = replace(config.control.drift, ou_sigma_ghz=0.0,
                           jump_rate_hz=0.0)
        stab = st.StabilizationConfig(duration_s=3600.0, n_scans=30)
        log = st.run_stabilization(axial, device, no_drift,
                                   config.control.lockin, config.control.pid,
                                   config.control.cr_check, stab, seed=11)
        curve = TuningCurve(axial, device)
        target = log.meta["target_ghz"]
        fwhm = effective_linewidth(axial, target)
        det = target + np.linspace(-stab.scan_span_ghz / 2,
                                   stab.scan_span_ghz / 2, stab.scan_points)
        sigma_cr = fisher_center_sigma(det, target, fwhm, axial.peak_rate,
                                       axial.background_rate, stab.scan_dwell_s)
        centers = log.scan_center_ghz[log.scan_converged]
        assert len(centers) == 30
        assert np.std(centers, ddof=1) <= 2.0 * sigma_cr

    @pytest.mark.slow
    def test_closed_loop_beats_open_loop_paired_seeds(self, config, axial, device):
        drift = config.control.drift
        assert drift.stationary_std_ghz > 10.0 * 0.005  # well above shot noise
        stab_on = st.StabilizationConfig(duration_s=1500.0, n_scans=10)
        stab_off = st.StabilizationConfig(duration_s=1500.0, n_scans=10,
                                          feedback=False)
        wins = 0
        for seed in range(100, 120):
            on = st.run_stabilization(axial, device, drift,
                                      config.control.lockin, config.control.pid,
                                      config.control.cr_check, stab_on, seed)
            off = st.run_stabilization(axial, device, drift,
                                       config.control.lockin, config.control.pid,
                                       config.control.cr_check, stab_off, seed)
            # identical drift realization in both runs: the drift stream is
            # separate from the measurement streams
            std_on = np.std(on.scan_center_ghz[on.scan_converged], ddof=1)
            std_off = np.std(off.scan_center_ghz[off.scan_converged], ddof=1)
            if std_on < std_off:
                wins += 1
        assert wins == 20

    def test_free_run_reproduces_drift_spread(self, config, axial, device):
        stab = st.StabilizationConfig(duration_s=25200.0, n_scans=50,
                                      feedback=False)
        log = st.run_stabilization(axial, device, config.control.drift,
                                   config.control.lockin, config.control.pid,
                                   config.control.cr_check, stab,
                                   seed=config.seed)
        centers = log.scan_center_ghz[log.scan_converged]
        assert np.std(centers, ddof=1) == pytest.approx(1.38, rel=0.15)

    def test_setup_validation(self, config, axial, device):
        good = st.StabilizationConfig(duration_s=60.0, n_scans=1)
        with pytest.raises(st.ConfigError):
            st.StabilizationConfig(duration_s=0.0)  # empty log
        with pytest.raises(st.ConfigError):
            st.run_stabilization(axial, device, config.control.drift,
                                 config.control.lockin, config.control.pid,
                                 config.control.cr_check,
                                 replace(good, target_ghz=500.0), seed=1)
        with pytest.raises(st.ConfigError):
            st.run_stabilization(axial, device, config.control.drift,
                                 config.control.lockin,
                                 replace(config.control.pid, output_max=200.0),
                                 config.control.cr_check, good, seed=1)
        with pytest.raises(st.ConfigError):
            st.run_stabilization(axial, device, config.control.drift,
                                 config.control.lockin, config.control.pid,
                                 config.control.cr_check,
                                 replace(good, operating_voltage=90.0), seed=1)
        dark = replace(axial, peak_rate=0.0)
        with pytest.raises(st.ConfigError):
            st.run_stabilization(dark, device, config.control.drift,
                                 config.control.lockin, config.control.pid,
                                 config.control.cr_check, good, seed=1)
        # the PID may drive the bias to output_max, where the modulation
        # would probe above v_max
        v_max = device.calibration.v_max
        with pytest.raises(st.ConfigError, match="modulation"):
            st.run_stabilization(axial, device, config.control.drift,
                                 config.control.lockin,
                                 replace(config.control.pid, output_max=v_max),
                                 config.control.cr_check, good, seed=1)

    @staticmethod
    def dim_setup(config, axial):
        """A faint emitter with a 1-photon CR threshold: some probes count
        nothing, and the default 5 ms scans hold no line to fit."""
        c = config.control
        return (replace(axial, peak_rate=100.0, background_rate=5.0), c.drift,
                c.lockin, c.pid, replace(c.cr_check, photon_threshold=1),
                replace(c.stabilization, duration_s=60.0, n_scans=2), 7)

    def test_failed_scan_fit_is_recorded_unconverged(self, config, axial, device):
        emitter, drift, lockin, pid, cr, stab, seed = self.dim_setup(config, axial)
        log = st.run_stabilization(emitter, device, drift, lockin, pid, cr,
                                   stab, seed)
        assert log.meta["n_scans_taken"] == 2
        assert not log.scan_converged.any()
        assert np.isnan(log.scan_center_ghz).all()
        assert np.isnan(log.scan_fwhm_mhz).all()
        assert np.isfinite(log.scan_true_center_ghz).all()
        assert summarize_log(log)["n_converged"] == 0

    CORNERS = {
        "feedback": {},
        "free_running": {"stab": {"feedback": False}},
        "ki_and_kd": {"pid": {"ki": 0.02, "kd": 0.05}},
        "cr_retries": {"cr": {"max_attempts": 3, "photon_threshold": 900}},
        "explicit_target": {"stab": {"target_ghz": -12.0}},
        "jumps_only": {"drift": {"ou_sigma_ghz": 0.0, "jump_rate_hz": 0.5}},
        "drift_start": {"drift": {"state_ghz": 0.4}},
        "dim": None,
    }

    @pytest.mark.parametrize("corner", sorted(CORNERS))
    def test_loop_matches_per_call_reference_bit_for_bit(self, config, axial,
                                                         device, corner):
        c = config.control
        if self.CORNERS[corner] is None:
            emitter, drift, lockin, pid, cr, stab, seed = self.dim_setup(config, axial)
        else:
            over = self.CORNERS[corner]
            emitter, seed = axial, 3
            drift = replace(c.drift, **over.get("drift", {}))
            lockin = c.lockin
            pid = replace(c.pid, **over.get("pid", {}))
            cr = replace(c.cr_check, **over.get("cr", {}))
            stab = replace(c.stabilization, duration_s=120.0, n_scans=3,
                           **over.get("stab", {}))
        log = st.run_stabilization(emitter, device, drift, lockin, pid, cr,
                                   stab, seed)
        ref = reference_stabilization(emitter, device, drift, lockin, pid, cr,
                                      stab, seed)
        for name, want in ref.items():
            got = getattr(log, name)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), name
            assert got.tobytes() == want.tobytes(), name
        if corner == "dim":  # invalid probes, held bias and failed fits
            assert not log.lockin_valid.all() and log.lockin_valid.any()
            assert not log.scan_converged.any()

    def test_summary_and_summed_scan(self, config, axial, device):
        stab = st.StabilizationConfig(duration_s=900.0, n_scans=6)
        log = st.run_stabilization(axial, device, config.control.drift,
                                   config.control.lockin, config.control.pid,
                                   config.control.cr_check, stab, seed=31)
        summary = summarize_log(log)
        for key in ("n_scans", "n_converged", "center_std_ghz",
                    "fwhm_mean_mhz", "fwhm_summed_mhz", "cr_pass_rate"):
            assert key in summary
        total = summed_scan(log)
        assert np.array_equal(total.counts,
                              sum(np.asarray(s.counts) for s in log.scans))
        # the summed histogram is at least as wide as the mean individual scan
        assert summary["fwhm_summed_mhz"] >= 0.95 * summary["fwhm_mean_mhz"]
