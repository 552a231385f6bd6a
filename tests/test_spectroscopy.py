import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import snvtune as st
from snvtune import spectroscopy
from snvtune.spectroscopy import (best_window_fraction, count_rate,
                                  empirical_cdf, sample_inhomogeneous,
                                  sample_scan, scan_to_csv, write_csv)

from oracles import (central_difference_jacobian, fisher_center_sigma,
                     fit_line_finite_difference, read_scan)


class TestEffectiveLinewidth:
    def test_zero_shift_gives_intrinsic_width(self, axial):
        assert st.effective_linewidth(axial, 0.0) == axial.fwhm0_mhz

    def test_forced_arithmetic_anchor(self, axial):
        emitter = replace(axial, fwhm0_mhz=100.0, broadening_slope=3.42)
        assert st.effective_linewidth(emitter, 40.0) == pytest.approx(236.8, rel=1e-12)
        assert st.effective_linewidth(emitter, -40.0) == pytest.approx(236.8, rel=1e-12)

    def test_added_width_linear_in_shift(self, axial):
        base = axial.fwhm0_mhz
        added1 = st.effective_linewidth(axial, 7.0) - base
        added2 = st.effective_linewidth(axial, 14.0) - base
        assert added2 == pytest.approx(2.0 * added1, rel=1e-12)


class TestCountRate:
    # the square of 2 x / fwhm overflows from about x = 1.27e153
    DETUNINGS = [0.0, 5e-324, 1e-300, 0.095, 0.19, 1.0, 40.0, 1e153, 1.3e153,
                 1e300, sys.float_info.max]

    def test_even_in_detuning_bit_for_bit(self):
        # scans pass detuning - center and cr_check target - line
        d = np.array(self.DETUNINGS)
        with np.errstate(over="ignore"):
            plus = count_rate(20000.0, 200.0, d, 0.19)
            minus = count_rate(20000.0, 200.0, -d, 0.19)
        assert plus.tobytes() == minus.tobytes()
        assert plus[-1] == 200.0  # far from the line: the background

    def test_float_detuning_matches_the_array_bit_for_bit(self):
        d = np.array(self.DETUNINGS)
        with np.errstate(over="ignore"):
            rates = count_rate(20000.0, 200.0, np.concatenate([d, -d]), 0.19)
            singles = [count_rate(20000.0, 200.0, x, 0.19)
                       for x in [*self.DETUNINGS, *(-d).tolist()]]
        assert np.array(singles).tobytes() == rates.tobytes()


class TestSimulatePle:
    def test_background_only_when_dark(self, axial, device, rng):
        dark = replace(axial, peak_rate=0.0)
        det = np.linspace(-1, 1, 200)
        scan = st.simulate_ple(dark, device, 0.0, det, 0.01, rng=rng)
        expected = dark.background_rate * 0.01
        sigma = np.sqrt(expected / det.size)
        assert abs(np.mean(scan.counts) - expected) < 3.0 * sigma

    def test_noise_free_peak_value_exact(self, axial, device):
        curve = st.TuningCurve(axial, device)
        v = 30.0
        shift = float(curve.shift(v))
        det = np.array([shift - 0.5, shift - 0.1, shift, shift + 0.2, shift + 0.4,
                        shift + 0.6, shift + 0.8, shift + 1.0])
        scan = st.simulate_ple(axial, device, v, det, 0.02)
        peak = (axial.peak_rate + axial.background_rate) * 0.02
        assert scan.counts[2] == peak

    def test_deterministic_given_seed(self, axial, device):
        det = np.linspace(-1, 1, 64)
        a = st.simulate_ple(axial, device, 20.0, det, 0.005, seed=99)
        b = st.simulate_ple(axial, device, 20.0, det, 0.005, seed=99)
        assert np.array_equal(a.counts, b.counts)
        c = st.simulate_ple(axial, device, 20.0, det, 0.005, seed=100)
        assert not np.array_equal(a.counts, c.counts)

    def test_voltage_staircase_monotone_red_shift(self, axial, device):
        # stepped-bias scans walk the fitted line monotonically to <= -40 GHz
        curve = st.TuningCurve(axial, device)
        centers = []
        for i, v in enumerate(np.linspace(0.0, device.calibration.v_max, 9)):
            predicted = float(curve.shift(v))
            det = predicted + np.linspace(-1.5, 1.5, 121)
            scan = st.simulate_ple(axial, device, float(v), det, 0.01, seed=500 + i)
            fit = st.fit_line(scan, "lorentzian")
            assert fit.converged
            centers.append(fit.center)
        assert all(b < a for a, b in zip(centers, centers[1:]))
        assert centers[-1] <= -40.0

    def test_window_warning_flag(self, axial, device):
        det = np.linspace(-1.0, 1.0, 32)  # far from the -40 GHz line
        scan = st.simulate_ple(axial, device, device.calibration.v_max, det,
                               0.005, seed=1)
        assert scan.window_warning
        det2 = np.linspace(-46.0, -40.0, 32)
        scan2 = st.simulate_ple(axial, device, device.calibration.v_max, det2,
                                0.005, seed=1)
        assert not scan2.window_warning


class TestNoiseFreeOverflow:
    def test_non_finite_expected_counts_are_an_input_error(self, axial):
        det = np.linspace(-1.0, 1.0, 11)
        with pytest.raises(st.InputError, match="overflows"):
            sample_scan(axial, det, 0.0, 150.0, 1e308, 0.0, rng=None)


class TestFitLine:
    def test_noise_free_lorentzian_recovery(self, axial):
        emitter = replace(axial, fwhm0_mhz=200.0)
        det = 10.0 + np.linspace(-2.0, 2.0, 161)
        scan = sample_scan(emitter, det, 10.0, 200.0, 0.01, 0.0, rng=None)
        fit = st.fit_line(scan, "lorentzian")
        assert fit.converged
        assert abs(fit.center - 10.0) < 1e-3  # < 1 MHz
        assert abs(fit.fwhm - 200.0) / 200.0 < 0.01

    def test_symmetric_data_centered(self):
        x = np.linspace(-1, 1, 41)
        y = 100.0 / (1.0 + (x / 0.1) ** 2) + 5.0
        scan = st.ScanRecord(detunings=x + 3.0, counts=y, dwell_s=1.0, bias_v=0.0)
        fit = st.fit_line(scan, "lorentzian")
        assert fit.center == pytest.approx(3.0, abs=1e-9)

    def test_voigt_shape_on_lorentzian_data(self, axial):
        det = np.linspace(-1.5, 1.5, 161)
        scan = st.simulate_ple(axial, st.DeviceModel(), 0.0, det, 0.02, seed=7)
        fit = st.fit_line(scan, "voigt")
        assert fit.converged
        assert abs(fit.center) < 0.01
        assert fit.eta is not None and fit.eta > 0.5  # mostly Lorentzian

    def test_too_few_points_is_input_error(self):
        scan = st.ScanRecord(detunings=np.linspace(0, 1, 5),
                             counts=np.array([1, 2, 30, 2, 1]),
                             dwell_s=1.0, bias_v=0.0)
        with pytest.raises(st.InputError):
            st.fit_line(scan)

    def test_flat_data_is_input_error(self, rng):
        scan = st.ScanRecord(detunings=np.linspace(0, 1, 50),
                             counts=rng.poisson(5.0, 50), dwell_s=1.0, bias_v=0.0)
        with pytest.raises(st.InputError):
            st.fit_line(scan)

    def test_unknown_shape_rejected(self):
        scan = st.ScanRecord(detunings=np.linspace(0, 1, 10),
                             counts=np.ones(10), dwell_s=1.0, bias_v=0.0)
        with pytest.raises(st.InputError):
            st.fit_line(scan, "gauss")

    def test_center_scatter_consistent_with_cramer_rao(self, axial, device):
        det = np.linspace(-1.0, 1.0, 101)
        dwell = 0.005
        sigma_cr = fisher_center_sigma(det, 0.0, axial.fwhm0_mhz,
                                       axial.peak_rate, axial.background_rate,
                                       dwell)
        centers = []
        for seed in range(60):
            scan = st.simulate_ple(axial, device, 0.0, det, dwell, seed=3000 + seed)
            fit = st.fit_line(scan, "lorentzian")
            assert fit.converged
            centers.append(fit.center)
        scatter = np.std(centers, ddof=1)
        assert scatter <= 2.0 * sigma_cr
        assert scatter >= 0.6 * sigma_cr

    def test_stderr_tracks_true_scatter(self, axial, device):
        det = np.linspace(-1.0, 1.0, 101)
        stderrs, centers = [], []
        for seed in range(40):
            scan = st.simulate_ple(axial, device, 0.0, det, 0.005, seed=4000 + seed)
            fit = st.fit_line(scan, "lorentzian")
            stderrs.append(fit.center_stderr)
            centers.append(fit.center)
        assert np.median(stderrs) == pytest.approx(np.std(centers, ddof=1), rel=0.5)


class TestFitJacobians:
    GRID = np.linspace(-2.0, 2.0, 161)  # step 0.025 GHz, span 4 GHz

    @settings(deadline=None, max_examples=200)
    @given(amp=hyp.floats(1.0, 1e4), center=hyp.floats(-2.0, 2.0),
           fwhm=hyp.floats(0.1 * 0.025, 4.0 * 4.0), eta=hyp.floats(0.0, 1.0),
           bg=hyp.floats(0.0, 1e3))
    def test_analytic_jacobians_match_central_differences(self, amp, center,
                                                          fwhm, eta, bg):
        # parameters drawn inside fit_line's bounds for this grid
        x = self.GRID
        for model, jac, params, steps in (
                (spectroscopy._lorentz_model, spectroscopy._lorentz_jac,
                 (amp, center, fwhm, bg),
                 (1e-5 * amp, 1e-5 * fwhm, 1e-5 * fwhm, 1e-5 * max(bg, 1.0))),
                (spectroscopy._pseudo_voigt_model, spectroscopy._pseudo_voigt_jac,
                 (amp, center, fwhm, eta, bg),
                 (1e-5 * amp, 1e-5 * fwhm, 1e-5 * fwhm, 1e-5, 1e-5 * max(bg, 1.0)))):
            values, parts = model(x, *params)
            analytic = jac(*parts, *params)
            numeric = central_difference_jacobian(
                lambda *a, _m=model: _m(*a)[0], x, params, steps)
            assert analytic.shape == (x.size, len(params))
            # absolute floor: the rounding error of the differenced model
            # values over the step, plus a sliver of the column's scale
            rounding = 16.0 * np.finfo(float).eps * np.abs(values).max()
            for a, n, h in zip(analytic.T, numeric.T, steps):
                floor = rounding / h + 1e-8 * np.abs(n).max()
                np.testing.assert_allclose(a, n, rtol=1e-6, atol=floor)

    @staticmethod
    def _oracle_scans(config):
        # every emitter at four biases, windows off-center by up to 1 GHz
        rng = np.random.default_rng(5150)
        for name in sorted(config.emitters):
            emitter = config.emitter(name)
            curve = st.TuningCurve(emitter, config.device)
            for v in (0.0, 25.0, 50.0, 75.0):
                center = float(curve.shift(v)) + rng.uniform(-1.0, 1.0)
                det = center + np.linspace(-2.0, 2.0, 161)
                yield st.simulate_ple(emitter, config.device, v, det, 0.005,
                                      rng=rng)

    def test_fits_match_finite_difference_reference(self, config):
        for scan in self._oracle_scans(config):
            for shape in ("lorentzian", "voigt"):
                fit = st.fit_line(scan, shape)
                center, fwhm, stderr, converged = fit_line_finite_difference(
                    scan, shape)
                assert fit.converged == converged
                assert abs(fit.center - center) <= 1e-3 * stderr
                assert abs(fit.fwhm - fwhm) <= 1e-6 * fwhm
                assert abs(fit.center_stderr - stderr) <= 1e-5 * stderr

    def test_model_evaluations_stay_within_budget(self, axial, device,
                                                  monkeypatch):
        # Guards against falling back to finite differences, which evaluate
        # the model once more per parameter for every Jacobian.  On this
        # scan scipy's finite-difference fits took 61 (Lorentzian) and 67
        # (pseudo-Voigt) model evaluations; the Levenberg-Marquardt fits
        # with closed-form Jacobians take 15 and 17, and about 18 per fit
        # on average over the benchmark's scan_fit round.  At least one call
        # must be counted: a fit_line that bound the models at import time,
        # out of the monkeypatch's reach, fails here.
        calls = []
        for name in ("_lorentz_model", "_pseudo_voigt_model"):
            model = getattr(spectroscopy, name)
            monkeypatch.setattr(spectroscopy, name,
                                lambda *a, _m=model: calls.append(1) or _m(*a))
        center = float(st.TuningCurve(axial, device).shift(40.0)) + 0.6
        det = center + np.linspace(-2.0, 2.0, 161)
        scan = st.simulate_ple(axial, device, 40.0, det, 0.005, seed=404)
        for shape in ("lorentzian", "voigt"):
            calls.clear()
            assert st.fit_line(scan, shape).converged
            assert 0 < len(calls) <= 30, shape


class TestFitGolden:
    """Every fit of the oracle scans, pinned to the last bit."""

    def test_golden_fit_line_digest(self, config, monkeypatch):
        # A change to the solver's arithmetic moves this digest; a change
        # that only saves numpy calls must not.  The set covers both of the
        # solver's paths: every Lorentzian optimum lies strictly inside its
        # bounds, so every parameter is free there, and some Voigt fits end
        # with eta held on its upper bound.
        solve = spectroscopy._least_squares
        optima = []

        def recording(model, jac, x, y, w, p0, lo, hi):
            p, normal, values = solve(model, jac, x, y, w, p0, lo, hi)
            optima.append((model.__name__, p, lo, hi))
            return p, normal, values

        monkeypatch.setattr(spectroscopy, "_least_squares", recording)
        digest = hashlib.sha256()
        for scan in TestFitJacobians._oracle_scans(config):
            for shape in ("lorentzian", "voigt"):
                fit = st.fit_line(scan, shape)
                eta = np.nan if fit.eta is None else fit.eta
                digest.update(np.array([
                    fit.center, fit.fwhm, fit.amplitude, fit.background, eta,
                    fit.center_stderr, float(fit.converged)]).tobytes())
        assert digest.hexdigest() == (
            "b514d6d84e175d4251cc03f6b809f21a7de996ea0b5ad858fd4da107741a8ad8")
        lorentz = [(p, lo, hi) for name, p, lo, hi in optima
                   if name == "_lorentz_model"]
        assert lorentz and all(((lo < p) & (p < hi)).all() for p, lo, hi in lorentz)
        assert sum(p[3] == 1.0 for name, p, _, _ in optima
                   if name == "_pseudo_voigt_model") >= 2

    def test_unit_weights_match_no_weights_bit_for_bit(self, config, monkeypatch):
        # fit_line's unweighted first pass passes w=None; replay each such
        # solve with explicit unit weights.  On this scan the Voigt pass ends
        # with eta held on its bound, so both of the solver's paths are hit.
        solve = spectroscopy._least_squares
        unweighted = []

        def recording(model, jac, x, y, w, p0, lo, hi):
            if w is None:
                unweighted.append((model, jac, x, y, p0, lo, hi))
            return solve(model, jac, x, y, w, p0, lo, hi)

        monkeypatch.setattr(spectroscopy, "_least_squares", recording)
        scan = next(TestFitJacobians._oracle_scans(config))
        for shape in ("lorentzian", "voigt"):
            st.fit_line(scan, shape)
        assert len(unweighted) == 2
        held = 0
        for model, jac, x, y, p0, lo, hi in unweighted:
            p_none, n_none, _ = solve(model, jac, x, y, None, p0, lo, hi)
            p_ones, n_ones, _ = solve(model, jac, x, y, np.ones_like(y), p0, lo, hi)
            assert p_none.tobytes() == p_ones.tobytes()
            assert n_none.tobytes() == n_ones.tobytes()
            held += model is spectroscopy._pseudo_voigt_model and p_none[3] == 1.0
        assert held == 1


class TestSolverKeepsItsEvaluation:
    """``_least_squares`` returns the model values at the parameters it
    returns: the evaluation kept with the accepted point, never that of a
    trial the solver rejected after it."""

    GRID = np.linspace(-1.0, 1.0, 41)

    def replay(self, axial, device, seed, dwell, shape):
        # fit_line's solves on one scan, each replayed with its model
        # evaluations recorded: (weighted, rejected last trial) per solve
        solve = spectroscopy._least_squares
        calls = []

        def recording(*args):
            calls.append(args)
            return solve(*args)

        scan = st.simulate_ple(axial, device, 0.0, self.GRID, dwell, seed=seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectroscopy, "_least_squares", recording)
            st.fit_line(scan, shape)
        solves = []
        for model, jac, x, y, w, p0, lo, hi in calls:
            evaluated = []

            def counted(x, *p, _model=model):
                evaluated.append(p)
                return _model(x, *p)

            try:
                p, _, values = solve(counted, jac, x, y, w, p0, lo, hi)
            except spectroscopy._FitFailed:
                continue
            fresh, _ = model(x, *p.tolist())
            assert values.tobytes() == fresh.tobytes()
            solves.append((w is not None, evaluated[-1] != tuple(p.tolist())))
        return solves

    @settings(deadline=None, max_examples=40)
    @given(seed=hyp.integers(0, 2**32 - 1),
           dwell=hyp.sampled_from([0.002, 0.005, 0.02]),
           shape=hyp.sampled_from(["lorentzian", "voigt"]))
    def test_returned_values_match_a_fresh_evaluation(self, axial, device,
                                                      seed, dwell, shape):
        # each fit runs an unweighted and a Poisson-weighted solve
        solves = self.replay(axial, device, seed, dwell, shape)
        assert [weighted for weighted, _ in solves] == [False, True]

    # scans whose solve of the given pass ends on a rejected trial: the last
    # evaluation the solver made is not at the point it returns
    @pytest.mark.parametrize("seed, dwell, shape, weighted", [
        (1384, 0.02, "lorentzian", False),
        (51, 0.005, "voigt", False),
        (692, 0.02, "voigt", True),
    ])
    def test_rejected_last_trial_leaves_no_stale_values(self, axial, device,
                                                        seed, dwell, shape,
                                                        weighted):
        solves = self.replay(axial, device, seed, dwell, shape)
        assert (weighted, True) in solves


class TestFitFailure:
    """A failed solve gives the unconverged fallback and raises nothing."""

    @pytest.fixture
    def scan(self, axial, device):
        det = np.linspace(-1.0, 1.0, 101)
        return st.simulate_ple(axial, device, 0.0, det, 0.005, seed=4040)

    @staticmethod
    def assert_fallback(scan, fit):
        assert not fit.converged
        assert fit.center_stderr == np.inf
        assert fit.center == scan.detunings[np.argmax(scan.counts)]

    def test_evaluation_cap(self, scan, monkeypatch):
        assert st.fit_line(scan, "lorentzian").converged
        monkeypatch.setattr(spectroscopy, "_LM_MAX_EVALS", 1)
        for shape in ("lorentzian", "voigt"):
            self.assert_fallback(scan, st.fit_line(scan, shape))

    def test_non_finite_counts(self, scan):
        counts = scan.counts.astype(float)
        counts[3] = np.inf
        bad = replace(scan, counts=counts)
        for shape in ("lorentzian", "voigt"):
            self.assert_fallback(bad, st.fit_line(bad, shape))

    def test_non_finite_trial_step(self, scan, monkeypatch):
        model = spectroscopy._lorentz_model
        calls = []

        def nan_after_first(x, *params):
            calls.append(1)
            if len(calls) == 1:
                return model(x, *params)
            return np.full(x.shape, np.nan), ()

        monkeypatch.setattr(spectroscopy, "_lorentz_model", nan_after_first)
        self.assert_fallback(scan, st.fit_line(scan, "lorentzian"))
        assert len(calls) == 2

    def test_singular_normal_matrix(self, scan, monkeypatch):
        jac = spectroscopy._lorentz_jac

        def width_blind(*args):
            j = jac(*args)
            j[:, 2] = 0.0
            return j

        monkeypatch.setattr(spectroscopy, "_lorentz_jac", width_blind)
        self.assert_fallback(scan, st.fit_line(scan, "lorentzian"))


class TestImportCost:
    def test_import_loads_no_scipy(self):
        # the line fit is numpy-only; scipy.optimize alone costs most of a
        # cold start
        code = ("import sys, snvtune; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        env = dict(os.environ, PYTHONPATH=str(Path(st.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "[]"


class TestCdfAndWindow:
    def test_single_resonance(self):
        result = st.cdf_and_window([484017.5], 40.0)
        assert result.values.tolist() == [484017.5]
        assert result.cdf.tolist() == [1.0]
        assert result.best_fraction == 1.0

    def test_cdf_monotone_and_ends_at_one(self, rng):
        result = st.cdf_and_window(rng.normal(0, 30, 400), 40.0)
        assert np.all(np.diff(result.cdf) >= 0.0)
        assert result.cdf[-1] == 1.0

    def test_uniform_sample_window_fraction(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(0.0, 100.0, 1000)
        frac, _ = best_window_fraction(values, 40.0)
        sigma = np.sqrt(0.4 * 0.6 / 1000.0)
        assert abs(frac - 0.4) <= 3.0 * sigma

    def test_matched_dataset_hits_forty_percent(self):
        from snvtune.config import matched_sample_path
        values = np.loadtxt(matched_sample_path(), comments="#", skiprows=3)
        frac, _ = best_window_fraction(values, 40.0)
        assert frac == pytest.approx(0.40, abs=1e-12)

    def test_empty_sample_rejected(self):
        with pytest.raises(st.InputError):
            st.cdf_and_window([], 40.0)

    def test_window_contains_count_oracle(self, rng):
        # brute-force window maximization oracle on a small sample
        values = np.sort(rng.uniform(0, 50, 80))
        frac, start = best_window_fraction(values, 7.0)
        brute = max(np.count_nonzero((values >= v) & (values <= v + 7.0))
                    for v in values) / values.size
        assert frac == brute

    def test_generator_determinism(self, rng):
        a = sample_inhomogeneous(100, 15.0, 0.45, 300.0,
                                 np.random.default_rng(5), center_ghz=484130.0)
        b = sample_inhomogeneous(100, 15.0, 0.45, 300.0,
                                 np.random.default_rng(5), center_ghz=484130.0)
        assert np.array_equal(a, b)


class TestPoissonStatistics:
    def test_mean_and_variance(self, axial, device):
        rng = np.random.default_rng(77)
        det = np.zeros(1) + 0.0
        rate = axial.peak_rate + axial.background_rate
        dwell = 0.002
        draws = np.concatenate([
            st.simulate_ple(axial, device, 0.0, [0.0], dwell, rng=rng).counts
            for _ in range(10_000)])
        expected = rate * dwell
        assert abs(np.mean(draws) - expected) < 4.0 * np.sqrt(expected / draws.size)
        assert 0.9 <= np.var(draws) / np.mean(draws) <= 1.1

    def test_center_recovery_rate(self, axial, device):
        det = np.linspace(-1.0, 1.0, 101)
        hits = 0
        trials = 200
        v = 10.0
        curve = st.TuningCurve(axial, device)
        shift = float(curve.shift(v))
        grid = shift + det
        fwhm = st.effective_linewidth(axial, shift)
        for seed in range(trials):
            scan = st.simulate_ple(axial, device, v, grid, 0.005, seed=6000 + seed)
            fit = st.fit_line(scan, "lorentzian")
            tol = max(3.0 * fit.center_stderr, fwhm / 1000.0 / 20.0)
            if fit.converged and abs(fit.center - shift) <= tol:
                hits += 1
        assert hits / trials >= 0.95


class TestBroadeningLoopClosure:
    def test_regression_recovers_slope(self, axial, device):
        # sweep bias, fit each scan, regress FWHM against |fitted shift|
        curve = st.TuningCurve(axial, device)
        voltages = np.linspace(0.0, device.calibration.v_max, 12)
        shifts, widths = [], []
        for i, v in enumerate(voltages):
            predicted = float(curve.shift(float(v)))
            width_ghz = st.effective_linewidth(axial, predicted) / 1000.0
            det = predicted + np.linspace(-8 * width_ghz, 8 * width_ghz, 161)
            scan = st.simulate_ple(axial, device, float(v), det, 0.02,
                                   seed=7000 + i)
            fit = st.fit_line(scan, "lorentzian")
            assert fit.converged
            shifts.append(abs(fit.center))
            widths.append(fit.fwhm)
        slope, intercept = np.polyfit(shifts, widths, 1)
        assert slope == pytest.approx(axial.broadening_slope, rel=0.05)
        assert intercept == pytest.approx(axial.fwhm0_mhz, rel=0.05)


class TestSerialization:
    def test_round_trip(self, axial, device, tmp_path):
        det = np.linspace(-1, 1, 33)
        scan = st.simulate_ple(axial, device, 15.0, det, 0.004, seed=12)
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, path)
        (detunings, counts, expected), meta = read_scan(path)
        np.testing.assert_allclose(detunings, scan.detunings, rtol=1e-11)
        assert np.array_equal(counts, scan.counts)
        np.testing.assert_allclose(expected, scan.expected, rtol=1e-11)
        assert meta["dwell_s"] == scan.dwell_s
        assert meta["bias_V"] == scan.bias_v
        assert meta["seed"] == scan.seed
        assert meta["emitter"] == scan.emitter

    def test_seed_replay_reproduces_bytes(self, axial, device, tmp_path):
        det = np.linspace(-1, 1, 33)
        paths = []
        for name in ("a.csv", "b.csv"):
            scan = st.simulate_ple(axial, device, 15.0, det, 0.004, seed=12)
            p = tmp_path / name
            scan_to_csv(scan, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_metadata_sidecar(self, axial, device, tmp_path):
        scan = st.simulate_ple(axial, device, 15.0, np.linspace(-1, 1, 16),
                               0.004, seed=5)
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, path)
        meta = json.loads((tmp_path / "scan.csv.meta.json").read_text())
        assert meta["bias_V"] == 15.0
        assert meta["seed"] == 5
        assert meta["emitter"] == axial.name

    @pytest.mark.parametrize("counts", [np.full(10, 3.0),
                                        np.arange(10, dtype=np.int64)])
    def test_round_trip_keeps_counts_dtype(self, tmp_path, counts):
        scan = st.ScanRecord(detunings=np.linspace(-1, 1, 10), counts=counts,
                             dwell_s=0.01, bias_v=5.0)
        path = tmp_path / "scan.csv"
        scan_to_csv(scan, path)
        (_, back), meta = read_scan(path)
        # whole-numbered float counts print as integers: only the sidecar
        # tells the two kinds apart
        back = back.astype(np.int64 if meta["counts_kind"] == "int" else float)
        assert back.dtype == counts.dtype
        assert np.array_equal(back, counts)


def csv_writer_reference(header_lines, columns, blank_nan=()) -> bytes:
    """The bytes ``csv.writer`` gives for per-cell strings: ``%.12g`` floats,
    decimal integers, 0/1 flags, empty cells for blanked NaN."""
    def cells(name, values):
        arr = np.asarray(values)
        if arr.dtype.kind in "biu":
            return [str(int(c)) for c in arr.tolist()]
        if arr.dtype.kind == "f":
            return ["" if name in blank_nan and x != x else f"{x:.12g}"
                    for x in arr.astype(float).tolist()]
        return [str(x) for x in values]

    buf = io.StringIO(newline="")
    for line in header_lines:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf)
    writer.writerow(list(columns))
    writer.writerows(zip(*(cells(n, v) for n, v in columns.items())))
    return buf.getvalue().encode("utf-8")


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, np.inf, -np.inf,
               np.nan, 0.1, 1e-5, 123456789012.5, 1.0 / 3.0]
INT64_EDGES = [0, -1, 2 ** 63 - 1, -2 ** 63]
SPECIAL_TEXT = ["", "plain", 'hinge, "A"', "a\r\nb", "\n", "\r", '"', ",",
                " padded ", "nul\x00", "%s%d", "ünï"]
FLOATS = hyp.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@hyp.composite
def csv_tables(draw):
    """Equal-length typed columns of every kind the writer takes."""
    n = draw(hyp.integers(0, 12))

    def cells(strategy):
        return draw(hyp.lists(strategy, min_size=n, max_size=n))

    columns, blank_nan = {}, []
    for j in range(draw(hyp.integers(1, 4))):
        name = draw(hyp.sampled_from(SPECIAL_TEXT) | hyp.text(max_size=4)) + str(j)
        kind = draw(hyp.sampled_from(
            ["float", "float-list", "blank", "int", "flag", "text"]))
        float_cells = FLOATS | hyp.sampled_from(EDGE_FLOATS)
        if kind == "float":
            columns[name] = np.array(cells(float_cells), dtype=np.float64)
        elif kind == "float-list":
            columns[name] = cells(float_cells)
        elif kind == "blank":
            columns[name] = np.array(cells(float_cells), dtype=np.float64)
            blank_nan.append(name)
        elif kind == "int":
            columns[name] = np.array(cells(
                hyp.integers(-2 ** 63, 2 ** 63 - 1) | hyp.sampled_from(INT64_EDGES)),
                dtype=np.int64)
        elif kind == "flag":
            columns[name] = np.array(cells(hyp.booleans()), dtype=bool)
        else:
            columns[name] = cells(hyp.text() | hyp.sampled_from(SPECIAL_TEXT))
    return columns, tuple(blank_nan)


class TestWriteCsv:
    HEADER = ["tool=snvtune", "seed=7"]

    def written(self, tmp_path, columns, blank_nan=()) -> bytes:
        path = tmp_path / "table.csv"
        write_csv(path, self.HEADER, columns, blank_nan=blank_nan)
        return path.read_bytes()

    @settings(deadline=None, max_examples=40)
    @given(table=csv_tables())
    def test_matches_csv_writer_over_per_cell_strings(self, tmp_path_factory, table):
        columns, blank_nan = table
        assert self.written(tmp_path_factory.mktemp("csv"), columns, blank_nan) == \
            csv_writer_reference(self.HEADER, columns, blank_nan)

    @pytest.mark.parametrize("values, blank_nan", [
        (EDGE_FLOATS, False),
        (np.array(EDGE_FLOATS), False),
        (np.array(EDGE_FLOATS), True),
        (np.array([0.1, -0.0, 1e-45, 3.4e38, np.inf, np.nan], dtype=np.float32),
         False),
        (np.array(INT64_EDGES, dtype=np.int64), False),
        (np.array([True, False, True]), False),
        (SPECIAL_TEXT, False),
        (np.array([], dtype=float), False),
        (np.array([np.nan]), True),
    ], ids=["float-list", "float64", "float64-blank-nan", "float32", "int64",
            "flags", "text", "no-rows", "one-blank-row"])
    def test_edge_cells_match_csv_writer(self, tmp_path, values, blank_nan):
        columns = {"index": np.arange(len(values)), "value": values}
        blank = ("value",) if blank_nan else ()
        assert self.written(tmp_path, columns, blank) == \
            csv_writer_reference(self.HEADER, columns, blank)

    def test_flags_print_as_zero_and_one(self, tmp_path):
        lines = self.written(tmp_path, {"flag": np.array([True, False, True])})
        assert lines.splitlines()[-3:] == [b"1", b"0", b"1"]

    def test_lone_empty_field_is_quoted_like_csv(self, tmp_path):
        columns = {"": ["", "a", ""]}
        assert self.written(tmp_path, columns).endswith(b'""\r\n""\r\na\r\n""\r\n')
        assert self.written(tmp_path, columns) == \
            csv_writer_reference(self.HEADER, columns)

    @pytest.mark.parametrize("columns", [
        {"a": np.arange(3.0), "b": np.arange(2)},
        {"a": [1.0, 2.0], "b": ["x", "y", "z"]},
        {"a": np.zeros((2, 2))},
        {"a": np.array([1 + 2j])},
        {},
    ], ids=["short-int", "long-text", "2-d", "complex", "no-columns"])
    def test_bad_columns_raise_and_write_nothing(self, tmp_path, columns):
        path = tmp_path / "table.csv"
        with pytest.raises(st.ContractError):
            write_csv(path, self.HEADER, columns)
        assert not path.exists()


class TestScanRecordInvariants:
    def test_rejects_length_mismatch(self):
        with pytest.raises(st.InputError):
            st.ScanRecord(detunings=np.array([0.0, 1.0]), counts=np.array([1]),
                          dwell_s=1.0, bias_v=0.0)

    def test_rejects_non_monotone_detunings(self):
        with pytest.raises(st.InputError):
            st.ScanRecord(detunings=np.array([0.0, 2.0, 1.0]),
                          counts=np.array([1, 2, 3]), dwell_s=1.0, bias_v=0.0)

    def test_rejects_negative_counts(self):
        with pytest.raises(st.InputError):
            st.ScanRecord(detunings=np.array([0.0, 1.0, 2.0]),
                          counts=np.array([1, -2, 3]), dwell_s=1.0, bias_v=0.0)
