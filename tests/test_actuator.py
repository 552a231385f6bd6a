import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hyp

import snvtune as st
from snvtune.actuator import DeviceGeometry, ThermalModel, hinge_point
from snvtune.strain import DEFAULT_STRAIN_GUARD

from oracles import pulsed_heat_peak, second_derivative


class TestBendingProfile:
    def test_neutral_axis_vanishes(self, device):
        geo = device.geometry
        for x in (0.0, 5e-6, 19e-6):
            assert st.bending_profile(geo, (x, 0.0, 0.0)) == 0.0

    def test_top_bottom_antisymmetry(self, device):
        geo = device.geometry
        z = 0.5 * geo.h_waveguide
        for x in (0.0, 3e-6, 12e-6):
            top = st.bending_profile(geo, (x, 0.0, z))
            bottom = st.bending_profile(geo, (x, 0.0, -z))
            assert top == pytest.approx(-bottom, rel=1e-14)

    def test_sign_reverses_through_inflection(self, device):
        geo = device.geometry
        z = 0.5 * geo.h_waveguide
        before = st.bending_profile(geo, (0.25 * geo.l_waveguide, 0.0, z))
        after = st.bending_profile(geo, (0.75 * geo.l_waveguide, 0.0, z))
        assert before * after < 0.0

    def test_hinge_vs_4um_ratio_matches_curvature_oracle(self, device):
        geo = device.geometry
        z = 0.5 * geo.h_waveguide
        length_um = geo.l_waveguide * 1e6  # micron units avoid cancellation

        def deflection(x_um):
            # clamped-guided shape underlying the profile, arbitrary scale
            return x_um * x_um * (3.0 * length_um - 2.0 * x_um)

        h = length_um / 2000.0
        oracle = (second_derivative(deflection, 0.0, h)
                  / second_derivative(deflection, 4.0, h))
        ratio = (st.bending_profile(geo, (0.0, 0.0, z))
                 / st.bending_profile(geo, (4e-6, 0.0, z)))
        assert ratio == pytest.approx(oracle, rel=1e-9)

    def test_outside_beam_is_domain_error(self, device):
        geo = device.geometry
        with pytest.raises(st.DomainError):
            st.bending_profile(geo, (-1e-9, 0.0, 0.0))
        with pytest.raises(st.DomainError):
            st.bending_profile(geo, (0.0, geo.w_waveguide, 0.0))
        with pytest.raises(st.DomainError):
            st.bending_profile(geo, (0.0, 0.0, geo.h_waveguide))

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DeviceGeometry)])
    def test_every_geometry_length_is_read(self, name):
        # the profile over points inside and just outside the default beam
        # (None where the point is off the beam); a length that moves none
        # of them is an input the model ignores
        def profile(geo):
            out = []
            for point in ((x, y, z) for x in (4e-6, 22e-6) for y in (0.0, 150e-9)
                          for z in (60e-9, 100e-9)):
                try:
                    out.append(st.bending_profile(geo, point))
                except st.DomainError:
                    out.append(None)
            return out

        base = DeviceGeometry()
        grown = dataclasses.replace(base, **{name: 1.5 * getattr(base, name)})
        assert profile(grown) != profile(base)


class TestStrainAt:
    def test_zero_voltage_zero_tensor_everywhere(self, device, rng):
        geo = device.geometry
        for _ in range(20):
            pos = (rng.uniform(0, geo.l_waveguide),
                   rng.uniform(-geo.w_waveguide / 2, geo.w_waveguide / 2),
                   rng.uniform(-geo.h_waveguide / 2, geo.h_waveguide / 2))
            eps = st.strain_at(device, pos, 0.0)
            assert np.all(eps.as_matrix() == 0.0)

    def test_calibration_anchor_at_reference_voltage(self, device):
        eps = st.strain_at(device, hinge_point(device.geometry), 75.0)
        assert eps.e_xx == pytest.approx(7e-5, abs=1e-9 * 7e-5)

    def test_half_voltage_gives_quarter_strain(self, device):
        eps = st.strain_at(device, hinge_point(device.geometry), 37.5)
        assert eps.e_xx == pytest.approx(1.75e-5, rel=1e-12)

    def test_exactly_quadratic_in_voltage(self, device):
        pos = (2e-6, 0.0, 60e-9)
        e1 = st.strain_at(device, pos, 20.0).e_xx
        e2 = st.strain_at(device, pos, 40.0).e_xx
        e3 = st.strain_at(device, pos, 80.0).e_xx
        assert e2 / e1 == pytest.approx(4.0, rel=1e-10)
        assert e3 / e2 == pytest.approx(4.0, rel=1e-10)

    def test_normalization_over_dense_grid(self, device):
        geo, cal = device.geometry, device.calibration
        xs = np.linspace(0.0, geo.l_waveguide, 101)
        zs = np.linspace(-geo.h_waveguide / 2, geo.h_waveguide / 2, 21)
        peak = max(abs(st.strain_at(device, (x, 0.0, z), cal.v_ref).e_xx)
                   for x in xs for z in zs)
        assert peak == pytest.approx(cal.eps_ref, abs=1e-9 * cal.eps_ref)

    def test_tensor_ratios_applied(self, device):
        eps = st.strain_at(device, hinge_point(device.geometry), 50.0)
        cal = device.calibration
        assert eps.e_yy == pytest.approx(cal.ratio_yy * eps.e_xx, rel=1e-14)
        assert eps.e_zz == pytest.approx(cal.ratio_zz * eps.e_xx, rel=1e-14)
        assert eps.e_xy == 0.0 and eps.e_yz == 0.0 and eps.e_zx == 0.0

    def test_over_voltage_is_range_error(self, device):
        with pytest.raises(st.RangeError):
            st.strain_at(device, hinge_point(device.geometry),
                         device.calibration.v_max + 1.0)


class TestThermalModel:
    def test_safe_operating_point_is_exactly_zero(self, device):
        th = device.thermal
        assert st.pulsed_resonance_offset(th, 50.0, 1500.0, 75.0) == 0.0

    def test_full_relaxation_any_short_pulse(self, device):
        th = device.thermal
        for pulse in (5.0, 25.0, 50.0):
            assert st.pulsed_resonance_offset(th, pulse, 1e9, 75.0) == 0.0

    def test_overdriven_pulse_strictly_negative(self, device):
        th = device.thermal
        offset = st.pulsed_resonance_offset(th, 2 * th.max_pulse_us, 0.0, 75.0)
        assert offset < 0.0
        # the peak heat of a time-stepped pulse train
        heat = pulsed_heat_peak(2 * th.max_pulse_us, 0.0, th.relax_time_us)
        safe = pulsed_heat_peak(th.max_pulse_us, th.cooldown_time_us, th.relax_time_us)
        assert offset == pytest.approx(-th.heat_shift_coeff * (heat - safe), rel=1e-9)

    def test_monotone_in_cooldown(self, device):
        th = device.thermal
        offsets = [st.pulsed_resonance_offset(th, 120.0, c, 75.0)
                   for c in (0.0, 200.0, 800.0, 2000.0, 6000.0)]
        assert all(a <= b for a, b in zip(offsets, offsets[1:]))

    PULSES = hyp.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    COOLDOWNS = hyp.floats(min_value=0.0, allow_infinity=False)

    @given(pulses=hyp.tuples(PULSES, PULSES), cooldowns=hyp.tuples(COOLDOWNS, COOLDOWNS),
           v=hyp.floats(0.0, 80.0))
    @example(pulses=(5e-324, 5e-324), cooldowns=(0.0, 5e-324), v=75.0)
    @example(pulses=(5e-324, sys.float_info.max), cooldowns=(0.0, 1e-300), v=75.0)
    @example(pulses=(1e-300, 1e6), cooldowns=(0.0, sys.float_info.max), v=80.0)
    @settings(deadline=None)
    def test_monotone_finite_with_dc_limit(self, device, pulses, cooldowns, v):
        th = device.thermal

        def offset(pulse, cooldown):
            value = st.pulsed_resonance_offset(th, pulse, cooldown, v)
            assert math.isfinite(value) and value <= 0.0
            return value

        short, long = sorted(pulses)
        less, more = sorted(cooldowns)
        assert offset(long, less) <= offset(short, less)
        assert offset(short, less) <= offset(short, more)
        # no cooldown: every pulse is DC
        assert offset(short, 0.0) == offset(long, 0.0) == offset(1e9, 0.0)

    def test_scales_with_voltage_squared(self, device):
        th = device.thermal
        lo = st.pulsed_resonance_offset(th, 200.0, 0.0, 30.0)
        hi = st.pulsed_resonance_offset(th, 200.0, 0.0, 60.0)
        assert hi < lo < 0.0


class TestPullIn:
    """The beam stays far from pull-in: the electrostatic drive scales as V^2,
    and every voltage is checked against the calibrated v_max."""

    def test_zero_voltage_zero_deflection(self, config, device):
        for emitter in config.emitters.values():
            assert st.shift_from_voltage_chain(emitter, device, 0.0) == 0.0

    def test_quadratic_scaling(self, axial, device):
        # the A1g (mean ZPL) shift is linear in strain, so exactly quadratic in V
        def zpl_shift(v):
            return st.level_response_at(axial, device, v).nu_zpl - axial.nu_zpl0()

        assert zpl_shift(70.0) / zpl_shift(35.0) == pytest.approx(4.0, rel=1e-9)

    def test_deflection_small_at_operating_voltages(self, device):
        # peak strain at v_max stays deep in the small-strain regime
        eps = st.strain_at(device, hinge_point(device.geometry),
                           device.calibration.v_max)
        assert np.max(np.abs(eps.as_matrix())) < DEFAULT_STRAIN_GUARD / 100

    def test_pull_in_raises(self, axial, device):
        with pytest.raises(st.RangeError):
            st.shift_from_voltage_chain(axial, device, 2000.0)


class TestOrientationContrast:
    def test_axial_dominates_transversal(self, config, device):
        v = device.calibration.v_max
        ax = abs(st.shift_from_voltage_chain(config.emitter("axial_hinge"), device, v))
        tr = abs(st.shift_from_voltage_chain(config.emitter("transversal_hinge"),
                                             device, v))
        assert ax >= 5.0 * tr
        assert ax >= 40.0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(st.InputError):
            DeviceGeometry(w_waveguide=0.0)
        with pytest.raises(st.InputError):
            ThermalModel(cooldown_time_us=-1.0)
