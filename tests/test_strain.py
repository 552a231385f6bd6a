import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hyp

import snvtune as st
from snvtune.strain import Frame, IrreducibleStrain, SpinOrbit, StrainTensor

from oracles import eigengap_2x2

GROUND = st.StrainSusceptibilities(t_perp=0.52e6, t_par=1.5e6, d=0.6e6, f=-1.7e6)
EXCITED = st.StrainSusceptibilities(t_perp=0.3e6, t_par=0.5e6, d=0.45e6, f=-1.24e6)
SO = SpinOrbit(lambda_g=850.0, lambda_u=3000.0)


def defect_tensor(e_xx=0.0, e_yy=0.0, e_zz=0.0, e_yz=0.0, e_zx=0.0, e_xy=0.0):
    return StrainTensor(e_xx, e_yy, e_zz, e_yz, e_zx, e_xy, frame=Frame.DEFECT)


def random_defect_tensor(rng, scale=1e-3):
    vals = rng.uniform(-scale, scale, 6)
    return defect_tensor(*vals)


class TestIrreducibleComponents:
    def test_zero_tensor(self):
        ir = st.irreducible_components(defect_tensor(), GROUND)
        assert (ir.eps_a1g, ir.eps_egx, ir.eps_egy) == (0.0, 0.0, 0.0)

    def test_hydrostatic(self):
        s = 3e-4
        ir = st.irreducible_components(defect_tensor(e_xx=s, e_yy=s, e_zz=s), GROUND)
        assert ir.eps_a1g == pytest.approx((2 * GROUND.t_perp + GROUND.t_par) * s, rel=1e-14)
        assert ir.eps_egx == 0.0
        assert ir.eps_egy == 0.0

    def test_generic_tensor_against_literal_oracle(self, rng):
        for _ in range(20):
            eps = random_defect_tensor(rng)
            for susc in (GROUND, EXCITED):
                ir = st.irreducible_components(eps, susc)
                # independent literal re-evaluation of the linear combinations
                a1g = susc.t_perp * (eps.e_xx + eps.e_yy) + susc.t_par * eps.e_zz
                egx = susc.d * (eps.e_xx - eps.e_yy) + susc.f * eps.e_zx
                egy = -2.0 * susc.d * eps.e_xy + susc.f * eps.e_yz
                assert ir.eps_a1g == pytest.approx(a1g, abs=1e-18, rel=1e-14)
                assert ir.eps_egx == pytest.approx(egx, abs=1e-18, rel=1e-14)
                assert ir.eps_egy == pytest.approx(egy, abs=1e-18, rel=1e-14)

    def test_requires_defect_frame(self):
        eps = StrainTensor(1e-4, 0, 0, 0, 0, 0, frame=Frame.LAB)
        with pytest.raises(st.ContractError):
            st.irreducible_components(eps, GROUND)

    @given(
        a=hyp.lists(hyp.floats(-1e-3, 1e-3), min_size=6, max_size=6),
        b=hyp.lists(hyp.floats(-1e-3, 1e-3), min_size=6, max_size=6),
        scale=hyp.floats(-4.0, 4.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, scale):
        ta, tb = defect_tensor(*a), defect_tensor(*b)
        summed = defect_tensor(*(x + y for x, y in zip(a, b)))
        scaled = defect_tensor(*(scale * x for x in a))
        ir_a = st.irreducible_components(ta, GROUND)
        ir_b = st.irreducible_components(tb, GROUND)
        ir_sum = st.irreducible_components(summed, GROUND)
        ir_scaled = st.irreducible_components(scaled, GROUND)
        for name in ("eps_a1g", "eps_egx", "eps_egy"):
            assert getattr(ir_sum, name) == pytest.approx(
                getattr(ir_a, name) + getattr(ir_b, name), abs=1e-9)
            assert getattr(ir_scaled, name) == pytest.approx(
                scale * getattr(ir_a, name), abs=1e-9)


class TestStrainMatrix:
    def test_zero_inputs_give_zero_matrix(self):
        h = st.strain_matrix(IrreducibleStrain(0, 0, 0), 0.0)
        assert np.all(h == 0)

    def test_pure_a1g_is_degenerate_identity_shift(self):
        a = 12.5
        h = st.strain_matrix(IrreducibleStrain(a, 0, 0), 0.0)
        assert np.allclose(h, a * np.eye(2))
        vals = np.linalg.eigvalsh(h)
        assert vals[0] == pytest.approx(vals[1])

    def test_eigengap_matches_closed_form(self, rng):
        for _ in range(200):
            ir = IrreducibleStrain(*rng.uniform(-50, 50, 3))
            lam = rng.uniform(0, 3000)
            h = st.strain_matrix(ir, lam)
            assert np.allclose(h, h.conj().T)
            gap = eigengap_2x2(h)
            assert gap == pytest.approx(st.splitting(ir, lam), rel=1e-10)


class TestLevelResponse:
    def test_zero_strain_limit_is_exact(self):
        zero = IrreducibleStrain(0, 0, 0)
        resp = st.level_response(zero, zero, SO, nu0=484130.0)
        assert resp.nu_zpl == 484130.0
        assert resp.delta_g == SO.lambda_g
        assert resp.delta_u == SO.lambda_u

    def test_pure_egx_no_spin_orbit(self):
        e = 7.25
        resp = st.level_response(IrreducibleStrain(0, e, 0), IrreducibleStrain(0, 0, 0),
                                 SpinOrbit(0.0, 0.0), nu0=0.0)
        assert resp.delta_g == pytest.approx(2 * e, rel=1e-14)

    def test_matches_eigendecomposition_oracle(self, rng):
        for _ in range(100):
            ir_g = IrreducibleStrain(*rng.uniform(-80, 80, 3))
            ir_u = IrreducibleStrain(*rng.uniform(-80, 80, 3))
            resp = st.level_response(ir_g, ir_u, SO, nu0=1000.0)
            assert resp.delta_g == pytest.approx(
                eigengap_2x2(st.strain_matrix(ir_g, SO.lambda_g)), rel=1e-10)
            assert resp.delta_u == pytest.approx(
                eigengap_2x2(st.strain_matrix(ir_u, SO.lambda_u)), rel=1e-10)

    def test_c_transition_links_lowest_branches(self, rng):
        ir_g = IrreducibleStrain(*rng.uniform(-30, 30, 3))
        ir_u = IrreducibleStrain(*rng.uniform(-30, 30, 3))
        resp = st.level_response(ir_g, ir_u, SO, nu0=484000.0)
        assert resp.nu_c == pytest.approx(
            resp.nu_zpl - 0.5 * resp.delta_u + 0.5 * resp.delta_g, rel=1e-14)

    def test_splitting_never_below_spin_orbit(self, rng):
        for _ in range(50):
            ir = IrreducibleStrain(*rng.uniform(-100, 100, 3))
            assert st.splitting(ir, SO.lambda_g) >= SO.lambda_g

    def test_monotone_in_eg_magnitudes(self):
        base = st.splitting(IrreducibleStrain(5.0, 10.0, 4.0), 850.0)
        for grown in (IrreducibleStrain(5.0, 14.0, 4.0),
                      IrreducibleStrain(5.0, 10.0, 9.0),
                      IrreducibleStrain(5.0, -14.0, 4.0)):
            assert st.splitting(grown, 850.0) >= base

    def test_a1g_decoupling(self, rng):
        ir_g = IrreducibleStrain(*rng.uniform(-20, 20, 3))
        ir_u = IrreducibleStrain(*rng.uniform(-20, 20, 3))
        off_g, off_u = 3.7, -1.9
        base = st.level_response(ir_g, ir_u, SO, nu0=0.0)
        shifted = st.level_response(
            IrreducibleStrain(ir_g.eps_a1g + off_g, ir_g.eps_egx, ir_g.eps_egy),
            IrreducibleStrain(ir_u.eps_a1g + off_u, ir_u.eps_egx, ir_u.eps_egy),
            SO, nu0=0.0)
        assert shifted.delta_g == base.delta_g
        assert shifted.delta_u == base.delta_u
        assert shifted.nu_zpl - base.nu_zpl == pytest.approx(off_u - off_g, rel=1e-12)


class TestStrainTensorType:
    def test_rejects_non_finite(self):
        with pytest.raises(st.InputError):
            StrainTensor(np.nan, 0, 0, 0, 0, 0)

    def test_small_strain_guard(self):
        with pytest.raises(st.InputError):
            StrainTensor(0.5, 0, 0, 0, 0, 0)

    def test_matrix_round_trip(self, rng):
        eps = random_defect_tensor(rng)
        again = StrainTensor.from_matrix(eps.as_matrix(), Frame.DEFECT)
        assert np.allclose(eps.as_matrix(), again.as_matrix())
        m = eps.as_matrix()
        assert np.allclose(m, m.T)


class TestVoltageChain:
    def test_zero_voltage_zero_shift(self, config, device):
        for name in config.emitters:
            assert st.shift_from_voltage_chain(config.emitter(name), device, 0.0) == 0.0

    def test_bulk_reference_never_shifts(self, bulk, device):
        for v in (0.0, 20.0, 55.0, 80.0):
            assert st.shift_from_voltage_chain(bulk, device, v) == 0.0

    def test_axial_hinge_reaches_tens_of_ghz(self, axial, device):
        shift = st.shift_from_voltage_chain(axial, device, device.calibration.v_max)
        assert abs(shift) >= 40.0
        assert shift < 0.0  # red shift under tensile hinge strain

    def test_tuning_curve_matches_chain(self, axial, transversal, bulk, device, rng):
        for emitter in (axial, transversal, bulk):
            curve = st.TuningCurve(emitter, device)
            for v in rng.uniform(0.0, device.calibration.v_max, 25):
                direct = st.shift_from_voltage_chain(emitter, device, float(v))
                assert curve.shift(float(v)) == pytest.approx(direct, abs=1e-9)

    @given(data=hyp.data(), frac=hyp.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_shift_is_a_float_matching_the_chain(self, config, device, data, frac):
        emitter = config.emitter(data.draw(hyp.sampled_from(sorted(config.emitters))))
        curve = st.TuningCurve(emitter, device)
        v = frac * device.calibration.v_max
        scalar = curve.shift(v)
        assert type(scalar) is float
        direct = st.shift_from_voltage_chain(emitter, device, v)
        assert scalar == pytest.approx(direct, rel=1e-9, abs=1e-9)
        # numpy scalars and 0-d arrays give the float of their Python value
        for same in (np.float64(v), np.asarray(v), np.float32(v), np.int64(round(v))):
            got = curve.shift(same)
            assert type(got) is float
            assert got.hex() == curve.shift(float(same)).hex()

    @given(data=hyp.data(), frac=hyp.floats(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_slope_matches_central_difference_of_the_chain(self, config, device,
                                                           data, frac):
        emitter = config.emitter(data.draw(hyp.sampled_from(sorted(config.emitters))))
        curve = st.TuningCurve(emitter, device)
        v, h = frac * device.calibration.v_max, 1e-2
        numeric = (st.shift_from_voltage_chain(emitter, device, v + h)
                   - st.shift_from_voltage_chain(emitter, device, v - h)) / (2.0 * h)
        # the chain agrees with the curve to 1e-9 GHz, which the difference
        # amplifies to 1e-7 GHz/V; its truncation error is a relative 1e-5
        assert curve.slope(v) == pytest.approx(numeric, rel=1e-5, abs=1e-7)

    def test_golden_shift_digest(self, config, device):
        # Pinned before TuningCurve's formula moved into ``shifts``: every
        # emitter, through ``shift`` one voltage at a time and through one
        # ``shifts`` call, over a grid with -0.0, v_max, a
        # voltage past it and a NaN.  A NaN result is hashed as one fixed
        # pattern, so only the values, not the NaN payload, are pinned.
        v_max = device.calibration.v_max
        grid = [-0.0, 0.0, 1e-3, 0.5, 7.25, 20.0, 39.999, 40.0, 55.5, 75.0,
                79.99, v_max, 120.0, -33.0, math.nan]
        digest = hashlib.sha256()
        for name in sorted(config.emitters):
            curve = st.TuningCurve(config.emitter(name), device)
            scalar = np.array([curve.shift(v) for v in grid])
            listed = np.array(curve.shifts(grid))
            assert np.isnan(scalar[-1]) and np.isnan(listed[-1])
            for out in (scalar, listed):
                out = np.where(np.isnan(out), math.nan, out)
                digest.update(name.encode() + out.tobytes())
        assert digest.hexdigest() == (
            "cf65e4d5cac87701de466c040a2eafdad1f3575d4de41ba28430337de7a2cfd3")

    def test_level_response_invariants_along_curve(self, axial, device):
        so = axial.spin_orbit
        for v in np.linspace(0.0, device.calibration.v_max, 7):
            resp = st.level_response_at(axial, device, float(v))
            assert resp.delta_g >= so.lambda_g
            assert resp.delta_u >= so.lambda_u
