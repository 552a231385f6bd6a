from dataclasses import replace

import numpy as np
import pytest

import snvtune as st
from snvtune.frames import Orientation
from snvtune.strain import Frame, StrainTensor

from oracles import random_rotation, random_symmetric, rotate_index_sum

ALL = list(Orientation)
# axes with a component along the [110] waveguide axis
AXIAL = {Orientation.P111, Orientation.MM11}


class TestLabToCrystal:
    def test_lab_x_maps_to_110(self):
        r = st.lab_to_crystal()
        assert np.allclose(r @ [1, 0, 0], np.array([1, 1, 0]) / np.sqrt(2))

    def test_lab_z_maps_to_001(self):
        r = st.lab_to_crystal()
        assert np.allclose(r @ [0, 0, 1], [0, 0, 1])

    def test_orthonormal(self):
        r = st.lab_to_crystal()
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


class TestDefectRotation:
    @pytest.mark.parametrize("o", ALL)
    def test_is_proper_rotation(self, o):
        r = st.defect_rotation(o)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("o", ALL)
    def test_maps_own_axis_to_z(self, o):
        r = st.defect_rotation(o)
        assert np.allclose(r @ o.axis, [0, 0, 1], atol=1e-12)

    def test_111_z_axis_row(self):
        r = st.defect_rotation(Orientation.P111)
        assert np.allclose(r.T @ [0, 0, 1], np.ones(3) / np.sqrt(3))

    @pytest.mark.parametrize("o", ALL)
    def test_in_plane_angle_still_proper(self, o):
        r = st.defect_rotation(o, in_plane_angle=0.7)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.allclose(r @ o.axis, [0, 0, 1], atol=1e-12)


class TestRotateStrain:
    def test_identity_rotation(self, rng):
        eps = StrainTensor(*rng.uniform(-1e-3, 1e-3, 6), frame=Frame.LAB)
        out = st.rotate_strain(eps, np.eye(3), Frame.LAB)
        assert np.allclose(out.as_matrix(), eps.as_matrix())

    def test_trace_preserved(self, rng):
        for _ in range(50):
            eps = StrainTensor.from_matrix(random_symmetric(rng, 1e-3), Frame.LAB)
            r = random_rotation(rng)
            out = st.rotate_strain(eps, r, Frame.CRYSTAL)
            assert np.trace(out.as_matrix()) == pytest.approx(
                np.trace(eps.as_matrix()), abs=1e-15)

    def test_eigenvalues_preserved(self, rng):
        for _ in range(50):
            eps = StrainTensor.from_matrix(random_symmetric(rng, 1e-3), Frame.LAB)
            r = random_rotation(rng)
            out = st.rotate_strain(eps, r, Frame.CRYSTAL)
            assert np.allclose(np.sort(np.linalg.eigvalsh(out.as_matrix())),
                               np.sort(np.linalg.eigvalsh(eps.as_matrix())),
                               atol=1e-13)

    def test_round_trip(self, rng):
        eps = StrainTensor.from_matrix(random_symmetric(rng, 1e-3), Frame.LAB)
        r = random_rotation(rng)
        there = st.rotate_strain(eps, r, Frame.CRYSTAL)
        back = st.rotate_strain(there, r.T, Frame.LAB)
        assert np.allclose(back.as_matrix(), eps.as_matrix(), atol=1e-15)

    def test_uniaxial_against_index_sum_oracle(self):
        # the calibration-scale uniaxial strain rotated into a defect frame
        eps = StrainTensor(7e-5, 0, 0, 0, 0, 0, frame=Frame.LAB)
        r = st.lab_to_defect(Orientation.P111)
        out = st.rotate_strain(eps, r, Frame.DEFECT)
        assert np.allclose(out.as_matrix(),
                           rotate_index_sum(eps.as_matrix(), r), atol=1e-18)

    def test_rejects_non_rotation(self, rng):
        eps = StrainTensor(1e-4, 0, 0, 0, 0, 0, frame=Frame.LAB)
        with pytest.raises(st.ContractError):
            st.rotate_strain(eps, np.diag([1.0, 1.0, 2.0]), Frame.CRYSTAL)
        with pytest.raises(st.ContractError):
            st.rotate_strain(eps, -np.eye(3), Frame.CRYSTAL)  # improper

    @pytest.mark.parametrize("bad", [np.diag([1.0, 1.0, 2.0]), -np.eye(3)],
                             ids=["non_orthonormal", "improper"])
    def test_rejects_the_same_bad_matrix_on_every_call(self, bad):
        eps = StrainTensor(1e-4, 0, 0, 0, 0, 0, frame=Frame.LAB)
        for _ in range(3):
            with pytest.raises(st.ContractError):
                st.rotate_strain(eps, bad, Frame.CRYSTAL)

    def test_matrix_mutated_after_passing_is_checked_again(self, rng):
        eps = StrainTensor(1e-4, 0, 0, 0, 0, 0, frame=Frame.LAB)
        r = random_rotation(rng)
        st.rotate_strain(eps, r, Frame.CRYSTAL)
        r[2] *= -1.0  # now improper
        with pytest.raises(st.ContractError, match="proper"):
            st.rotate_strain(eps, r, Frame.CRYSTAL)
        r[2, 2] += 0.5  # now not orthonormal either
        with pytest.raises(st.ContractError, match="orthonormal"):
            st.rotate_strain(eps, r, Frame.CRYSTAL)


class TestLabToDefectCache:
    @pytest.mark.parametrize("o", ALL)
    def test_repeat_calls_share_one_read_only_array(self, o):
        r = st.lab_to_defect(o)
        assert st.lab_to_defect(o) is r
        assert not r.flags.writeable
        with pytest.raises(ValueError):
            r[0, 0] = 0.0

    @pytest.mark.parametrize("angle", [0.0, 2.0 * np.pi / 3.0, 0.3])
    @pytest.mark.parametrize("o", ALL)
    def test_equals_defect_rotation_times_lab_to_crystal_bit_for_bit(self, o, angle):
        expected = st.defect_rotation(o, angle) @ st.lab_to_crystal()
        assert st.lab_to_defect(o, angle).tobytes() == expected.tobytes()


def _waveguide_axis():
    # the lab x axis, along the waveguide, in crystal coordinates
    return st.lab_to_crystal() @ np.array([1.0, 0.0, 0.0])


class TestClassification:
    """The axial/transversal grouping follows from the geometry and the chain."""

    def test_111_is_axial(self, config, device):
        assert abs(np.dot(Orientation.P111.axis, _waveguide_axis())) > 0.5
        emitter = replace(config.emitter("axial_hinge"),
                          orientation=Orientation.P111)
        v_max = device.calibration.v_max
        assert abs(st.shift_from_voltage_chain(emitter, device, v_max)) >= 40.0

    def test_two_per_class(self):
        # axial axes lean into the waveguide axis, transversal ones are normal to it
        proj = {o: abs(np.dot(o.axis, _waveguide_axis())) for o in ALL}
        assert {o for o in ALL if proj[o] > 1e-12} == AXIAL
        assert len(AXIAL) == 2
        assert all(proj[o] < 1e-12 for o in set(ALL) - AXIAL)

    @pytest.mark.parametrize("o", ALL)
    def test_sign_flip_invariant(self, o, config, rng):
        # a direction and its negative are the same defect axis: the D3d C2
        # turn about defect y sends z to -z, keeps Eg_x and negates Eg_y
        rot = st.lab_to_defect(o)
        flipped = np.diag([-1.0, 1.0, -1.0]) @ rot
        assert np.allclose(flipped.T @ [0, 0, 1], -(rot.T @ [0, 0, 1]), atol=1e-12)
        eps = StrainTensor.from_matrix(random_symmetric(rng, 5e-5), Frame.LAB)
        so = config.physics.spin_orbit
        resp = []
        for r in (rot, flipped):
            eps_def = st.rotate_strain(eps, r, Frame.DEFECT)
            ir_g = st.irreducible_components(eps_def, config.physics.susc_g)
            ir_u = st.irreducible_components(eps_def, config.physics.susc_u)
            resp.append((ir_g, st.level_response(ir_g, ir_u, so, nu0=0.0)))
        (ir_a, a), (ir_b, b) = resp
        assert ir_b.eps_a1g == pytest.approx(ir_a.eps_a1g, rel=1e-10)
        assert ir_b.eps_egx == pytest.approx(ir_a.eps_egx, rel=1e-10)
        assert ir_b.eps_egy == pytest.approx(-ir_a.eps_egy, rel=1e-10)
        for field in ("nu_zpl", "delta_g", "delta_u", "nu_c"):
            assert getattr(b, field) == pytest.approx(getattr(a, field),
                                                      rel=1e-10, abs=1e-9)


def _eg_magnitude(o, susc, eps_lab):
    rot = st.lab_to_defect(o)
    eps_def = st.rotate_strain(eps_lab, rot, Frame.DEFECT)
    ir = st.irreducible_components(eps_def, susc)
    return ir.eps_egx ** 2 + ir.eps_egy ** 2


class TestStrainResponseSymmetry:
    """The axial/transversal grouping is defined by the strain response."""

    def test_pairwise_equivalence_under_110_uniaxial(self, config):
        susc = config.physics.susc_g
        # pure uniaxial lab strain along the waveguide ([110]) axis
        eps = StrainTensor(7e-5, 0, 0, 0, 0, 0, frame=Frame.LAB)
        eg = {o: _eg_magnitude(o, susc, eps) for o in ALL}
        for pair in (AXIAL, set(ALL) - AXIAL):
            a, b = (eg[o] for o in pair)
            assert a == pytest.approx(b, rel=1e-10)

    def test_classes_differ_in_full_transition_shift(self, config, device):
        shifts = {o: None for o in ALL}
        template = config.emitter("axial_hinge")
        for o in ALL:
            emitter = replace(template, orientation=o)
            shifts[o] = st.shift_from_voltage_chain(emitter, device,
                                                    device.calibration.v_max)
        axial = [abs(shifts[o]) for o in ALL if o in AXIAL]
        trans = [abs(shifts[o]) for o in ALL if o not in AXIAL]
        assert min(axial) > 5.0 * max(trans)

    def test_threefold_convention_change_leaves_splittings_unchanged(self, config, rng):
        # The defect has threefold symmetry: relabeling the in-plane axes by
        # multiples of 120 degrees is the legitimate convention freedom.
        susc_g, susc_u = config.physics.susc_g, config.physics.susc_u
        so = config.physics.spin_orbit
        eps = StrainTensor.from_matrix(random_symmetric(rng, 5e-5), Frame.LAB)
        for o in ALL:
            base = None
            for step in (0, 1, 2):
                rot = st.lab_to_defect(o, in_plane_angle=step * 2.0 * np.pi / 3.0)
                eps_def = st.rotate_strain(eps, rot, Frame.DEFECT)
                resp = st.level_response(
                    st.irreducible_components(eps_def, susc_g),
                    st.irreducible_components(eps_def, susc_u), so, nu0=0.0)
                if base is None:
                    base = resp
                else:
                    assert resp.delta_g == pytest.approx(base.delta_g, rel=1e-10)
                    assert resp.delta_u == pytest.approx(base.delta_u, rel=1e-10)
