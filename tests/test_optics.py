"""Optics tests.

Strategy
--------
1. Per-plane quadrupole blocks against closed forms and an independent RK4
   integration of the paraxial equations x'' = -k1 x, y'' = +k1 y.
2. Symplecticity (per-plane determinant 1) across the full k1 range.
3. Misalignment feed-down identities (frame shift).
4. Tracking: affinity in the incoming mean, covariance stays symmetric PSD.
5. Screen readout conventions and noise behaviour.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from beamtune.optics import (
    LatticeGeometry,
    Lattice,
    OpticsError,
    TransverseState,
    quad_blocks,
    read_screen,
    track,
)
from beamtune.task import MagnetSettings, TuningEnvironment, make_trial


def rk4_quad_plane(k1: float, length: float, n_steps: int = 4000) -> np.ndarray:
    """2x2 map of u'' = -k1 u, integrated column by column with RK4.

    Independent oracle for the focusing-plane block of a quadrupole.
    """
    h = length / n_steps

    def derivative(state: np.ndarray) -> np.ndarray:
        u, up = state
        return np.array([up, -k1 * u])

    columns = []
    for initial in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        state = initial.astype(float)
        for _ in range(n_steps):
            k1_ = derivative(state)
            k2_ = derivative(state + 0.5 * h * k1_)
            k3_ = derivative(state + 0.5 * h * k2_)
            k4_ = derivative(state + h * k3_)
            state = state + h / 6.0 * (k1_ + 2 * k2_ + 2 * k3_ + k4_)
        columns.append(state)
    return np.column_stack(columns)


class TestQuadMap:
    def test_zero_strength_is_drift(self):
        x, y = quad_blocks(0.0, 0.122)
        expected = np.array([[1.0, 0.122], [0.0, 1.0]])
        assert np.allclose(x, expected, atol=1e-15)
        assert np.allclose(y, expected, atol=1e-15)

    def test_focusing_block_against_closed_form_and_integration(self):
        # x-plane lower-left entry for k1=10, L=0.122:
        # closed form -sqrt(10) sin(sqrt(10) * 0.122) = -1.1899...
        x, _ = quad_blocks(10.0, 0.122)
        closed = -math.sqrt(10.0) * math.sin(math.sqrt(10.0) * 0.122)
        assert x[1, 0] == pytest.approx(closed, abs=1e-12)
        oracle = rk4_quad_plane(10.0, 0.122)
        assert np.allclose(x, oracle, atol=1e-9)

    def test_defocusing_block_against_integration(self):
        # y-plane of a focusing quad obeys u'' = +k1 u
        _, y = quad_blocks(10.0, 0.122)
        oracle = rk4_quad_plane(-10.0, 0.122)
        assert np.allclose(y, oracle, atol=1e-9)

    def test_negative_strength_swaps_planes(self):
        pos_x, pos_y = quad_blocks(7.5, 0.122)
        neg_x, neg_y = quad_blocks(-7.5, 0.122)
        assert np.allclose(pos_x, neg_y, atol=1e-15)
        assert np.allclose(pos_y, neg_x, atol=1e-15)

    @pytest.mark.parametrize("k1", np.linspace(-30.0, 30.0, 100).tolist())
    def test_plane_determinants_one(self, k1):
        x, y = quad_blocks(k1, 0.122)
        assert abs(np.linalg.det(x) - 1.0) < 1e-12
        assert abs(np.linalg.det(y) - 1.0) < 1e-12

    def test_continuous_at_zero(self):
        eps_blocks = quad_blocks(1e-8, 0.122)
        zero_blocks = quad_blocks(0.0, 0.122)
        for eps, zero in zip(eps_blocks, zero_blocks):
            assert np.max(np.abs(eps - zero)) < 1e-6

    @pytest.mark.parametrize("k1", np.linspace(-30.0, 30.0, 100).tolist())
    def test_focusing_sign_convention(self, k1):
        if k1 == 0.0:
            return
        x, y = quad_blocks(k1, 0.122)
        if k1 > 0:
            assert x[1, 0] < 0  # focusing in x
            assert y[1, 0] > 0  # defocusing in y
        else:
            assert x[1, 0] > 0
            assert y[1, 0] < 0

    def test_feed_down_offset_axis_untouched(self):
        # a beam on a displaced Q3's axis, arriving parallel, leaves Q3 on it
        dx, dy = 1.5e-3, -0.7e-3
        geometry = LatticeGeometry()
        lattice = Lattice(geometry=geometry, quad_misalignments=((0, 0), (0, 0), (dx, dy)))
        on_axis = pencil_state(mean=(dx, 0.0, dy, 0.0))
        out = track(lattice, centred_settings(q3=22.0), on_axis)
        assert np.allclose(out.mean, on_axis.mean, atol=1e-15)

    def test_feed_down_kicks_centred_beam(self):
        lattice = Lattice(quad_misalignments=((1e-3, 0.0), (0.0, 0.0), (0.0, 0.0)))
        out = track(lattice, centred_settings(q1=22.0), pencil_state())
        assert out.mean[1] != 0.0  # horizontal steering from the offset
        assert out.mean[2] == 0.0 and out.mean[3] == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(OpticsError):
            quad_blocks(float("nan"), 0.122)
        with pytest.raises(OpticsError):
            quad_blocks(1.0, 0.0)


class TestCorrectorMap:
    def test_zero_angle_identity(self):
        # with every magnet off the section is one drift to the screen
        geometry = LatticeGeometry()
        incoming = pencil_state(mean=(1e-4, 2e-5, -3e-4, 1e-5))
        out = track(Lattice(geometry=geometry), centred_settings(), incoming)
        x, xp, y, yp = incoming.mean
        expected = [x + geometry.screen * xp, xp, y + geometry.screen * yp, yp]
        assert np.allclose(out.mean, expected, rtol=1e-12, atol=0.0)

    def test_vertical_kick_moves_beam_up_downstream(self):
        geometry = LatticeGeometry()
        out = track(Lattice(geometry=geometry), centred_settings(cv=1e-3), pencil_state())
        assert out.mean[3] == pytest.approx(1e-3, rel=1e-12)
        assert out.mean[2] == pytest.approx(1e-3 * (geometry.screen - geometry.cv), rel=1e-12)

    def test_negative_horizontal_steers_left(self):
        geometry = LatticeGeometry()
        out = track(Lattice(geometry=geometry), centred_settings(ch=-2e-3), pencil_state())
        assert out.mean[0] == pytest.approx(-2e-3 * (geometry.screen - geometry.ch), rel=1e-12)
        assert out.mean[2] == 0.0


def centred_settings(**overrides) -> MagnetSettings:
    values = dict(q1=0.0, q2=0.0, cv=0.0, q3=0.0, ch=0.0)
    values.update(overrides)
    return MagnetSettings(**values)


def pencil_state(mean=(0.0, 0.0, 0.0, 0.0)) -> TransverseState:
    return TransverseState.from_moments(mean, (2e-4, 1e-4, 2e-4, 1e-4))


class TestTrack:
    def test_all_zero_stays_centred(self):
        lattice = Lattice()
        out = track(lattice, centred_settings(), pencil_state())
        assert np.allclose(out.mean, 0.0, atol=1e-18)

    def test_cv_kick_times_lever_arm(self):
        geometry = LatticeGeometry()
        lattice = Lattice(geometry=geometry)
        out = track(lattice, centred_settings(cv=1e-3), pencil_state())
        lever = geometry.screen - geometry.cv
        assert out.mean[2] == pytest.approx(1e-3 * lever, rel=1e-12)
        assert out.mean[0] == 0.0

    def test_beam_on_displaced_quad_axis_drifts_straight(self):
        offset = (1e-3, 0.0)
        lattice = Lattice(quad_misalignments=(offset, offset, offset))
        incoming = pencil_state(mean=(1e-3, 0.0, 0.0, 0.0))
        out = track(lattice, centred_settings(q1=17.0, q2=-9.0, q3=25.0), incoming)
        # x equals the offset at every plane, so it is untouched at the screen
        assert out.mean[0] == pytest.approx(1e-3, rel=1e-12)
        assert out.mean[1] == pytest.approx(0.0, abs=1e-15)

    def test_mean_affinity(self):
        lattice = Lattice(
            quad_misalignments=((1e-4, -2e-4), (0.0, 3e-4), (-2e-4, 1e-4)),
            screen_misalignment=(1e-4, -1e-4),
        )
        settings = centred_settings(q1=12.0, q2=-20.0, cv=3e-3, q3=8.0, ch=-2e-3)
        sig = (2e-4, 1e-4, 2e-4, 1e-4)
        m1 = np.array([3e-4, 1e-5, -2e-4, 2e-5])
        m2 = np.array([-1e-4, -3e-5, 4e-4, -1e-5])

        def mean_out(mean):
            state = TransverseState.from_moments(tuple(mean), sig)
            return track(lattice, settings, state).mean

        lhs = mean_out(m1) + mean_out(m2) - mean_out(np.zeros(4))
        rhs = mean_out(m1 + m2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_covariance_stays_symmetric_psd(self):
        lattice = Lattice()
        rng = np.random.default_rng(5)
        for _ in range(20):
            settings = MagnetSettings(
                *(rng.uniform(lo, hi) for lo, hi in MagnetSettings.ranges())
            )
            out = track(lattice, settings, pencil_state())
            cov = out.covariance
            assert np.allclose(cov, cov.T, atol=1e-18)
            assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12


class TestReadScreen:
    def test_plain_readout_in_mm(self):
        state = TransverseState.from_moments((1.2e-3, 0, 0, 0), (1e-4, 1e-4, 1e-4, 1e-4))
        params = read_screen(state)
        assert params.mu_x == pytest.approx(1.20, rel=1e-12)

    def test_screen_offset_shifts_reading(self):
        state = TransverseState.from_moments((0, 0, 0, 0), (1e-4, 1e-4, 1e-4, 1e-4))
        params = read_screen(state, screen_misalignment=(0.5e-3, 0.0))
        assert params.mu_x == pytest.approx(-0.50, rel=1e-12)

    def test_sigma_is_sqrt_of_covariance(self):
        state = TransverseState.from_moments((0, 0, 0, 0), (0.11e-3, 1e-4, 1e-4, 1e-4))
        params = read_screen(state)
        assert params.sigma_x == pytest.approx(0.11, rel=1e-12)

    def test_noise_applies_to_positions_only(self):
        state = TransverseState.from_moments((0, 0, 0, 0), (1e-4, 1e-4, 1e-4, 1e-4))
        a = read_screen(state, noise_sigma=2e-5, rng=np.random.default_rng(1))
        b = read_screen(state, noise_sigma=2e-5, rng=np.random.default_rng(2))
        assert a.mu_x != b.mu_x
        assert a.sigma_x == b.sigma_x

    def test_noise_requires_rng(self):
        state = pencil_state()
        with pytest.raises(OpticsError):
            read_screen(state, noise_sigma=1e-5, rng=None)


class TestGeometryValidation:
    def test_default_order_is_valid(self):
        LatticeGeometry()

    def test_overlapping_quads_rejected(self):
        with pytest.raises(OpticsError):
            LatticeGeometry(q1=0.18, q2=0.20)  # Q2 starts inside Q1

    def test_overlap_within_tolerance_is_a_zero_drift(self):
        # Q2 starts 5e-13 m inside Q1: accepted, and tracked as no drift
        geometry = LatticeGeometry(q2=0.18 + 0.122 - 5e-13)
        assert geometry.drift_lengths()[1] == 0.0
        TuningEnvironment(make_trial(1), geometry=geometry).reset()
        with pytest.raises(OpticsError):
            LatticeGeometry(q2=0.18 + 0.122 - 1e-9)

    def test_nonfinite_misalignment_rejected(self):
        with pytest.raises(OpticsError):
            Lattice(quad_misalignments=((0.0, 0.0), (float("nan"), 0.0), (0.0, 0.0)))

    def test_state_validation(self):
        with pytest.raises(OpticsError):
            TransverseState(np.zeros(4), -np.eye(4))
        with pytest.raises(OpticsError):
            TransverseState(np.array([np.nan, 0, 0, 0]), np.eye(4))
