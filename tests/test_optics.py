"""Optics tests.

Strategy
--------
1. Per-plane quadrupole blocks against closed forms and an independent RK4
   integration of the paraxial equations x'' = -k1 x, y'' = +k1 y.
2. Symplecticity (per-plane determinant 1) across the full k1 range.
3. Misalignment feed-down identities (frame shift).
4. Tracking: affinity in the incoming mean, covariance stays symmetric PSD,
   and the same bits as composing (x, y) element pairs, with an identity
   element for each corrector in its other plane.
5. Screen readout conventions, noise behaviour and the guard on a
   non-finite beam; the inputs themselves are checked where they enter
   (``Trial``, ``LatticeGeometry``, ``TuningEnvironment.step``).
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
from beamtune.task import ACTUATOR_RANGES, MagnetSettings, TuningEnvironment, make_trial


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


def _reference_track(lattice: Lattice, settings, incoming: TransverseState) -> TransverseState:
    """``track`` as (x, y) element pairs in beam order, each corrector with
    an identity element in the plane it does not act on."""
    g = lattice.geometry

    def drift(length):
        element = (np.array([[1.0, length], [0.0, 1.0]]), 0.0, 0.0)
        return element, element

    def quad(k1, misalignment):
        return tuple(
            (block, (1.0 - block[0, 0]) * axis, -block[1, 0] * axis)
            for block, axis in zip(quad_blocks(k1, g.quad_length), misalignment)
        )

    def kick(angle):
        return (np.eye(2), 0.0, angle)

    def compose(elements):
        matrix = np.eye(2)
        u = slope = 0.0
        for block, e_u, e_slope in elements:
            matrix = block @ matrix
            u, slope = (
                block[0, 0] * u + block[0, 1] * slope + e_u,
                block[1, 0] * u + block[1, 1] * slope + e_slope,
            )
        return matrix, u, slope

    d = [drift(length) for length in g.drift_lengths()]
    m = lattice.quad_misalignments
    pairs = [
        d[0], quad(settings.q1, m[0]), d[1], quad(settings.q2, m[1]), d[2],
        (kick(0.0), kick(settings.cv)), d[3], quad(settings.q3, m[2]), d[4],
        (kick(settings.ch), kick(0.0)), d[5],
    ]
    x_block, x_u, x_slope = compose(x for x, _ in pairs)
    y_block, y_u, y_slope = compose(y for _, y in pairs)
    R = np.zeros((4, 4))
    R[:2, :2] = x_block
    R[2:, 2:] = y_block
    mean = R @ incoming.mean + np.array([x_u, x_slope, y_u, y_slope])
    cov = R @ incoming.covariance @ R.T
    return TransverseState(mean, 0.5 * (cov + cov.T))


class TestTrack:
    def test_same_bits_as_the_pair_composition(self):
        rng = np.random.default_rng(11)
        geometries = (
            LatticeGeometry(),
            LatticeGeometry(quad_length=0.08, q1=0.1, q2=0.5, cv=0.7, q3=0.9, ch=1.3, screen=2.0),
        )
        signed_zeros = ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0))
        near_zero_k1 = (0.0, -0.0, 1e-11, -1e-11, 1e-10, -1e-10)
        for case in range(2000):
            if case % 3 == 0:
                misalignments = signed_zeros if case % 2 else Lattice().quad_misalignments
            else:
                misalignments = tuple(tuple(rng.uniform(-5e-4, 5e-4, 2)) for _ in range(3))
            lattice = Lattice(geometries[case % 2], misalignments)
            values = [float(rng.uniform(lo, hi)) for lo, hi in ACTUATOR_RANGES]
            if case % 4 == 0:  # strengths around the series threshold, signed zero angles
                for index in (0, 1, 3):
                    if rng.random() < 0.5:
                        values[index] = near_zero_k1[rng.integers(len(near_zero_k1))]
                for index in (2, 4):
                    if rng.random() < 0.5:
                        values[index] = (0.0, -0.0)[rng.integers(2)]
            mean = np.zeros(4) if case % 5 == 0 else rng.uniform(-1e-3, 1e-3, 4)
            if case % 2:
                coupling = rng.normal(size=(4, 4)) * 1e-4
                cov = coupling @ coupling.T
            else:
                cov = np.diag(rng.uniform(1e-5, 5e-4, 4) ** 2)
            settings, incoming = MagnetSettings(*values), TransverseState(mean, cov)
            out = track(lattice, settings, incoming)
            ref = _reference_track(lattice, settings, incoming)
            assert out.mean.tobytes() == ref.mean.tobytes()
            assert out.covariance.tobytes() == ref.covariance.tobytes()

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
                *(rng.uniform(lo, hi) for lo, hi in ACTUATOR_RANGES)
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

    @pytest.mark.parametrize("mean, variances", [
        ((np.nan, 0.0, 0.0, 0.0), (1e-8, 1e-8, 1e-8, 1e-8)),
        ((0.0, 0.0, 0.0, 0.0), (1e-8, 1e-8, np.inf, 1e-8)),
        ((0.0, 0.0, 0.0, 0.0), (-1e-8, 1e-8, 1e-8, 1e-8)),
    ], ids=["nan-mean", "inf-variance", "negative-variance"])
    def test_invalid_beam_raises(self, mean, variances):
        # the one guard on track's output: a bad beam from a direct call fails loudly
        state = TransverseState(np.array(mean), np.diag(variances))
        with pytest.raises(OpticsError, match="invalid beam at screen"):
            read_screen(state)


class TestGeometryValidation:
    def test_default_order_is_valid(self):
        LatticeGeometry()

    def test_overlapping_quads_rejected(self):
        with pytest.raises(OpticsError):
            LatticeGeometry(q1=0.18, q2=0.20)  # Q2 starts inside Q1

    @pytest.mark.parametrize("geometry, gaps", [
        (LatticeGeometry(),
         (0.18, 0.732 - (0.18 + 0.122), 1.054 - (0.732 + 0.122), 1.234 - 1.054,
          1.806 - (1.234 + 0.122), 2.506 - 1.806)),
        (LatticeGeometry(quad_length=0.08, q1=0.1, q2=0.5, cv=0.7, q3=0.9, ch=1.3, screen=2.0),
         (0.1, 0.5 - (0.1 + 0.08), 0.7 - (0.5 + 0.08), 0.9 - 0.7, 1.3 - (0.9 + 0.08),
          2.0 - 1.3)),
    ], ids=["default", "short"])
    def test_drift_lengths_are_the_gaps(self, geometry, gaps):
        # entrance to q1, q1 end to q2, q2 end to cv, cv to q3, q3 end to ch,
        # ch to screen; bit for bit, as track reads them
        assert [d.hex() for d in geometry.drift_lengths()] == [g.hex() for g in gaps]

    def test_overlap_within_tolerance_is_a_zero_drift(self):
        # Q2 starts 5e-13 m inside Q1: accepted, and tracked as no drift
        geometry = LatticeGeometry(q2=0.18 + 0.122 - 5e-13)
        assert geometry.drift_lengths()[1] == 0.0
        TuningEnvironment(make_trial(1), geometry=geometry).reset()
        with pytest.raises(OpticsError):
            LatticeGeometry(q2=0.18 + 0.122 - 1e-9)

    def test_bad_quad_length_rejected(self):
        # the only check of the quadrupole length: quad_blocks trusts it
        for length in (0.0, -0.122, math.nan, math.inf):
            with pytest.raises(OpticsError, match="invalid quadrupole length"):
                LatticeGeometry(quad_length=length)
