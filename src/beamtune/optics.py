"""Linear transverse beam optics for the five-magnet tuning section.

Coordinate system (4D transverse phase space)
---------------------------------------------
Vector  v = (x, x', y, y')

  x   [m]    horizontal displacement from the reference axis
  x'  [rad]  horizontal slope dx/ds
  y   [m]    vertical displacement
  y'  [rad]  vertical slope dy/ds

A beam is carried as first and second moments only: a 4-vector mean and a
4x4 covariance matrix. The section has no x-y coupling, so each element
acts on each plane (u, u') separately, as a 2x2 block M and an offset o:

    (u, u')_out = M @ (u, u')_in + o

``track`` composes the elements of each plane into one block and offset
and applies the block-diagonal result R = diag(M_x, M_y), d = (o_x, o_y)
once:

    v_out = R @ v_in + d
    Sigma_out = R @ Sigma_in @ R.T

so Gaussian beams stay Gaussian, an incoming covariance that couples the
planes is carried exactly, and the screen observables (centroid and RMS
size per plane) are exact, with no particle sampling.

Sign conventions
----------------
+x is to the right, +y is up. A positive horizontal corrector angle adds
to x' (beam steered right downstream); a positive vertical corrector angle
adds to y' (beam steered up). A quadrupole with k1 > 0 focuses in x and
defocuses in y; k1 < 0 swaps the planes.

Element misalignments are exact transverse frame shifts: a beam entering a
displaced quadrupole on the displaced axis sees no kick, while an on-axis
beam picks up the feed-down steering o = (I - M) @ (offset, 0) in each
plane, with offset dx in x and dy in y.

Units are SI throughout this module (m, rad); only the screen readout
converts to millimetres.

Each input is checked once, where it enters: the beam and misalignments by
``Trial``, the geometry by ``LatticeGeometry``, each proposal by
``TuningEnvironment.step``. ``track`` trusts them; ``read_screen`` guards the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BeamParameters",
    "Lattice",
    "LatticeGeometry",
    "OpticsError",
    "TransverseState",
    "quad_blocks",
    "read_screen",
    "track",
]

# Below this |k1| a quadrupole is evaluated as a drift of its length, the
# k -> 0 limit of its blocks, to avoid catastrophic cancellation in
# sin(sqrt(k) L)/sqrt(k).
_K1_SERIES_THRESHOLD = 1e-10


class OpticsError(ValueError):
    """Invalid optics input: a bad lattice geometry, or an invalid beam at the screen."""


# ---------------------------------------------------------------------------
# Beam state
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransverseState:
    """Gaussian beam as first and second moments in (x, x', y, y').

    A plain record: a trial's incoming beam is checked by its ``Trial``.

    Parameters
    ----------
    mean:       shape (4,), metres and radians.
    covariance: shape (4, 4), symmetric positive semi-definite.
    """

    mean: np.ndarray
    covariance: np.ndarray

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransverseState)
            and np.array_equal(self.mean, other.mean)
            and np.array_equal(self.covariance, other.covariance)
        )

    @classmethod
    def from_moments(
        cls,
        mean: tuple[float, float, float, float],
        sigmas: tuple[float, float, float, float],
    ) -> "TransverseState":
        """Uncorrelated Gaussian from per-coordinate standard deviations."""
        sig = np.asarray(sigmas, dtype=float)
        return cls(np.asarray(mean, dtype=float), np.diag(sig**2))


@dataclass(frozen=True)
class BeamParameters:
    """Screen readout in millimetres: centroid and RMS size per plane."""

    mu_x: float
    sigma_x: float
    mu_y: float
    sigma_y: float

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.mu_x, self.sigma_x, self.mu_y, self.sigma_y)


# ---------------------------------------------------------------------------
# Per-plane transfer blocks
# ---------------------------------------------------------------------------

def _drift_block(length: float) -> np.ndarray:
    return np.array([[1.0, length], [0.0, 1.0]])


def quad_blocks(k1: float, length: float) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) 2x2 transfer blocks of a thick quadrupole.

    ``k1`` [1/m^2] > 0 focuses in x and defocuses in y; k1 < 0 swaps the
    planes. With p = sqrt(|k1|) * length [m]:

    Focusing:   [[cos p,        sin p / sqrt(k)], [-sqrt(k) sin p, cos p]]
    Defocusing: [[cosh p,      sinh p / sqrt(k)], [ sqrt(k) sinh p, cosh p]]
    """
    if abs(k1) < _K1_SERIES_THRESHOLD:
        return _drift_block(length), _drift_block(length)
    kr = math.sqrt(abs(k1))
    p = kr * length
    foc = np.array([[math.cos(p), math.sin(p) / kr],
                    [-kr * math.sin(p), math.cos(p)]])
    defoc = np.array([[math.cosh(p), math.sinh(p) / kr],
                      [kr * math.sinh(p), math.cosh(p)]])
    return (foc, defoc) if k1 > 0 else (defoc, foc)


# A plane element is (block, offset in position, offset in slope): it maps
# (u, u') to block @ (u, u') + offset.

def _quad(k1: float, length: float, misalignment: tuple[float, float]):
    """(x, y) elements of a quadrupole whose axis is displaced by (dx, dy).

    The feed-down offset (I - block) @ (axis, 0) leaves a beam travelling
    along the displaced axis untouched.
    """
    return tuple(
        (block, (1.0 - block[0, 0]) * axis, -block[1, 0] * axis)
        for block, axis in zip(quad_blocks(k1, length), misalignment)
    )


def _kick(angle: float):
    """Thin corrector element adding ``angle`` [rad] to the slope."""
    return (np.eye(2), 0.0, angle)


def _compose(elements) -> tuple[np.ndarray, float, float]:
    """One plane's elements, in beam order, as one block and offset.

    Blocks compose by numpy ``@`` on 2x2 arrays (the BLAS dgemm) and
    offsets as two-term scalar sums. This rounds exactly as composing
    block-diagonal 4x4 maps with 4-vector offsets does, so tracking results
    are the same bits as that formulation's; tuning episodes are chaotic in
    the last bits of a measurement. A 2-vector ``block @ offset`` rounds
    differently.
    """
    matrix = np.eye(2)
    u = slope = 0.0
    for block, e_u, e_slope in elements:
        matrix = block @ matrix
        u, slope = (
            block[0, 0] * u + block[0, 1] * slope + e_u,
            block[1, 0] * u + block[1, 1] * slope + e_slope,
        )
    return matrix, u, slope


# ---------------------------------------------------------------------------
# Lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeGeometry:
    """Longitudinal layout of the section, metres from its entrance.

    Quadrupole positions are magnet entrances; correctors are thin kicks
    at their position; the screen position is the readout plane. Order
    must be q1 < q2 < cv < q3 < ch < screen with no overlapping magnets.
    """

    quad_length: float = 0.122
    q1: float = 0.18
    q2: float = 0.732
    cv: float = 1.054
    q3: float = 1.234
    ch: float = 1.806
    screen: float = 2.506

    def __post_init__(self) -> None:
        L = self.quad_length
        if not math.isfinite(L) or L <= 0:
            raise OpticsError(f"invalid quadrupole length {L!r}")
        extents = [
            ("q1", self.q1, self.q1 + L),
            ("q2", self.q2, self.q2 + L),
            ("cv", self.cv, self.cv),
            ("q3", self.q3, self.q3 + L),
            ("ch", self.ch, self.ch),
            ("screen", self.screen, self.screen),
        ]
        # The order check admits an element that starts up to 1e-12 m before
        # the previous one ends; that overlap is a drift of length zero.
        drifts = []
        cursor = 0.0
        for name, start, end in extents:
            if not (math.isfinite(start) and start >= cursor - 1e-12):
                raise OpticsError(
                    f"element order violated at {name!r}: starts at {start} before {cursor}"
                )
            drifts.append(max(start - cursor, 0.0))
            cursor = end
        object.__setattr__(self, "_drift_lengths", tuple(drifts))

    def drift_lengths(self) -> tuple[float, ...]:
        """Drifts between entrance, the five magnets and the screen."""
        return self._drift_lengths


@dataclass(frozen=True)
class Lattice:
    """The Q1, Q2, CV, Q3, CH, screen section with fixed quadrupole misalignments.

    Geometry and misalignments are immutable; magnet strengths are applied
    per ``track`` call, so one Lattice can be shared across threads. The
    screen's misalignment does not change the beam, only where it is read,
    so it is an argument of :func:`read_screen`, not part of the lattice.
    """

    geometry: LatticeGeometry = field(default_factory=LatticeGeometry)
    quad_misalignments: tuple[tuple[float, float], ...] = (
        (0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
    )


def track(lattice: Lattice, settings, incoming: TransverseState) -> TransverseState:
    """Transport the incoming beam to the screen plane.

    ``settings`` provides q1/q2/q3 strengths [1/m^2] and cv/ch angles [rad]
    (see :class:`beamtune.task.MagnetSettings`). It checks nothing: the
    settings, the lattice and the beam were checked where they entered.
    """
    g = lattice.geometry
    d = [(_drift_block(length), 0.0, 0.0) for length in g.drift_lengths()]
    m = lattice.quad_misalignments
    q1 = _quad(settings.q1, g.quad_length, m[0])
    q2 = _quad(settings.q2, g.quad_length, m[1])
    cv = _kick(settings.cv)
    q3 = _quad(settings.q3, g.quad_length, m[2])
    ch = _kick(settings.ch)
    # Each plane's elements in beam order. A corrector does nothing in the
    # other plane: as an identity element it would leave the composed block
    # and offset the same bits, so it is left out.
    x_block, x_u, x_slope = _compose([d[0], q1[0], d[1], q2[0], d[2], d[3], q3[0], d[4], ch, d[5]])
    y_block, y_u, y_slope = _compose([d[0], q1[1], d[1], q2[1], d[2], cv, d[3], q3[1], d[4], d[5]])

    R = np.zeros((4, 4))
    R[:2, :2] = x_block
    R[2:, 2:] = y_block
    mean = R @ incoming.mean + np.array([x_u, x_slope, y_u, y_slope])
    cov = R @ incoming.covariance @ R.T
    cov = 0.5 * (cov + cov.T)  # re-symmetrise rounding residue
    return TransverseState(mean, cov)


def read_screen(
    state: TransverseState,
    screen_misalignment: tuple[float, float] = (0.0, 0.0),
    noise_sigma: float = 0.0,
    rng: np.random.Generator | None = None,
) -> BeamParameters:
    """Analytic moment readout of the beam at a misaligned screen, in mm.

    ``screen_misalignment`` is the screen centre's (dx, dy) offset [m], as a
    :class:`~beamtune.task.Trial` carries it. Positions are reported
    relative to the displaced screen centre and optionally blurred with
    independent Gaussian noise of width ``noise_sigma`` [m], drawn from
    ``rng``; beam sizes are read without noise. The one guard on ``track``'s
    output: raises :class:`OpticsError` unless mu and var are finite, var >= 0.
    """
    var_x = float(state.covariance[0, 0])
    var_y = float(state.covariance[2, 2])
    dx, dy = screen_misalignment
    mu_x = float(state.mean[0]) - dx
    mu_y = float(state.mean[2]) - dy
    if not (all(map(math.isfinite, (mu_x, mu_y, var_x, var_y))) and var_x >= 0 and var_y >= 0):
        raise OpticsError(f"invalid beam at screen: mu, var (m, m^2) {(mu_x, mu_y, var_x, var_y)}")
    if noise_sigma > 0:
        if rng is None:
            raise OpticsError("noise_sigma > 0 requires an rng")
        mu_x += noise_sigma * rng.standard_normal()
        mu_y += noise_sigma * rng.standard_normal()
    return BeamParameters(
        mu_x=mu_x * 1e3,
        sigma_x=math.sqrt(var_x) * 1e3,
        mu_y=mu_y * 1e3,
        sigma_y=math.sqrt(var_y) * 1e3,
    )
