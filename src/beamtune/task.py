"""The transverse beam parameter tuning task.

A trial fixes one problem instance: target beam parameters, magnet and
screen misalignments, the incoming beam and the initial magnet settings.
The environment wraps a trial plus lattice geometry behind a step/reset
interface, records every evaluated sample, and scores each measurement
with the scalar objective

    objective = |mu_x - mu_x'| + |mu_y - mu_y'| + |sigma_x - sigma_x'| + |sigma_y - sigma_y'|

in millimetres, with MAE = objective / 4.

Actuators are the three quadrupole strengths in [-30, 30] 1/m^2 and the
two corrector angles in [-6e-3, 6e-3] rad (displayed as mrad elsewhere).
Out-of-range proposals are clamped on application and the clamp recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .optics import BeamParameters, Lattice, LatticeGeometry, TransverseState, read_screen, track

__all__ = [
    "ACTUATOR_NAMES",
    "QUAD_RANGE",
    "CORRECTOR_RANGE",
    "MagnetSettings",
    "Sample",
    "Trial",
    "TrialGeneratorConfig",
    "TuningEnvironment",
    "mae",
    "make_trial",
    "objective",
]

ACTUATOR_NAMES = ("q1", "q2", "cv", "q3", "ch")
QUAD_RANGE = (-30.0, 30.0)        # 1/m^2
CORRECTOR_RANGE = (-6e-3, 6e-3)   # rad


@dataclass(frozen=True)
class MagnetSettings:
    """The five actuator values: k1 of Q1/Q2/Q3 [1/m^2], CV/CH angles [rad]."""

    q1: float
    q2: float
    cv: float
    q3: float
    ch: float

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.q1, self.q2, self.cv, self.q3, self.ch)

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in self.as_tuple())

    @staticmethod
    def ranges() -> tuple[tuple[float, float], ...]:
        """(low, high) per actuator in lattice order."""
        return (QUAD_RANGE, QUAD_RANGE, CORRECTOR_RANGE, QUAD_RANGE, CORRECTOR_RANGE)

    def clamped(self) -> tuple["MagnetSettings", tuple[str, ...]]:
        """Clamp to the actuator box, returning the clamped field names."""
        values = self.as_tuple()
        clamped_values = []
        clamped_names = []
        for name, value, (lo, hi) in zip(ACTUATOR_NAMES, values, self.ranges()):
            v = min(max(value, lo), hi)
            if v != value:
                clamped_names.append(name)
            clamped_values.append(v)
        return MagnetSettings(*clamped_values), tuple(clamped_names)

    def in_range(self) -> bool:
        return all(
            lo <= v <= hi for v, (lo, hi) in zip(self.as_tuple(), self.ranges())
        )


def objective(observed: BeamParameters, target: BeamParameters) -> float:
    """Scalar beam difference in mm: L1 distance over the four parameters."""
    return (
        abs(observed.mu_x - target.mu_x)
        + abs(observed.mu_y - target.mu_y)
        + abs(observed.sigma_x - target.sigma_x)
        + abs(observed.sigma_y - target.sigma_y)
    )


def mae(observed: BeamParameters, target: BeamParameters) -> float:
    """Mean absolute error over the four beam parameters, in mm."""
    return objective(observed, target) / 4.0


@dataclass(frozen=True)
class Trial:
    """One problem instance of the tuning task. Immutable."""

    trial_id: str
    seed: int
    target: BeamParameters                                # mm
    incoming: TransverseState                             # SI
    quad_misalignments: tuple[tuple[float, float], ...]   # m, (dx, dy) per quad
    screen_misalignment: tuple[float, float]              # m
    initial_settings: MagnetSettings

    def __post_init__(self) -> None:
        # an all-zero target ("as small as possible") is a valid task
        if self.target.sigma_x < 0 or self.target.sigma_y < 0:
            raise ValueError("target beam sizes must be non-negative")
        if not self.initial_settings.in_range():
            raise ValueError("initial settings outside the actuator ranges")
        if len(self.quad_misalignments) != 3:
            raise ValueError("a trial carries exactly three quadrupole misalignments")


@dataclass(frozen=True)
class Sample:
    """One evaluated point: applied settings, measurement and objective.

    ``clamped`` lists the actuator fields that were clamped on application;
    ``mae`` is derived from the objective, never stored.
    """

    step_index: int
    settings: MagnetSettings
    parameters: BeamParameters
    objective: float
    clamped: tuple[str, ...] = ()

    @property
    def mae(self) -> float:
        return self.objective / 4.0


# ---------------------------------------------------------------------------
# Trial generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialGeneratorConfig:
    """Uniform sampling ranges for random trials (mm / mrad as named)."""

    target_position_mm: tuple[float, float] = (-2.0, 2.0)
    target_sigma_mm: tuple[float, float] = (0.05, 0.5)
    misalignment_mm: tuple[float, float] = (-0.5, 0.5)
    incoming_position_mm: tuple[float, float] = (-0.5, 0.5)
    incoming_slope_mrad: tuple[float, float] = (-0.1, 0.1)
    incoming_sigma_position_mm: tuple[float, float] = (0.1, 0.5)
    incoming_sigma_slope_mrad: tuple[float, float] = (0.05, 0.2)

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
                raise ValueError(f"malformed generator range {name}: ({lo}, {hi})")
        for name in ("target_sigma_mm", "incoming_sigma_position_mm",
                     "incoming_sigma_slope_mrad"):
            if getattr(self, name)[0] <= 0:
                raise ValueError(f"{name} must be strictly positive")


def make_trial(seed: int, config: TrialGeneratorConfig | None = None) -> Trial:
    """Deterministically generate a trial from a seed.

    The same seed always yields the identical trial; targets, misalignments,
    the incoming beam and the initial settings are drawn uniformly from the
    configured ranges.
    """
    cfg = config or TrialGeneratorConfig()
    rng = np.random.default_rng(seed)

    def u(lo_hi: tuple[float, float]) -> float:
        return float(rng.uniform(lo_hi[0], lo_hi[1]))

    target = BeamParameters(
        mu_x=u(cfg.target_position_mm),
        sigma_x=u(cfg.target_sigma_mm),
        mu_y=u(cfg.target_position_mm),
        sigma_y=u(cfg.target_sigma_mm),
    )
    quad_offsets = tuple(
        (u(cfg.misalignment_mm) * 1e-3, u(cfg.misalignment_mm) * 1e-3)
        for _ in range(3)
    )
    screen_offset = (u(cfg.misalignment_mm) * 1e-3, u(cfg.misalignment_mm) * 1e-3)
    incoming = TransverseState.from_moments(
        mean=(
            u(cfg.incoming_position_mm) * 1e-3,
            u(cfg.incoming_slope_mrad) * 1e-3,
            u(cfg.incoming_position_mm) * 1e-3,
            u(cfg.incoming_slope_mrad) * 1e-3,
        ),
        sigmas=(
            u(cfg.incoming_sigma_position_mm) * 1e-3,
            u(cfg.incoming_sigma_slope_mrad) * 1e-3,
            u(cfg.incoming_sigma_position_mm) * 1e-3,
            u(cfg.incoming_sigma_slope_mrad) * 1e-3,
        ),
    )
    initial = MagnetSettings(
        q1=u(QUAD_RANGE),
        q2=u(QUAD_RANGE),
        cv=u(CORRECTOR_RANGE),
        q3=u(QUAD_RANGE),
        ch=u(CORRECTOR_RANGE),
    )
    return Trial(
        trial_id=f"trial-{seed:03d}",
        seed=seed,
        target=target,
        incoming=incoming,
        quad_misalignments=quad_offsets,
        screen_misalignment=screen_offset,
        initial_settings=initial,
    )


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

class TuningEnvironment:
    """Step/reset interface around one trial.

    A single instance is not thread-safe; run one environment per episode.
    With ``noise_sigma`` 0 the settings -> parameters map is deterministic
    and repeated evaluation of equal settings is bit-identical.
    """

    def __init__(
        self,
        trial: Trial,
        geometry: LatticeGeometry | None = None,
        noise_sigma: float = 0.0,
        seed: int | None = None,
    ) -> None:
        self.trial = trial
        self.lattice = Lattice(
            geometry=geometry or LatticeGeometry(),
            quad_misalignments=trial.quad_misalignments,
            screen_misalignment=trial.screen_misalignment,
        )
        self.noise_sigma = float(noise_sigma)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self.history: list[Sample] = []

    def _measure(self, settings: MagnetSettings) -> BeamParameters:
        state = track(self.lattice, settings, self.trial.incoming)
        return read_screen(
            state,
            screen_misalignment=self.lattice.screen_misalignment,
            noise_sigma=self.noise_sigma,
            rng=self._rng if self.noise_sigma > 0 else None,
        )

    def _record(self, settings: MagnetSettings, clamped: tuple[str, ...]) -> Sample:
        params = self._measure(settings)
        sample = Sample(
            step_index=len(self.history),
            settings=settings,
            parameters=params,
            objective=objective(params, self.trial.target),
            clamped=clamped,
        )
        self.history.append(sample)
        return sample

    def reset(self) -> Sample:
        """Apply the trial's initial settings and record the first sample."""
        self.history = []
        self._rng = np.random.default_rng(self._seed)
        return self._record(self.trial.initial_settings, ())

    def step(self, proposed: MagnetSettings) -> Sample:
        """Clamp, apply and measure a proposal; appends one sample.

        Non-finite proposals are rejected without touching the history.
        """
        if not self.history:
            raise RuntimeError("environment must be reset before stepping")
        if not proposed.is_finite():
            raise ValueError(f"non-finite magnet settings {proposed!r}")
        applied, clamped = proposed.clamped()
        return self._record(applied, clamped)


# ---------------------------------------------------------------------------
# Trial fixture serialisation (SI units, versioned)
# ---------------------------------------------------------------------------

TRIAL_SCHEMA = "beamtune/trials/v1"


def trial_to_dict(trial: Trial) -> dict:
    """Trial as plain data, SI units (m, rad); targets stored in metres."""
    return {
        "trial_id": trial.trial_id,
        "seed": trial.seed,
        "target_m": {
            "mu_x": trial.target.mu_x * 1e-3,
            "sigma_x": trial.target.sigma_x * 1e-3,
            "mu_y": trial.target.mu_y * 1e-3,
            "sigma_y": trial.target.sigma_y * 1e-3,
        },
        "incoming": {
            "mean": [float(v) for v in trial.incoming.mean],
            "covariance": [[float(v) for v in row] for row in trial.incoming.covariance],
        },
        "quad_misalignments_m": [list(o) for o in trial.quad_misalignments],
        "screen_misalignment_m": list(trial.screen_misalignment),
        "initial_settings": {
            "q1": trial.initial_settings.q1,
            "q2": trial.initial_settings.q2,
            "cv": trial.initial_settings.cv,
            "q3": trial.initial_settings.q3,
            "ch": trial.initial_settings.ch,
        },
    }


def trial_from_dict(data: dict) -> Trial:
    target = data["target_m"]
    init = data["initial_settings"]
    return Trial(
        trial_id=str(data["trial_id"]),
        seed=int(data["seed"]),
        target=BeamParameters(
            mu_x=target["mu_x"] * 1e3,
            sigma_x=target["sigma_x"] * 1e3,
            mu_y=target["mu_y"] * 1e3,
            sigma_y=target["sigma_y"] * 1e3,
        ),
        incoming=TransverseState(
            np.asarray(data["incoming"]["mean"], dtype=float),
            np.asarray(data["incoming"]["covariance"], dtype=float),
        ),
        quad_misalignments=tuple(
            (float(dx), float(dy)) for dx, dy in data["quad_misalignments_m"]
        ),
        screen_misalignment=tuple(float(v) for v in data["screen_misalignment_m"]),
        initial_settings=MagnetSettings(
            q1=float(init["q1"]),
            q2=float(init["q2"]),
            cv=float(init["cv"]),
            q3=float(init["q3"]),
            ch=float(init["ch"]),
        ),
    )


def trials_to_document(trials: Iterable[Trial]) -> dict:
    return {"schema": TRIAL_SCHEMA, "trials": [trial_to_dict(t) for t in trials]}


def trials_from_document(doc: dict) -> list[Trial]:
    if doc.get("schema") != TRIAL_SCHEMA:
        raise ValueError(
            f"unsupported trial fixture schema {doc.get('schema')!r}, expected {TRIAL_SCHEMA!r}"
        )
    return [trial_from_dict(d) for d in doc["trials"]]
