"""The transverse beam parameter tuning task.

A trial fixes one problem instance: target beam parameters, magnet and
screen misalignments, the incoming beam and the initial magnet settings.
The environment wraps a trial plus lattice geometry behind a step/reset
interface, records every evaluated sample, and scores each measurement
with the scalar objective

    objective = |mu_x - mu_x'| + |mu_y - mu_y'| + |sigma_x - sigma_x'| + |sigma_y - sigma_y'|

in millimetres, with MAE = objective / 4.

Actuators are the three quadrupole strengths in 1/m^2, within
``QUAD_RANGE``, and the two corrector angles in rad, within
``CORRECTOR_RANGE`` (displayed as mrad elsewhere); ``ACTUATOR_RANGES``
holds the box. Out-of-range proposals are clamped on application and the
clamp recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable

import numpy as np

from .optics import BeamParameters, Lattice, LatticeGeometry, TransverseState, read_screen, track

__all__ = [
    "ACTUATOR_NAMES",
    "ACTUATOR_RANGES",
    "QUAD_RANGE",
    "CORRECTOR_RANGE",
    "MagnetSettings",
    "Sample",
    "Trial",
    "TrialGeneratorConfig",
    "TuningEnvironment",
    "make_trial",
    "objective",
]

ACTUATOR_NAMES = ("q1", "q2", "cv", "q3", "ch")
QUAD_RANGE = (-30.0, 30.0)        # 1/m^2
CORRECTOR_RANGE = (-6e-3, 6e-3)   # rad
# (low, high) per actuator, in ACTUATOR_NAMES order
ACTUATOR_RANGES = (QUAD_RANGE, QUAD_RANGE, CORRECTOR_RANGE, QUAD_RANGE, CORRECTOR_RANGE)


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

    def clamped(self) -> tuple["MagnetSettings", tuple[str, ...]]:
        """Clamp to the actuator box, returning the clamped field names."""
        values = self.as_tuple()
        clamped_values = []
        clamped_names = []
        for name, value, (lo, hi) in zip(ACTUATOR_NAMES, values, ACTUATOR_RANGES):
            v = min(max(value, lo), hi)
            if v != value:
                clamped_names.append(name)
            clamped_values.append(v)
        return MagnetSettings(*clamped_values), tuple(clamped_names)

    def in_range(self) -> bool:
        return not self.clamped()[1]


def objective(observed: BeamParameters, target: BeamParameters) -> float:
    """Scalar beam difference in mm: L1 distance over the four parameters."""
    return (
        abs(observed.mu_x - target.mu_x)
        + abs(observed.mu_y - target.mu_y)
        + abs(observed.sigma_x - target.sigma_x)
        + abs(observed.sigma_y - target.sigma_y)
    )


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
        mean = np.asarray(self.incoming.mean, dtype=float)
        cov = np.asarray(self.incoming.covariance, dtype=float)
        if (mean.shape, cov.shape) != ((4,), (4, 4)):
            raise ValueError(f"{self.trial_id}: incoming mean and covariance have shapes "
                             f"{mean.shape} and {cov.shape}, expected (4,) and (4, 4)")
        # each offset is (dx, dy): track and read_screen take two values
        offsets = {"screen misalignment": self.screen_misalignment} | {
            f"quad {index} misalignment": offset
            for index, offset in enumerate(self.quad_misalignments, 1)
        }
        for name, offset in offsets.items():
            if len(offset) != 2:
                raise ValueError(f"{self.trial_id}: {name} has {len(offset)} values, expected 2")
        for name, values in (
            ("target", self.target.as_tuple()),
            ("incoming mean", mean.tolist()),
            ("incoming covariance", cov.ravel().tolist()),
            ("quad misalignments", [v for offset in self.quad_misalignments for v in offset]),
            ("screen misalignment", self.screen_misalignment),
            ("initial settings", self.initial_settings.as_tuple()),
        ):
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"{self.trial_id}: non-finite {name} {tuple(values)}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError(f"{self.trial_id}: incoming covariance is not symmetric")
        if np.any(np.diag(cov) < -1e-15):
            raise ValueError(f"{self.trial_id}: incoming covariance has a negative diagonal")
        # an all-zero target ("as small as possible") is a valid task
        if self.target.sigma_x < 0 or self.target.sigma_y < 0:
            raise ValueError(f"{self.trial_id}: target beam sizes must be non-negative")
        if not self.initial_settings.in_range():
            raise ValueError(f"{self.trial_id}: initial settings outside the actuator ranges")
        if len(self.quad_misalignments) != 3:
            raise ValueError(f"{self.trial_id}: a trial carries exactly three quad misalignments")


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
    initial = MagnetSettings(*(u(lo_hi) for lo_hi in ACTUATOR_RANGES))
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
        self.noise_sigma = float(noise_sigma)
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be a finite value >= 0, got {noise_sigma!r}")
        self.trial = trial
        self.lattice = Lattice(
            geometry=geometry or LatticeGeometry(),
            quad_misalignments=trial.quad_misalignments,
        )
        self._seed = seed
        self.history: list[Sample] = []

    def _measure(self, settings: MagnetSettings) -> BeamParameters:
        state = track(self.lattice, settings, self.trial.incoming)
        return read_screen(
            state,
            screen_misalignment=self.trial.screen_misalignment,
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
# Trial fixture serialisation (versioned, exact)
# ---------------------------------------------------------------------------

TRIAL_SCHEMA = "beamtune/trials/v2"


def trial_to_dict(trial: Trial) -> dict:
    """Trial as plain data, each value in the unit the trial holds it.

    The target is in mm, as :class:`BeamParameters` holds it; the incoming
    beam and the misalignments are in SI units (m, rad). No value is
    rescaled, so :func:`trial_from_dict` restores every bit.
    """
    return {
        "trial_id": trial.trial_id,
        "seed": trial.seed,
        "target_mm": {
            field.name: getattr(trial.target, field.name) for field in fields(BeamParameters)
        },
        "incoming": {
            "mean": [float(v) for v in trial.incoming.mean],
            "covariance": [[float(v) for v in row] for row in trial.incoming.covariance],
        },
        "quad_misalignments_m": [list(o) for o in trial.quad_misalignments],
        "screen_misalignment_m": list(trial.screen_misalignment),
        "initial_settings": {
            name: getattr(trial.initial_settings, name) for name in ACTUATOR_NAMES
        },
    }


def _integer(value) -> int:
    """``value`` if it is an int; a bool or a float is not a seed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def trial_from_dict(data: dict) -> Trial:
    trial_id = str(data["trial_id"])

    def read(name: str, convert):
        """``convert()``, failing with the trial and the field named."""
        try:
            return convert()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{trial_id}: {name}: {exc}") from exc

    target = data["target_mm"]
    incoming = data["incoming"]
    init = data["initial_settings"]
    return Trial(
        trial_id=trial_id,
        seed=read("seed", lambda: _integer(data["seed"])),
        target=read("target", lambda: BeamParameters(
            **{field.name: float(target[field.name]) for field in fields(BeamParameters)}
        )),
        incoming=TransverseState(
            read("incoming mean", lambda: np.asarray(incoming["mean"], dtype=float)),
            read("incoming covariance", lambda: np.asarray(incoming["covariance"], dtype=float)),
        ),
        quad_misalignments=read("quad misalignments", lambda: tuple(
            (float(dx), float(dy)) for dx, dy in data["quad_misalignments_m"]
        )),
        screen_misalignment=read("screen misalignment", lambda: tuple(
            float(v) for v in data["screen_misalignment_m"]
        )),
        initial_settings=read("initial settings", lambda: MagnetSettings(
            **{name: float(init[name]) for name in ACTUATOR_NAMES}
        )),
    )


def trials_to_document(trials: Iterable[Trial]) -> dict:
    return {"schema": TRIAL_SCHEMA, "trials": [trial_to_dict(t) for t in trials]}


def trials_from_document(doc: dict) -> list[Trial]:
    if not isinstance(doc, dict):
        raise ValueError(f"a trial fixture is a mapping, got {type(doc).__name__}")
    if doc.get("schema") != TRIAL_SCHEMA:
        raise ValueError(
            f"unsupported trial fixture schema {doc.get('schema')!r}, expected {TRIAL_SCHEMA!r}"
        )
    trials = [trial_from_dict(d) for d in doc["trials"]]
    if not trials:
        raise ValueError("a trial fixture needs at least one trial, got none")
    # transcripts are named after the trial id, so another trial's runs would
    # overwrite the first's if two ids named the same file
    for index, trial in enumerate(trials):
        if not all(c.isalnum() or c in "._-" for c in trial.trial_id):
            raise ValueError(
                f"trial_id {trial.trial_id!r} may hold only letters, digits, '.', '_' and '-'"
            )
        if trial.trial_id in (earlier.trial_id for earlier in trials[:index]):
            raise ValueError(f"duplicate trial_id {trial.trial_id!r}")
    return trials
