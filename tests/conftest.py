from __future__ import annotations

from pathlib import Path

import pytest

from beamtune.optics import BeamParameters
from beamtune.task import MagnetSettings, Sample, objective

DATA_DIR = Path(__file__).parent / "data"

# one line per acceptance criterion, echoed after the run summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def read_data(*parts: str) -> str:
    return (DATA_DIR.joinpath(*parts)).read_text(encoding="utf-8")


def make_sample(
    step: int,
    settings: tuple[float, float, float, float, float],
    parameters: tuple[float, float, float, float],
    target: BeamParameters,
) -> Sample:
    """Sample scored against ``target``, angles given in rad."""
    params = BeamParameters(*parameters)
    return Sample(
        step_index=step,
        settings=MagnetSettings(*settings),
        parameters=params,
        objective=objective(params, target),
    )


@pytest.fixture
def reference_target() -> BeamParameters:
    return BeamParameters(mu_x=1.20, sigma_x=0.11, mu_y=1.25, sigma_y=0.06)


@pytest.fixture
def reference_history(reference_target) -> list[Sample]:
    """Three samples for the golden prompt fixtures.

    Objectives are 7515.37, 2.28 and 2.37 in history order, so rendering
    them by descending objective must reorder the last two.
    """
    return [
        make_sample(
            0,
            (25.12, 12.48, 0.84e-3, -8.25, 3.94e-3),
            (-1038.63, 1893.75, -2353.77, 2226.94),
            reference_target,
        ),
        make_sample(
            1,
            (-13.25, -8.85, -2.80e-3, -8.90, -5.70e-3),
            (3.48, 0.11, 1.25, 0.06),
            reference_target,
        ),
        make_sample(
            2,
            (-13.50, -9.00, -3.00e-3, -9.00, -6.00e-3),
            (3.57, 0.11, 1.25, 0.06),
            reference_target,
        ),
    ]
