"""Correctness checks on one round of a workload, computed apart from the
program or from properties the method must have.

The beam check re-derives every screen reading with a per-plane 2x2
transport written here from the element definitions in the docstrings of
``beamtune/optics.py``: drifts [[1, L], [0, 1]]; thick quadrupoles with
p = sqrt(|k|) L, [[cos p, sin p/sqrt|k|], [-sqrt|k| sin p, cos p]] in the
focusing plane and the cosh/sinh form in the other (k1 > 0 focuses in x;
|k1| < 1e-10 is a drift); a misaligned quadrupole adds the feed-down
(I - R) @ (offset, 0); CV adds its angle to y', CH to x'. The screen reads
the centroid relative to its own offset and sqrt of the variance, in mm.
"""

from __future__ import annotations

import math

# The 2x2 transport propagates the moments element by element while the
# program multiplies 4x4 maps first; the two agree to rounding. Readings
# span up to a few hundred mm, so 1e-9 relative plus 1e-9 mm absolute is
# many orders above that rounding and far below any physics error.
BEAM_REL_TOL = 1e-9
BEAM_ABS_TOL_MM = 1e-9

QUAD_RANGE = (-30.0, 30.0)
CORRECTOR_RANGE = (-6e-3, 6e-3)
BOX = {"q1": QUAD_RANGE, "q2": QUAD_RANGE, "cv": CORRECTOR_RANGE,
       "q3": QUAD_RANGE, "ch": CORRECTOR_RANGE}
FIELDS = ("q1", "q2", "cv", "q3", "ch")
SUCCESS_THRESHOLD_MM = 0.040


class CheckFailed(Exception):
    """A correctness check did not hold."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- independent optics ------------------------------------------------------

def _quad_block(k: float, length: float) -> tuple[float, float, float, float]:
    """2x2 block of a quadrupole; k > 0 focuses in this plane."""
    if abs(k) < 1e-10:
        return 1.0, length, 0.0, 1.0
    root = math.sqrt(abs(k))
    p = root * length
    if k > 0:
        return math.cos(p), math.sin(p) / root, -root * math.sin(p), math.cos(p)
    return math.cosh(p), math.sinh(p) / root, root * math.sinh(p), math.cosh(p)


class _Plane:
    """Centroid (u, u') and second moments (<uu>, <uu'>, <u'u'>) of one plane."""

    def __init__(self, u, up, a, b, c):
        self.u, self.up, self.a, self.b, self.c = u, up, a, b, c

    def apply(self, r11, r12, r21, r22, d1=0.0, d2=0.0):
        a, b, c = self.a, self.b, self.c
        self.u, self.up = r11 * self.u + r12 * self.up + d1, r21 * self.u + r22 * self.up + d2
        self.a = r11 * r11 * a + 2 * r11 * r12 * b + r12 * r12 * c
        self.b = r11 * r21 * a + (r11 * r22 + r12 * r21) * b + r12 * r22 * c
        self.c = r21 * r21 * a + 2 * r21 * r22 * b + r22 * r22 * c

    def drift(self, length):
        self.apply(1.0, length, 0.0, 1.0)

    def quad(self, k, length, offset):
        r11, r12, r21, r22 = _quad_block(k, length)
        self.apply(r11, r12, r21, r22, (1.0 - r11) * offset, -r21 * offset)


def screen_reading(geometry, trial, settings) -> tuple[float, float, float, float]:
    """(mu_x, sigma_x, mu_y, sigma_y) in mm for one applied setting."""
    mean = [float(v) for v in trial.incoming.mean]
    cov = [[float(v) for v in row] for row in trial.incoming.covariance]
    require(all(cov[i][j] == 0.0 for i in (0, 1) for j in (2, 3)),
            f"{trial.trial_id}: incoming beam couples the planes; the 2x2 check does not apply")
    L = geometry.quad_length
    drifts = (geometry.q1, geometry.q2 - (geometry.q1 + L), geometry.cv - (geometry.q2 + L),
              geometry.q3 - geometry.cv, geometry.ch - (geometry.q3 + L),
              geometry.screen - geometry.ch)
    strengths = (settings.q1, settings.q2, settings.q3)
    readings = []
    for plane_index, sign in ((0, 1.0), (2, -1.0)):
        i = plane_index
        p = _Plane(mean[i], mean[i + 1], cov[i][i], cov[i][i + 1], cov[i + 1][i + 1])
        offsets = [m[plane_index // 2] for m in trial.quad_misalignments]
        p.drift(drifts[0])
        p.quad(sign * strengths[0], L, offsets[0])
        p.drift(drifts[1])
        p.quad(sign * strengths[1], L, offsets[1])
        p.drift(drifts[2])
        if plane_index == 2:
            p.up += settings.cv
        p.drift(drifts[3])
        p.quad(sign * strengths[2], L, offsets[2])
        p.drift(drifts[4])
        if plane_index == 0:
            p.up += settings.ch
        p.drift(drifts[5])
        screen_offset = trial.screen_misalignment[plane_index // 2]
        readings.append(((p.u - screen_offset) * 1e3, math.sqrt(p.a) * 1e3))
    (mu_x, sigma_x), (mu_y, sigma_y) = readings
    return mu_x, sigma_x, mu_y, sigma_y


# -- per-sample and per-run checks ---------------------------------------------

def clamp(values: dict[str, float]) -> tuple[dict[str, float], set[str]]:
    """Clamp to the actuator box; returns the clamped values and field names."""
    out, names = {}, set()
    for name in FIELDS:
        lo, hi = BOX[name]
        out[name] = min(max(values[name], lo), hi)
        if out[name] != values[name]:
            names.add(name)
    return out, names


def as_dict(settings) -> dict[str, float]:
    return {name: getattr(settings, name) for name in FIELDS}


def check_samples(record, trial, geometry, proposed) -> None:
    """Beam physics, objective arithmetic, actuator box and clamp flags."""
    target = trial.target
    require(len(proposed) == record.steps_taken,
            f"{record.trial_id}/s{record.seed}: {len(proposed)} proposals for "
            f"{record.steps_taken} steps")
    for sample in record.samples:
        where = f"{record.trial_id}/s{record.seed} step {sample.step_index}"
        expected = screen_reading(geometry, trial, sample.settings)
        got = sample.parameters.as_tuple()
        for name, e, g in zip(("mu_x", "sigma_x", "mu_y", "sigma_y"), expected, got):
            require(abs(e - g) <= BEAM_ABS_TOL_MM + BEAM_REL_TOL * abs(e),
                    f"{where}: {name} {g!r} differs from the 2x2 transport {e!r}")
        l1 = (abs(got[0] - target.mu_x) + abs(got[2] - target.mu_y)
              + abs(got[1] - target.sigma_x) + abs(got[3] - target.sigma_y))
        require(math.isclose(sample.objective, l1, rel_tol=1e-12, abs_tol=1e-15),
                f"{where}: objective {sample.objective!r} != L1 sum {l1!r}")
        require(sample.mae == sample.objective / 4.0, f"{where}: mae != objective / 4")
        applied = as_dict(sample.settings)
        require(all(BOX[n][0] <= applied[n] <= BOX[n][1] for n in FIELDS),
                f"{where}: applied settings {applied} outside the actuator box")
        if sample.step_index == 0:
            require(not sample.clamped, f"{where}: reset sample flagged as clamped")
            continue
        expected_applied, out_of_range = clamp(as_dict(proposed[sample.step_index - 1]))
        require(applied == expected_applied, f"{where}: applied {applied} is not the "
                f"clamped proposal {expected_applied}")
        require(set(sample.clamped) == out_of_range and len(sample.clamped) == len(out_of_range),
                f"{where}: clamp flags {sample.clamped} but out of range {sorted(out_of_range)}")


def recompute_metrics(record, budget: int) -> dict:
    """Improvement and integrated MAE by the definitions in harness/metrics.py."""
    mae_initial = record.samples[0].mae
    mae_final = record.samples[-1].mae
    maes = [s.mae for s in record.samples[1:]]
    hold = maes[-1] if maes else mae_initial
    maes += [hold] * (budget - len(maes))
    return {
        "final_beam_difference_um": mae_final * 1000.0,
        "normalized_improvement_pct": 100.0 * (mae_final - mae_initial) / mae_initial,
        "normalized_integrated_mae_pct": 100.0 * math.fsum(maes) / (budget * mae_initial),
        "run_success": (mae_initial - mae_final) >= SUCCESS_THRESHOLD_MM,
    }


def check_run_metrics(record, entry: dict, budget: int) -> dict:
    """Compare a run's entry in summary.json with the recomputed figures."""
    expected = recompute_metrics(record, budget)
    got = entry["metrics"]
    for key in ("final_beam_difference_um", "normalized_improvement_pct",
                "normalized_integrated_mae_pct"):
        require(math.isclose(got[key], expected[key], rel_tol=1e-12, abs_tol=1e-12),
                f"{record.trial_id}/s{record.seed}: summary {key} {got[key]!r} != "
                f"recomputed {expected[key]!r}")
    require(got["run_success"] == expected["run_success"],
            f"{record.trial_id}/s{record.seed}: run_success disagrees")
    require(got["integrated_fill_applied"] == (record.steps_taken < budget),
            f"{record.trial_id}/s{record.seed}: integrated_fill_applied is "
            f"{got['integrated_fill_applied']} after {record.steps_taken} steps")
    return expected


def check_bo_run(record) -> None:
    """The budget-th proposal re-applies the best settings seen before it."""
    *before, final = record.samples
    best = min(before, key=lambda s: s.objective)
    require(final.settings == best.settings,
            f"{record.trial_id}/s{record.seed}: final settings are not the best in the history")
    require(final.mae <= record.samples[0].mae,
            f"{record.trial_id}/s{record.seed}: final MAE above the initial MAE")


def check_llm_run(record, served: list[dict[str, float]], unparseable: int) -> None:
    """Applied settings are the served values (mrad -> rad, clamped), and
    every unparseable reply cost one extra model call."""
    where = f"{record.trial_id}/s{record.seed}"
    require(record.model_calls == record.steps_taken + unparseable,
            f"{where}: {record.model_calls} model calls for {record.steps_taken} steps "
            f"and {unparseable} unparseable replies")
    require(len(served) == record.steps_taken, f"{where}: served {len(served)} settings")
    for sample, values in zip(record.samples[1:], served):
        proposal = {"q1": values["Q1"], "q2": values["Q2"], "cv": values["CV"] * 1e-3,
                    "q3": values["Q3"], "ch": values["CH"] * 1e-3}
        expected, _ = clamp(proposal)
        require(as_dict(sample.settings) == expected,
                f"{where} step {sample.step_index}: applied {as_dict(sample.settings)} "
                f"is not the served {values}")
