"""Result persistence: machine summary, CSV table and per-run transcripts.

``summary.json`` is the canonical artefact: schema-tagged, deterministic
(sorted keys, no timestamps) and sufficient to regenerate the CSV, which
mirrors the benchmark's result table columns (final beam difference in um,
normalised beam improvement in %, normalised integrated MAE in %, number
of successful steps). Transcripts go to
``runs/<optimizer>_<trial>_s<seed>.jsonl``, one line per model call, for
the runs that made model calls.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .episode import RunRecord
from .metrics import AGGREGATE_KEYS, RunMetrics, SuiteSummary, suite_figures

__all__ = ["SUMMARY_SCHEMA", "load_summary", "render_csv", "summary_document", "write_outputs"]

SUMMARY_SCHEMA = "beamtune/summary/v1"

# The CSV column stem of each aggregate key, where the table's name differs
_CSV_RENAMED = {
    "normalized_improvement_pct": "normalised_beam_improvement_pct",
    "normalized_integrated_mae_pct": "normalised_integrated_mae_pct",
}

# The success_tiers keys, in column order
_TIERS = ("outright", "partial", "single_trial")

_CSV_COLUMNS = [
    "optimizer",
    "runs",
    "successes",
    *(f"{_CSV_RENAMED.get(key, key)}_{stat}"
      for key in AGGREGATE_KEYS for stat in ("mean", "std")),
    *(f"{tier}_success" for tier in _TIERS),
]


def _run_entry(record: RunRecord, metric: RunMetrics) -> dict:
    return {
        "trial_id": record.trial_id,
        "seed": record.seed,
        "termination": record.termination,
        "steps_taken": record.steps_taken,
        "model_calls": record.model_calls,
        "clamp_counts": record.clamp_counts,
        "metrics": asdict(metric),
    }


def summary_document(summary: SuiteSummary) -> dict:
    """Plain-data form of a suite summary; deterministic for fixed inputs."""
    uses_model_calls = any(record.transcripts for record in summary.records)
    return {
        "schema": SUMMARY_SCHEMA,
        "optimizer_id": summary.optimizer_id,
        "llm_loop": uses_model_calls,
        "runs": [
            _run_entry(record, metric)
            for record, metric in zip(summary.records, summary.metrics)
        ],
        **suite_figures(summary),
    }


def _format_cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def render_csv(documents: list[dict]) -> str:
    """CSV table with one row per optimizer summary."""
    lines = [",".join(_CSV_COLUMNS)]
    for doc in documents:
        aggregates = doc["aggregates"]
        row = [
            doc["optimizer_id"],
            str(len(doc["runs"])),
            str(doc["successes"]),
        ]
        for key in AGGREGATE_KEYS:
            stats = aggregates[key]
            # Successful steps are only meaningful for LLM loops.
            if key == "successful_steps" and not doc["llm_loop"]:
                row += ["-", "-"]
            else:
                row += [_format_cell(stats["mean"]), _format_cell(stats["std"])]
        row += [_format_cell(doc["success_tiers"][tier]) for tier in _TIERS]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _transcript_lines(record: RunRecord) -> list[str]:
    lines = []
    for attempt in record.transcripts:
        lines.append(
            json.dumps(
                {
                    "step": attempt.step,
                    "attempt": attempt.attempt,
                    "prompt": attempt.prompt,
                    "response": attempt.response,
                    "parsed": attempt.parsed,
                    "failure_reason": attempt.failure_reason,
                    "latency_s": round(attempt.latency, 6),
                },
                sort_keys=True,
            )
        )
    return lines


def write_outputs(summaries: list[SuiteSummary], out_dir: str | Path) -> dict[str, Path]:
    """Write summary.json, summary.csv and runs/*.jsonl under ``out_dir``.

    ``runs/`` is always created; it holds a transcript for each run with at
    least one model call, so it stays empty for optimizers without one.
    """
    out = Path(out_dir)
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)

    documents = [summary_document(summary) for summary in summaries]
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps({"schema": SUMMARY_SCHEMA, "optimizers": documents},
                   sort_keys=True, indent=2)
        + "\n",
        encoding="utf-8",
    )
    csv_path = out / "summary.csv"
    csv_path.write_text(render_csv(documents), encoding="utf-8")

    for summary in summaries:
        for record in summary.records:
            if not record.transcripts:
                continue
            name = f"{summary.optimizer_id}_{record.trial_id}_s{record.seed}.jsonl"
            path = runs_dir / _sanitize(name)
            path.write_text(
                "".join(line + "\n" for line in _transcript_lines(record)),
                encoding="utf-8",
            )
    return {"summary_json": summary_path, "summary_csv": csv_path, "runs_dir": runs_dir}


def _sanitize(name: str) -> str:
    # trial ids keep to these characters (trials_from_document); a model name may not
    return "".join(c if c.isalnum() or c in "._-" else "-" for c in name)


def load_summary(out_dir: str | Path) -> dict:
    """Read back the machine summary written by :func:`write_outputs`."""
    path = Path(out_dir) / "summary.json"
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"a summary is a mapping, got {type(data).__name__}")
    if data.get("schema") != SUMMARY_SCHEMA:
        raise ValueError(f"unsupported summary schema {data.get('schema')!r}")
    return data


def regenerate_csv(out_dir: str | Path) -> Path:
    """Rebuild summary.csv from summary.json; byte-identical on reruns."""
    data = load_summary(out_dir)
    csv_path = Path(out_dir) / "summary.csv"
    csv_path.write_text(render_csv(data["optimizers"]), encoding="utf-8")
    return csv_path
