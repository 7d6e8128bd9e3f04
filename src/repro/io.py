"""Persistence: training histories.

Histories save to JSON (``repro run --history``) so external tooling
can plot the benchmark curves; the write is atomic, so a kill
mid-write cannot leave a torn file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.atomicio import atomic_write_bytes, atomic_write_text
from repro.fl.history import TrainingHistory
from repro.telemetry.spans import to_jsonable

__all__ = [
    "atomic_write_bytes",
    "atomic_write_text",
    "save_history",
]

PathLike = Union[str, Path]


def save_history(history: TrainingHistory, path: PathLike) -> None:
    """Serialise a training history to JSON."""
    payload = {
        "strategy": history.strategy,
        "model_name": history.model_name,
        "higher_is_better": history.higher_is_better,
        "rounds": [
            {
                "round_index": record.round_index,
                "sim_time_s": record.sim_time_s,
                "round_time_s": record.round_time_s,
                "metric": record.metric,
                "eval_loss": record.eval_loss,
                "train_loss": record.train_loss,
                "ratios": {str(k): v for k, v in record.ratios.items()},
                "completion_times": {
                    str(k): v for k, v in record.completion_times.items()
                },
                "discarded": list(record.discarded),
                "overhead_s": record.overhead_s,
                "carried_over": list(record.carried_over),
                # per-cohort aggregates under history_detail="cohort";
                # omitted under member detail to keep old files byte-
                # compatible
                **(
                    {"cohorts": to_jsonable(record.cohorts)}
                    if record.cohorts is not None else {}
                ),
                # extras hold hook/telemetry payloads that may nest
                # dicts/lists and carry numpy scalars
                "extras": to_jsonable(record.extras),
            }
            for record in history.rounds
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=2))
