"""Report formatting and cross-run aggregation.

The benchmark harness prints, for every figure, the same rows or series the
paper reports; these helpers keep that output aligned and readable without
pulling in any plotting dependency.  The aggregation helpers reduce the
metric documents produced by the experiment runner (nested dicts/lists of
numbers) across seeds into mean/min/max summaries and write them as JSON.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Union

__all__ = [
    "format_table",
    "format_protection_table",
    "flatten_metrics",
    "aggregate_metrics",
    "format_aggregate_table",
    "write_json",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render rows as a fixed-width text table."""
    materialised: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines = [
        "  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)


def format_protection_table(protection: Mapping[str, Any]) -> str:
    """Render a run's ``protection`` metric block as a text table.

    One row per attacker: its goodput over the attack window, the excess
    over the honest baseline, and the time SIGMA/DELTA took to contain the
    subscription ("never" is the unprotected Figure 1 outcome).
    """
    rows = []
    for session_id, session in protection.get("sessions", {}).items():
        for index, entry in session.get("attackers", {}).items():
            containment = entry.get("containment_s")
            rows.append(
                (
                    session_id,
                    index,
                    entry.get("goodput_kbps", 0.0),
                    entry.get("excess_kbps", 0.0),
                    "never" if containment is None else f"{containment:.1f}",
                )
            )
    baseline = protection.get("honest_baseline_kbps", 0.0)
    table = format_table(
        ["session", "rx", "attacker (Kbps)", "excess (Kbps)", "contained (s)"], rows
    )
    return f"honest baseline: {baseline:.1f} Kbps\n{table}"


# ----------------------------------------------------------------------
# metric aggregation across runs
# ----------------------------------------------------------------------
def flatten_metrics(
    metrics: Union[Mapping[str, Any], Sequence[Any], float, int],
    prefix: str = "",
) -> Dict[str, float]:
    """Flatten a nested metric document to ``dotted.path -> number``.

    Dict keys are joined with ``.``; list entries are indexed.  Non-numeric
    leaves (strings, ``None``) and list entries that are themselves lists
    (the points of a series) are skipped, so series and labels do not
    pollute the aggregate.
    """
    flat: Dict[str, float] = {}
    if isinstance(metrics, Mapping):
        for key, value in metrics.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            flat.update(flatten_metrics(value, path))
    elif isinstance(metrics, (list, tuple)):
        for index, value in enumerate(metrics):
            if not isinstance(value, (list, tuple)):
                flat.update(flatten_metrics(value, f"{prefix}[{index}]"))
    elif isinstance(metrics, bool):
        pass
    elif isinstance(metrics, (int, float)):
        flat[prefix] = float(metrics)
    return flat


def aggregate_metrics(
    metric_documents: Sequence[Mapping[str, Any]],
) -> Dict[str, Dict[str, float]]:
    """Reduce metric documents (e.g. one per seed) to per-key statistics.

    Returns ``flattened key -> {"mean", "min", "max", "count"}`` over the
    documents in which the key appears.
    """
    samples: Dict[str, List[float]] = {}
    for document in metric_documents:
        for key, value in flatten_metrics(document).items():
            samples.setdefault(key, []).append(value)
    return {
        key: {
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "count": len(values),
        }
        for key, values in sorted(samples.items())
    }


def format_aggregate_table(aggregate: Mapping[str, Mapping[str, float]]) -> str:
    """Render an :func:`aggregate_metrics` result as a text table."""
    rows = [
        (key, stats["mean"], stats["min"], stats["max"], int(stats["count"]))
        for key, stats in aggregate.items()
    ]
    return format_table(["metric", "mean", "min", "max", "runs"], rows)


def write_json(path: Union[str, Path], payload: Any) -> Path:
    """Write ``payload`` as stable, human-diffable JSON; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return target
