"""Subscription-convergence metrics (Figures 8(g) and 8(h)).

When several receivers of one session share a bottleneck, FLID-DL (and,
per the paper, FLID-DS) drive them to the same subscription level even if
they join at different times.  These helpers extract that property from the
level histories the receivers record; :func:`subscription_vector` samples
one at every slot boundary, the per-slot trace a golden digest
(:mod:`repro.experiments.golden`) stores in the clear.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = ["levels_converged", "convergence_time", "level_at", "subscription_vector"]

LevelHistory = Sequence[Tuple[float, int]]


def level_at(history: LevelHistory, time_s: float) -> int:
    """Subscription level recorded in ``history`` at time ``time_s``."""
    level = 0
    for timestamp, value in history:
        if timestamp <= time_s:
            level = value
        else:
            break
    return level


def levels_converged(
    histories: Sequence[LevelHistory], time_s: float, tolerance: int = 1
) -> bool:
    """True when every receiver's level at ``time_s`` is within ``tolerance``."""
    levels = [level_at(history, time_s) for history in histories]
    if not levels:
        return True
    return max(levels) - min(levels) <= tolerance


def convergence_time(
    histories: Sequence[LevelHistory],
    start_s: float,
    end_s: float,
    sample_interval_s: float = 1.0,
    tolerance: int = 1,
    hold_s: float = 5.0,
) -> Optional[float]:
    """First time after ``start_s`` at which levels stay converged for ``hold_s``.

    Returns None when the receivers never converge within the window, which
    tests treat as a failure of the convergence property.
    """
    if end_s <= start_s:
        return None
    samples = []
    t = start_s
    while t <= end_s:
        samples.append(t)
        t += sample_interval_s
    hold_needed = max(1, int(round(hold_s / sample_interval_s)))
    run_length = 0
    for sample_time in samples:
        if levels_converged(histories, sample_time, tolerance):
            run_length += 1
            if run_length >= hold_needed:
                return sample_time - (hold_needed - 1) * sample_interval_s
        else:
            run_length = 0
    return None


def subscription_vector(
    level_history: LevelHistory, slot_duration_s: float, duration_s: float
) -> List[int]:
    """Subscription level in force at the end of each slot.

    ``level_history`` is the receiver's ``(time, level)`` transition list;
    the vector samples it at every slot boundary, giving the per-slot trace
    the paper's figures plot (and SIGMA enforces).
    """
    vector: List[int] = []
    index = 0
    level = 0
    slots = int(round(duration_s / slot_duration_s))
    history = list(level_history)
    for slot in range(1, slots + 1):
        boundary = slot * slot_duration_s
        while index < len(history) and history[index][0] <= boundary:
            level = history[index][1]
            index += 1
        vector.append(level)
    return vector
