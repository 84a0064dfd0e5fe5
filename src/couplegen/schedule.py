"""Per-step theta schedules and the three parameterized families.

A schedule is a nondecreasing vector of weights in [0, 1], one per sampling
step.  The families ("step01", "arctan", "sin") map a 1-based step index to a
weight; "arctan" and "sin" cross 0.5 exactly at the center, "sin" is clamped
to 0 and 1 at c -/+ pi/(2k).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "ScheduleFamily",
    "ThetaSchedule",
    "FAMILY_ORDER",
    "MAX_STEPS",
    "eval_family",
    "make_schedule",
    "validate",
    "write_schedule_csv",
    "read_schedule_csv",
]

# The family kinds, in the tie-break order of the grid search.
FAMILY_ORDER = {"step01": 0, "arctan": 1, "sin": 2}

# The most sampling steps a schedule or a pipeline takes: 1000 is the step
# count of the DDPM chain, and every step is a Python-level loop iteration.
MAX_STEPS = 1000


@dataclass(frozen=True)
class ScheduleFamily:
    kind: str
    center: float
    scale: float = 1.0  # unused by step01

    def __post_init__(self):
        if self.kind not in FAMILY_ORDER:
            raise ValueError(f"unknown family kind {self.kind!r}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")
        if self.kind in ("arctan", "sin"):
            if not (math.isfinite(self.scale) and self.scale > 0.0):
                raise ValueError(
                    f"{self.kind} requires a positive finite scale, got {self.scale}"
                )
        elif not math.isfinite(self.scale):
            raise ValueError(f"scale must be finite, got {self.scale}")


@dataclass(frozen=True)
class ThetaSchedule:
    """Length-N vector of per-step weights."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"schedule must be a non-empty 1-D vector, got shape {v.shape}")
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return int(self.values.size)


def eval_family(fam: ScheduleFamily, t: float) -> float:
    """Family value at time t; nondecreasing in t, always in [0, 1]."""
    if fam.kind == "step01":
        return 1.0 if t >= fam.center else 0.0
    if fam.kind == "arctan":
        return math.atan(fam.scale * (t - fam.center)) / math.pi + 0.5
    # sin, clamped at the quarter-period points c -/+ pi/(2k)
    half = math.pi / (2.0 * fam.scale)
    if t <= fam.center - half:
        return 0.0
    if t >= fam.center + half:
        return 1.0
    return 0.5 * math.sin(fam.scale * (t - fam.center)) + 0.5


def make_schedule(fam: ScheduleFamily, n_steps: int) -> ThetaSchedule:
    """Sample the family at 1-based step indices 1..n_steps."""
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"n_steps must be in 1..{MAX_STEPS}, got {n_steps}")
    return ThetaSchedule(np.array([eval_family(fam, float(i)) for i in range(1, n_steps + 1)]))


def validate(s: ThetaSchedule) -> Optional[str]:
    """The message of the first box-bound or monotonicity violation, or None
    when valid."""
    v = s.values
    for i, x in enumerate(v):
        if not (0.0 <= x <= 1.0):
            return f"value {float(x)} at index {i} outside [0, 1]"
        if i > 0 and x < v[i - 1]:
            return f"value decreases at index {i} (to {float(x)})"
    return None


def write_schedule_csv(path, s: ThetaSchedule) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "theta"])
        for i, x in enumerate(s.values, start=1):
            writer.writerow([i, f"{x:.17g}"])


def read_schedule_csv(path) -> ThetaSchedule:
    """Read a step,theta CSV; raise ValueError unless the step column is
    1..N and the values form a valid schedule (see ``validate``)."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = [row for row in csv.reader(fh) if row]
        except csv.Error as exc:
            raise ValueError(f"malformed schedule CSV: {exc}") from exc
    header = rows[0] if rows else None
    if header != ["step", "theta"]:
        raise ValueError(f"bad schedule header {header}, expected ['step', 'theta']")
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != 2 or row[0] != str(i):
            raise ValueError(f"schedule row {i} is {row}, expected step {i} and one theta")
    sched = ThetaSchedule(np.array([float(theta) for _, theta in rows[1:]]))
    violation = validate(sched)
    if violation is not None:
        raise ValueError(f"invalid schedule: {violation}")
    return sched
