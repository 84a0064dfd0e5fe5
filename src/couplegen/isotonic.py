"""Monotone-cone projection and derivative-free schedule search.

The objective (a full sampling run plus image metrics) exposes no gradient,
so optimization is either a grid over the parameterized schedule families or
a cyclic pattern search whose proposals are projected back onto
{x : lo <= x_1 <= ... <= x_N <= hi} by pool-adjacent-violators.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .numerics import Rng
from .schedule import FAMILY_ORDER, ScheduleFamily, ThetaSchedule, make_schedule, validate

__all__ = [
    "SearchConfig",
    "TraceEntry",
    "ObjectiveEvaluationError",
    "NonFiniteObjectiveError",
    "pava_project",
    "grid_values",
    "grid_search",
    "coordinate_search",
]

MIN_STEP = 1e-4


class ObjectiveEvaluationError(RuntimeError):
    """Objective failed; carries the grid point or schedule being evaluated."""


class NonFiniteObjectiveError(RuntimeError):
    def __init__(self, message: str, trace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SearchConfig:
    max_evals: int
    init: ThetaSchedule
    step: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")
        if not (0.0 < self.step <= 1.0):
            # a wider step clamps every proposal to the [0, 1] theta box
            raise ValueError(f"step must be in (0, 1], the width of the theta box, got {self.step}")


@dataclass(frozen=True)
class TraceEntry:
    eval_index: int
    value: float
    schedule: ThetaSchedule
    accepted: bool


def pava_project(v, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Euclidean projection onto the nondecreasing box-constrained cone.

    Equal-weight pool-adjacent-violators, then each pooled level clamped to
    [lo, hi] (clamping a monotone vector preserves monotonicity).
    """
    if lo > hi:
        raise ValueError(f"empty box: lo={lo} > hi={hi}")
    v = np.asarray(v, dtype=np.float64)
    levels: list[float] = []
    counts: list[int] = []
    for x in v:
        levels.append(float(x))
        counts.append(1)
        while len(levels) >= 2 and levels[-2] > levels[-1]:
            total = counts[-2] + counts[-1]
            merged = (levels[-2] * counts[-2] + levels[-1] * counts[-1]) / total
            levels[-2:] = [merged]
            counts[-2:] = [total]
    out = np.empty_like(v)
    pos = 0
    for level, count in zip(levels, counts):
        out[pos : pos + count] = min(max(level, lo), hi)
        pos += count
    return out


def _family_key(fam: ScheduleFamily):
    return (fam.center, fam.scale, FAMILY_ORDER[fam.kind])


def grid_values(grid: Sequence[ScheduleFamily], n_steps: int, objective: Callable) -> list:
    """objective(make_schedule(fam, n_steps)) for each grid point, in the given
    order; an objective that raises is an ObjectiveEvaluationError naming the
    point and the cause."""
    values = []
    for fam in grid:
        schedule = make_schedule(fam, n_steps)
        try:
            values.append(objective(schedule))
        except Exception as exc:
            raise ObjectiveEvaluationError(f"objective failed at grid point {fam}: {exc}") from exc
    return values


def grid_search(
    grid: Sequence[ScheduleFamily],
    n_steps: int,
    objective: Callable[[ThetaSchedule], float],
):
    """Evaluate every grid point once and return the argmax.

    Ties break toward the smaller center, then smaller scale, then family
    order step01 < arctan < sin.
    """
    if not grid:
        raise ValueError("grid must be non-empty")
    ordered = sorted(grid, key=_family_key)
    values = grid_values(ordered, n_steps, lambda s: float(objective(s)))
    best = max(range(len(values)), key=values.__getitem__)  # the first strict maximum
    return ordered[best], make_schedule(ordered[best], n_steps), values[best]


def coordinate_search(cfg: SearchConfig, objective: Callable[[ThetaSchedule], float]):
    """Projected cyclic pattern search.

    One coordinate at a time is perturbed by +/- step, the proposal is
    PAVA-projected, and it is accepted iff the objective strictly improves.
    The step halves after a full cycle without improvement; the search stops
    at max_evals or once step < 1e-4.  The returned schedule always satisfies
    the monotone box constraint and never scores below the initial point.
    """
    violation = validate(cfg.init)
    if violation is not None:
        raise ValueError(f"initial schedule is invalid: {violation}")

    def evaluate(schedule: ThetaSchedule, trace, accepted=False) -> float:
        value = float(objective(schedule))
        if not math.isfinite(value):
            raise NonFiniteObjectiveError(
                f"objective returned {value} at evaluation {len(trace) + 1}", trace
            )
        trace.append(TraceEntry(len(trace) + 1, value, schedule, accepted))
        return value

    trace: list[TraceEntry] = []
    theta = cfg.init.values.copy()
    n = theta.size
    best_value = evaluate(ThetaSchedule(theta.copy()), trace, accepted=True)
    step = cfg.step
    rng = Rng(cfg.seed)

    while len(trace) < cfg.max_evals and step >= MIN_STEP:
        improved = False
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            for direction in (1.0, -1.0):
                if len(trace) >= cfg.max_evals:
                    break
                candidate = theta.copy()
                candidate[i] += direction * step
                candidate = pava_project(candidate, 0.0, 1.0)
                proposal = ThetaSchedule(candidate)
                value = evaluate(proposal, trace)
                if value > best_value:
                    theta = candidate
                    best_value = value
                    trace[-1] = TraceEntry(trace[-1].eval_index, value, proposal, True)
                    improved = True
                    break
            if len(trace) >= cfg.max_evals:
                break
        if not improved:
            step /= 2.0

    return ThetaSchedule(theta), best_value, trace


def write_trace_csv(path, trace: Sequence[TraceEntry], schedule_paths: Sequence[str]) -> None:
    """Eval trace as CSV ``eval_index,value,theta_csv_path``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eval_index", "value", "theta_csv_path"])
        for entry, sched_path in zip(trace, schedule_paths):
            writer.writerow([entry.eval_index, f"{entry.value:.15g}", sched_path])
