"""Monotone-cone projection and derivative-free schedule search.

The objective (a full sampling run plus image metrics) exposes no gradient,
so optimization is either a grid over the parameterized schedule families or
a cyclic pattern search whose proposals are projected back onto
{x : lo <= x_1 <= ... <= x_N <= hi} by pool-adjacent-violators.
"""

from __future__ import annotations

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
        if not (MIN_STEP <= self.step <= 1.0):
            # below MIN_STEP the search stops before its first move; a step
            # wider than the [0, 1] theta box clamps every proposal to it
            raise ValueError(f"step must be in [{MIN_STEP}, 1], got {self.step}")


@dataclass(frozen=True)
class TraceEntry:
    """One objective evaluation; evaluation k is entry k - 1 of its trace."""

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

    trace: list[TraceEntry] = []

    def evaluate(schedule: ThetaSchedule, best: float) -> float:
        value = float(objective(schedule))
        if not math.isfinite(value):
            raise NonFiniteObjectiveError(
                f"objective returned {value} at evaluation {len(trace) + 1}", trace
            )
        trace.append(TraceEntry(value, schedule, value > best))
        return value

    theta = cfg.init.values.copy()
    n = theta.size
    best_value = evaluate(ThetaSchedule(theta.copy()), -math.inf)
    step = cfg.step
    rng = Rng(cfg.seed)

    while step >= MIN_STEP:
        improved = False
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            for direction in (1.0, -1.0):
                if len(trace) >= cfg.max_evals:
                    return ThetaSchedule(theta), best_value, trace
                candidate = theta.copy()
                candidate[i] += direction * step
                candidate = pava_project(candidate, 0.0, 1.0)
                value = evaluate(ThetaSchedule(candidate), best_value)
                if value > best_value:
                    theta = candidate
                    best_value = value
                    improved = True
                    break
        if not improved:
            step /= 2.0

    return ThetaSchedule(theta), best_value, trace

