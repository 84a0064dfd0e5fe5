"""Monotone projection and derivative-free search tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from couplegen.isotonic import (
    MIN_STEP,
    NonFiniteObjectiveError,
    ObjectiveEvaluationError,
    SearchConfig,
    coordinate_search,
    grid_search,
    pava_project,
)
from couplegen.schedule import ScheduleFamily, ThetaSchedule, make_schedule, validate

from oracles import CountingObjective, brute_force_monotone_projection


class TestPavaProject:
    def test_hand_case(self):
        out = pava_project(np.array([0.5, 0.2, 0.8]))
        np.testing.assert_allclose(out, [0.35, 0.35, 0.8], atol=1e-15)

    def test_monotone_input_is_fixed_point(self):
        v = np.array([0.1, 0.1, 0.4, 0.9])
        assert np.array_equal(pava_project(v), v)

    def test_clamp(self):
        np.testing.assert_array_equal(pava_project(np.array([1.4, 1.5])), [1.0, 1.0])

    def test_empty_box(self):
        with pytest.raises(ValueError, match="lo"):
            pava_project(np.array([0.5]), lo=1.0, hi=0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            v = rng.uniform(0, 1, size=n)
            ours = pava_project(v)
            brute = brute_force_monotone_projection(v)
            np.testing.assert_allclose(ours, brute, atol=2e-3)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 12), elements=st.floats(-2, 3)))
    def test_output_monotone_inbox_idempotent(self, v):
        out = pava_project(v)
        assert np.all(np.diff(out) >= 0)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.array_equal(pava_project(out), out)


class TestGridSearch:
    @staticmethod
    def quadratic_in_center(sched_values_to_center):
        # objective keyed off the family center via the first step value
        pass

    def test_quadratic_argmax(self):
        grid = [ScheduleFamily("step01", center=float(c)) for c in (5, 6, 7, 8, 9)]
        # recover the center from the first index where theta hits 1
        calls = CountingObjective(
            lambda s: -((float(np.argmax(s.values >= 1.0)) + 1 - 7.0) ** 2)
        )
        fam, sched, value = grid_search(grid, 10, calls)
        assert fam.center == 7.0
        assert value == 0.0
        assert calls.count == len(grid)

    def test_single_point(self):
        grid = [ScheduleFamily("arctan", center=3.0, scale=0.5)]
        fam, sched, value = grid_search(grid, 10, lambda s: 42.0)
        assert fam == grid[0]
        assert value == 42.0

    def test_tie_breaks_toward_smaller_center(self):
        grid = [
            ScheduleFamily("step01", center=6.0),
            ScheduleFamily("step01", center=4.0),
        ]
        fam, _, _ = grid_search(grid, 10, lambda s: 1.0)
        assert fam.center == 4.0

    def test_tie_breaks_family_order(self):
        grid = [
            ScheduleFamily("sin", center=5.0, scale=1.0),
            ScheduleFamily("step01", center=5.0, scale=1.0),
            ScheduleFamily("arctan", center=5.0, scale=1.0),
        ]
        fam, _, _ = grid_search(grid, 10, lambda s: 0.0)
        assert fam.kind == "step01"

    def test_each_point_evaluated_once(self):
        grid = [ScheduleFamily("step01", center=float(c)) for c in range(3, 13)]
        calls = CountingObjective(lambda s: float(s.values.sum()))
        grid_search(grid, 10, calls)
        assert calls.count == 10

    def test_failure_identifies_grid_point(self):
        grid = [ScheduleFamily("step01", center=5.0)]

        def boom(s):
            raise RuntimeError("pipeline exploded")

        with pytest.raises(ObjectiveEvaluationError, match="center=5.0") as caught:
            grid_search(grid, 10, boom)
        assert "pipeline exploded" in str(caught.value)

    def test_empty_grid(self):
        with pytest.raises(ValueError, match="non-empty"):
            grid_search([], 10, lambda s: 0.0)


class TestCoordinateSearch:
    def test_converges_to_monotone_target(self):
        rng = np.random.default_rng(1)
        target = np.sort(rng.uniform(0, 1, size=10))
        objective = CountingObjective(
            lambda s: -float(np.sum((s.values - target) ** 2))
        )
        init = make_schedule(ScheduleFamily("arctan", center=2.0, scale=0.5), 10)
        cfg = SearchConfig(max_evals=5000, init=init, step=0.25, seed=0)
        best, value, trace = coordinate_search(cfg, objective)
        assert objective.count <= 5000
        assert np.max(np.abs(best.values - target)) <= 0.01
        assert validate(best) is None

    def test_max_evals_one_returns_init(self):
        init = ThetaSchedule(np.array([0.1, 0.2, 0.9]))
        cfg = SearchConfig(max_evals=1, init=init, step=0.5)
        best, value, trace = coordinate_search(cfg, lambda s: float(s.values.sum()))
        assert np.array_equal(best.values, init.values)
        assert value == pytest.approx(1.2)
        assert len(trace) == 1

    def test_constant_objective_keeps_init(self):
        init = ThetaSchedule(np.array([0.0, 0.5, 1.0]))
        cfg = SearchConfig(max_evals=200, init=init, step=0.25)
        best, value, trace = coordinate_search(cfg, lambda s: 7.0)
        assert np.array_equal(best.values, init.values)
        assert value == 7.0
        assert validate(best) is None

    def test_never_below_initial_value(self):
        rng = np.random.default_rng(3)
        target = np.sort(rng.uniform(0, 1, size=6))
        init = ThetaSchedule(np.linspace(0.2, 0.8, 6))

        def bumpy(s):
            return -float(np.sum((s.values - target) ** 2)) + 0.05 * float(
                np.sin(40 * s.values.sum())
            )

        init_value = bumpy(init)
        cfg = SearchConfig(max_evals=600, init=init, step=0.3, seed=4)
        best, value, _ = coordinate_search(cfg, bumpy)
        assert value >= init_value
        assert validate(best) is None

    @settings(max_examples=100, deadline=None)
    @given(
        init=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6).map(sorted),
        target=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        digits=st.sampled_from([1, 2, 12]),  # coarse rounding makes ties
        max_evals=st.integers(1, 60),
        step=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_trace_records_each_verdict(self, init, target, digits, max_evals, step, seed):
        # entry k is evaluation k: accepted iff it beats the incumbent of its
        # time, and the search returns the last accepted entry
        init = ThetaSchedule(np.array(init))
        goal = np.array(target[: len(init)])

        def objective(s):
            return round(-float(np.sum((s.values - goal) ** 2)), digits)

        cfg = SearchConfig(max_evals=max_evals, init=init, step=step, seed=seed)
        best, value, trace = coordinate_search(cfg, objective)
        assert 1 <= len(trace) <= max_evals
        assert np.array_equal(trace[0].schedule.values, init.values) and trace[0].accepted
        incumbent = -math.inf
        for entry in trace:
            assert validate(entry.schedule) is None
            assert entry.value == objective(entry.schedule)
            assert entry.accepted == (entry.value > incumbent)
            if entry.accepted:
                incumbent = entry.value
        last = [entry for entry in trace if entry.accepted][-1]
        assert value == last.value
        assert np.array_equal(best.values, last.schedule.values)

    def test_invalid_init_rejected(self):
        cfg = SearchConfig(max_evals=10, init=ThetaSchedule(np.array([0.9, 0.1])))
        with pytest.raises(ValueError, match="invalid"):
            coordinate_search(cfg, lambda s: 0.0)

    def test_nonfinite_objective_aborts_with_trace(self):
        init = ThetaSchedule(np.array([0.2, 0.4]))
        calls = {"n": 0}

        def nasty(s):
            calls["n"] += 1
            return 1.0 if calls["n"] < 3 else float("nan")

        cfg = SearchConfig(max_evals=50, init=init, step=0.1)
        with pytest.raises(NonFiniteObjectiveError) as err:
            coordinate_search(cfg, nasty)
        assert len(err.value.trace) == 2

    def test_config_validation(self):
        init = ThetaSchedule(np.array([0.5]))
        with pytest.raises(ValueError):
            SearchConfig(max_evals=0, init=init)
        with pytest.raises(ValueError):
            SearchConfig(max_evals=5, init=init, step=0.0)

    @pytest.mark.parametrize("step", [float("inf"), float("nan")])
    def test_non_finite_step_rejected(self, step):
        # an infinite step clamps every proposal to the box
        with pytest.raises(ValueError, match="step"):
            SearchConfig(max_evals=5, init=ThetaSchedule(np.array([0.5])), step=step)

    @pytest.mark.parametrize("step", [1.0 + 2.0**-52, 2.0, 1e308])
    def test_step_wider_than_box_rejected(self, step):
        # a step wider than the [0, 1] theta box clamps every proposal to it
        with pytest.raises(ValueError, match="step"):
            SearchConfig(max_evals=5, init=ThetaSchedule(np.array([0.5])), step=step)
        assert SearchConfig(max_evals=5, init=ThetaSchedule(np.array([0.5])), step=1.0).step == 1.0

    @pytest.mark.parametrize("step", [5e-5, math.nextafter(MIN_STEP, 0.0)])
    def test_step_below_min_step_rejected(self, step):
        # the search stops once its step falls below MIN_STEP, so a smaller
        # first step would end it after the initial evaluation
        with pytest.raises(ValueError, match="step"):
            SearchConfig(max_evals=5, init=ThetaSchedule(np.array([0.5])), step=step)
        cfg = SearchConfig(max_evals=5, init=ThetaSchedule(np.array([0.5])), step=MIN_STEP)
        _, value, trace = coordinate_search(cfg, lambda sched: float(sched.values[0]))
        assert len(trace) == 5
        assert all(entry.accepted for entry in trace) and value > 0.5
