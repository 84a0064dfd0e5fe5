"""Schedule family tests: piecewise definitions, monotonicity, CSV io."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from couplegen import schedule
from couplegen.pipeline import PipelineConfig
from couplegen.schedule import (
    MAX_STEPS,
    ScheduleFamily,
    ThetaSchedule,
    eval_family,
    make_schedule,
    read_schedule_csv,
    validate,
    write_schedule_csv,
)

from oracles import first_schedule_violation

HUGE = sys.float_info.max


class TestEvalFamily:
    def test_arctan_center_is_half(self):
        for c, k in [(6.7, 0.5), (0.0, 3.0), (-4.0, 0.1)]:
            fam = ScheduleFamily("arctan", center=c, scale=k)
            assert eval_family(fam, c) == pytest.approx(0.5, abs=1e-15)

    def test_sin_clamp_boundary(self):
        fam = ScheduleFamily("sin", center=10.0, scale=0.8)
        t_hi = 10.0 + math.pi / (2 * 0.8)
        assert eval_family(fam, t_hi) == 1.0
        assert eval_family(fam, t_hi + 5.0) == 1.0
        t_lo = 10.0 - math.pi / (2 * 0.8)
        assert eval_family(fam, t_lo) == 0.0
        assert eval_family(fam, t_lo - 5.0) == 0.0
        assert eval_family(fam, 10.0) == pytest.approx(0.5, abs=1e-15)

    def test_step01_at_center_ten(self):
        fam = ScheduleFamily("step01", center=10.0)
        assert eval_family(fam, 9.0) == 0.0
        assert eval_family(fam, 10.0) == 1.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ScheduleFamily("arctan", center=5.0, scale=0.0)
        with pytest.raises(ValueError):
            ScheduleFamily("sin", center=5.0, scale=-1.0)
        with pytest.raises(ValueError):
            ScheduleFamily("spline", center=5.0, scale=1.0)
        for scale in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="scale must be finite"):
                ScheduleFamily("step01", center=5.0, scale=scale)

    def test_step01_takes_any_finite_scale(self):
        # step01 ignores its scale, so only finiteness is asked of it
        for scale in (0.0, -1.0, 1e308):
            assert ScheduleFamily("step01", center=5.0, scale=scale).scale == scale

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["step01", "arctan", "sin"]),
        st.floats(-100, 100),
        st.floats(0.01, 10),
        st.floats(-1e6, 1e6),
    )
    def test_range_and_monotonicity(self, kind, center, scale, t):
        fam = ScheduleFamily(kind, center=center, scale=scale)
        v = eval_family(fam, t)
        assert 0.0 <= v <= 1.0
        assert eval_family(fam, t + 1.0) >= v


class TestMakeSchedule:
    @settings(deadline=None)
    @given(
        kind=st.sampled_from(["step01", "arctan", "sin"]),
        center=st.floats(allow_nan=False, allow_infinity=False),
        scale=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        steps=st.integers(1, MAX_STEPS),
    )
    @example("arctan", HUGE, HUGE, MAX_STEPS)
    @example("sin", -HUGE, 5e-324, MAX_STEPS)
    @example("sin", HUGE, HUGE, MAX_STEPS)
    @example("sin", 500.0, 5e-324, MAX_STEPS)
    def test_every_family_value_finite_and_in_unit_box(self, kind, center, scale, steps):
        # make_schedule trusts a valid family to give finite values in [0, 1]
        values = make_schedule(ScheduleFamily(kind, center=center, scale=scale), steps).values
        assert np.all(np.isfinite(values))
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_arctan_paper_parameters(self):
        sched = make_schedule(ScheduleFamily("arctan", center=6.7, scale=0.5), 50)
        assert len(sched) == 50
        assert validate(sched) is None
        # 0.5 is crossed between steps 6 and 7 (center 6.7)
        assert sched.values[5] < 0.5 < sched.values[6]

    def test_step01_center_zero_all_ones(self):
        sched = make_schedule(ScheduleFamily("step01", center=0.0), 13)
        assert np.array_equal(sched.values, np.ones(13))

    def test_sin_matches_formula_table(self):
        c, k, n = 10.0, 0.8, 50
        sched = make_schedule(ScheduleFamily("sin", c, k), n)
        # formula recomputed independently
        expected = []
        for i in range(1, n + 1):
            arg = k * (i - c)
            if arg <= -math.pi / 2:
                expected.append(0.0)
            elif arg >= math.pi / 2:
                expected.append(1.0)
            else:
                expected.append(0.5 * math.sin(arg) + 0.5)
        np.testing.assert_allclose(sched.values, expected, atol=1e-15)

    def test_large_scale_arctan_approaches_step(self):
        c = 7.0
        sharp = make_schedule(ScheduleFamily("arctan", c, 1e6), 50)
        step = make_schedule(ScheduleFamily("step01", c), 50)
        for i, (a, s) in enumerate(zip(sharp.values, step.values), start=1):
            if abs(i - c) <= 1:
                continue
            assert abs(a - s) <= 1e-5

    def test_bad_steps(self):
        with pytest.raises(ValueError):
            make_schedule(ScheduleFamily("step01", 1.0), 0)

    def test_steps_bound_checked_before_any_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(schedule, "eval_family", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match=f"1..{MAX_STEPS}, got {MAX_STEPS + 1}"):
            make_schedule(ScheduleFamily("arctan", 3.0), MAX_STEPS + 1)
        assert calls == []
        with pytest.raises(ValueError, match=f"steps must be <= {MAX_STEPS}"):
            PipelineConfig(steps=MAX_STEPS + 1)
        assert PipelineConfig(steps=MAX_STEPS).steps == MAX_STEPS

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["step01", "arctan", "sin"]),
        st.floats(-20, 70),
        st.floats(0.01, 10),
    )
    def test_every_schedule_validates(self, kind, center, scale):
        sched = make_schedule(ScheduleFamily(kind, center, scale), 50)
        assert validate(sched) is None


class TestValidate:
    def test_ok(self):
        assert validate(ThetaSchedule(np.array([0.0, 0.5, 1.0]))) is None

    def test_order_violation(self):
        assert validate(ThetaSchedule(np.array([0.5, 0.4]))) == "value decreases at index 1 (to 0.4)"

    def test_bounds_violation(self):
        assert validate(ThetaSchedule(np.array([-0.1, 0.5]))) == "value -0.1 at index 0 outside [0, 1]"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, math.nan, math.inf, -math.inf])
        | st.floats(-0.5, 1.5),
        min_size=1, max_size=8,
    ))
    def test_names_first_violation_of_loop_oracle(self, csv_path, values):
        # ties and -0.0 are valid; NaN and +-inf are out of bounds
        want = first_schedule_violation(values)
        assert validate(ThetaSchedule(np.array(values))) == want
        csv_path.write_text("step,theta\n" + "".join(f"{i},{x!r}\n" for i, x in enumerate(values, 1)))
        if want is None:
            assert read_schedule_csv(csv_path).values.tolist() == values
        else:
            with pytest.raises(ValueError) as info:
                read_schedule_csv(csv_path)
            assert str(info.value) == f"invalid schedule: {want}"


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "sched.csv"


class TestCsv:
    def test_roundtrip_preserves_12_digits(self, tmp_path):
        sched = make_schedule(ScheduleFamily("arctan", 6.7, 0.5), 50)
        path = tmp_path / "sched.csv"
        write_schedule_csv(path, sched)
        text = path.read_text().splitlines()
        assert text[0] == "step,theta"
        assert len(text) == 51
        back = read_schedule_csv(path)
        np.testing.assert_allclose(back.values, sched.values, rtol=1e-12)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,0.5\n")
        with pytest.raises(ValueError, match="header"):
            read_schedule_csv(path)

    def test_oversized_field_is_value_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("step,theta\n1," + "0" * 200_000 + "\n")
        with pytest.raises(ValueError, match="malformed"):
            read_schedule_csv(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reader_accepts_exactly_valid_schedules(self, csv_path, data):
        thetas = data.draw(
            st.lists(st.floats(-0.5, 1.5) | st.sampled_from([math.nan, math.inf]), max_size=6)
        )
        n = len(thetas)
        steps = data.draw(
            st.just(list(range(1, n + 1))) | st.lists(st.integers(0, 7), min_size=n, max_size=n)
        )
        csv_path.write_text("step,theta\n" + "".join(f"{i},{t!r}\n" for i, t in zip(steps, thetas)))
        valid = (
            n > 0
            and steps == list(range(1, n + 1))
            and all(0.0 <= t <= 1.0 for t in thetas)
            and all(a <= b for a, b in zip(thetas, thetas[1:]))
        )
        if valid:
            assert read_schedule_csv(csv_path).values.tolist() == thetas
        else:
            with pytest.raises(ValueError):
                read_schedule_csv(csv_path)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([b"", b"step,theta\n"]), st.binary(max_size=60))
    def test_reader_fuzz_valid_or_value_error(self, csv_path, prefix, payload):
        csv_path.write_bytes(prefix + payload)
        try:
            sched = read_schedule_csv(csv_path)
        except ValueError:
            return
        assert validate(sched) is None
