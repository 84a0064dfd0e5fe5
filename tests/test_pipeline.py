"""End-to-end tests for the miniature double/single-block denoising pipeline."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from couplegen import isotonic
from couplegen.attention import StreamState, branch_attention, joint_attention, merge_image_states
from couplegen.metric import background_similarity, jer
from couplegen.numerics import Rng
from couplegen.pipeline import (
    LatentState,
    Pipeline,
    PipelineConfig,
    auto_masks,
    generate_and_score,
    init_pipeline,
    run_double_block,
    run_single_block,
    sample,
    _initial_noise,
    sample_single_prompt,
)
from couplegen.prompt_io import PromptBundle
from couplegen.schedule import ScheduleFamily, ThetaSchedule, make_schedule

BUNDLE = PromptBundle(
    "a cozy room with wooden flooring",
    ("a cute pikachu sits", "a beautiful girl stands"),
)
OTHER = PromptBundle(
    "a misty pine forest at dawn",
    ("a small red fox", "an old robot", "a curious owl"),
)


def small_pipeline(**overrides) -> Pipeline:
    return init_pipeline(PipelineConfig(**overrides))


def constant_schedule(value: float, steps: int = 10) -> ThetaSchedule:
    return ThetaSchedule(np.full(steps, value))


class TestInit:
    def test_deterministic(self):
        a = small_pipeline()
        b = small_pipeline()
        assert np.array_equal(a.double_blocks[0].attn.w_q, b.double_blocks[0].attn.w_q)
        assert np.array_equal(a.single_blocks[-1].ff.w2, b.single_blocks[-1].ff.w2)

    def test_seed_changes_weights(self):
        a = small_pipeline(weight_seed=0)
        b = small_pipeline(weight_seed=1)
        assert not np.array_equal(a.double_blocks[0].attn.w_q, b.double_blocks[0].attn.w_q)

    def test_weight_range(self):
        p = small_pipeline()
        for blk in p.double_blocks:
            for w in (blk.attn.w_q, blk.attn.w_k, blk.attn.w_v, blk.attn.w_o):
                assert np.all(np.abs(w) <= 0.1)

    def test_block_counts_and_shapes(self):
        p = small_pipeline(double_blocks=3, single_blocks=1, d_model=4)
        assert len(p.double_blocks) == 3
        assert len(p.single_blocks) == 1
        assert p.double_blocks[0].attn.w_q.shape == (4, 4)

    def test_large_config_weight_and_noise_digest(self):
        # sha256 of every weight (draw order) and the initial noise at seeds
        # 0 and 2**64 - 1, as little-endian float64 bytes; frozen from the
        # scalar splitmix64 loop.  Pins stream wrap-around at sizes the 1e-14
        # goldens do not reach.
        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))
            else:
                for item in obj:
                    yield from arrays(item)

        cfg = PipelineConfig(d_model=64, grid_side=32, steps=28)
        p = init_pipeline(cfg)
        weights = list(arrays((p.double_blocks, p.single_blocks)))
        assert len(weights) == 28
        h = hashlib.sha256()
        for a in weights + [_initial_noise(cfg, 0), _initial_noise(cfg, 2**64 - 1)]:
            h.update(a.astype("<f8").tobytes())
        assert h.hexdigest() == "541ce116e146707afe3b0707debb91e49781a52b3ca3b70e176995363061dfb6"

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            PipelineConfig(d_model=0)
        with pytest.raises(ValueError):
            PipelineConfig(steps=0)


class TestBlocks:
    def _state(self, d=6, seed=3):
        rng = Rng(seed)
        return LatentState(
            background=rng.fill(4, d, -1, 1),
            entity=rng.fill(4, d, -1, 1),
            image=rng.fill(9, d, -1, 1),
        )

    def test_double_block_theta_zero_ignores_entity(self):
        p = small_pipeline(d_model=6)
        state = self._state()
        perturbed = LatentState(state.background, state.entity + 0.5, state.image)
        blk = p.double_blocks[0]
        out_a = run_double_block(state, blk, 0.0, p.norm_double)
        out_b = run_double_block(perturbed, blk, 0.0, p.norm_double)
        assert np.array_equal(out_a.image, out_b.image)
        assert np.array_equal(out_a.background, out_b.background)

    def test_double_block_theta_one_matches_reference(self):
        # at theta=1 the image/background outputs equal a plain two-stream
        # block run on (entity, image)
        p = small_pipeline(d_model=6)
        state = self._state()
        blk = p.double_blocks[0]
        out = run_double_block(state, blk, 1.0, p.norm_double)
        attn = joint_attention(StreamState(state.entity, state.image), blk.attn, p.norm_double)
        ent = state.entity + attn.text @ blk.attn.w_o
        img = state.image + attn.image @ blk.attn.w_o
        assert np.array_equal(out.entity, ent + blk.text_ff(ent))
        assert np.array_equal(out.image, img + blk.image_ff(img))

    def test_single_block_boundaries(self):
        p = small_pipeline(d_model=6)
        state = self._state()
        blk = p.single_blocks[0]
        at0 = run_single_block(state, blk, 0.0, p.norm_single)
        at1 = run_single_block(state, blk, 1.0, p.norm_single)
        mid = run_single_block(state, blk, 0.5, p.norm_single)
        # theta=0 keeps the background-branch image, theta=1 the entity-branch
        assert not np.array_equal(at0.image, at1.image)
        np.testing.assert_allclose(mid.image, 0.5 * (at0.image + at1.image), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_single_block_boundary_skips_dead_branch(self, theta, monkeypatch):
        p = small_pipeline(d_model=6)
        state = self._state()
        blk = p.single_blocks[0]

        def branch_image(text):
            _, image_a = branch_attention(text, state.image, blk.attn, p.norm_single)
            image1 = state.image + image_a @ blk.attn.w_o
            return image1 + blk.ff(image1)

        expected = merge_image_states(
            branch_image(state.entity), branch_image(state.background), theta
        )
        calls = []

        def counting(*args):
            calls.append(args)
            return branch_attention(*args)

        monkeypatch.setattr("couplegen.pipeline.branch_attention", counting)
        out = run_single_block(state, blk, theta, p.norm_single)
        assert np.array_equal(out.image, expected)
        # only the kept branch runs; the dead text stream passes through
        if theta == 0.0:
            live, dead, dead_out = state.background, state.entity, out.entity
        else:
            live, dead, dead_out = state.entity, state.background, out.background
        assert len(calls) == 1 and calls[0][0] is live
        assert dead_out is dead

    def test_residual_structure(self):
        # output stays near the input when attention/FF products are tiny
        p = small_pipeline(d_model=6)
        state = self._state()
        out = run_double_block(state, p.double_blocks[0], 0.5, p.norm_double)
        assert np.max(np.abs(out.image - state.image)) < 0.5


class TestSample:
    def test_output_shape_and_range(self):
        p = small_pipeline()
        imgs = sample(p, BUNDLE, constant_schedule(0.5))
        assert len(imgs) == 2
        for img in imgs:
            assert img.shape == (8, 8)
            assert np.all(img >= 0.0) and np.all(img <= 1.0)

    def test_deterministic(self):
        p = small_pipeline()
        sched = make_schedule(ScheduleFamily("arctan", center=5.0, scale=0.8), 10)
        a = sample(p, BUNDLE, sched)
        b = sample(p, BUNDLE, sched)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_frozen_golden(self):
        p = small_pipeline()
        sched = make_schedule(ScheduleFamily("arctan", center=5.0, scale=0.8), 10)
        imgs = sample(p, BUNDLE, sched)
        assert imgs[0].mean() == pytest.approx(0.49690096557992613, abs=1e-14)
        np.testing.assert_allclose(
            imgs[0][0, :4],
            [0.633843626223345, 0.5065909252160632, 0.34000053253979723, 0.47313090270206043],
            atol=1e-14,
        )
        assert imgs[1].mean() == pytest.approx(0.4967657945567293, abs=1e-14)

    def test_schedule_length_mismatch(self):
        p = small_pipeline()
        with pytest.raises(ValueError, match="schedule"):
            sample(p, BUNDLE, constant_schedule(0.5, steps=7))

    def test_theta_zero_entities_identical(self):
        p = small_pipeline()
        imgs = sample(p, BUNDLE, constant_schedule(0.0))
        assert np.array_equal(imgs[0], imgs[1])

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_theta_one_matches_single_prompt(self, theta):
        # theta = 1 renders each entity prompt alone; theta = 0 renders the
        # background prompt, which is the reference render itself
        p = small_pipeline()
        imgs = sample(p, BUNDLE, constant_schedule(theta))
        for img, prompt in zip(imgs, BUNDLE.entities):
            expected = prompt if theta == 1.0 else BUNDLE.background
            assert np.array_equal(img, sample_single_prompt(p, expected))

    def test_single_prompt_frozen_golden(self):
        img = sample_single_prompt(small_pipeline(), BUNDLE.background)
        assert img.mean() == pytest.approx(0.496850696534479, abs=1e-14)
        np.testing.assert_allclose(
            img[0, :4],
            [0.6338036301859165, 0.5065380385353436, 0.3399521391782758, 0.4730794861934817],
            atol=1e-14,
        )

    def test_step_schedule_prefix_latents(self):
        # before a step schedule's crossing the latents are bit-identical to
        # an all-zero run
        p = small_pipeline()
        step = make_schedule(ScheduleFamily("step01", center=6.0), 10)
        log_step: list = []
        log_zero: list = []
        sample(p, BUNDLE, step, latent_log=log_step)
        sample(p, BUNDLE, constant_schedule(0.0), latent_log=log_zero)
        for ent in range(2):
            for i in range(5):  # steps 1..5 have theta = 0
                assert np.array_equal(log_step[ent][i], log_zero[ent][i])
            assert not np.array_equal(log_step[ent][5], log_zero[ent][5])

    def test_reused_pipeline_matches_fresh(self):
        # one pipeline across alternating bundles, seeds, noise modes and
        # schedules renders what a fresh pipeline renders for each call
        schedules = [
            make_schedule(ScheduleFamily("step01", center=4.0), 10),
            make_schedule(ScheduleFamily("arctan", center=5.0, scale=0.8), 10),
            constant_schedule(0.0),
            make_schedule(ScheduleFamily("step01", center=8.0), 10),
            constant_schedule(1.0),
        ]
        reused = small_pipeline()
        calls = itertools.product((BUNDLE, OTHER), (None, 3), (True, False))
        for i, (bundle, seed, shared) in enumerate(calls):
            sched = schedules[i % len(schedules)]
            got = sample(reused, bundle, sched, seed, shared_noise=shared)
            want = sample(small_pipeline(), bundle, sched, seed, shared_noise=shared)
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
            got = generate_and_score(reused, bundle, sched, noise_seed=seed)
            want = generate_and_score(small_pipeline(), bundle, sched, noise_seed=seed)
            assert got.to_dict() == want.to_dict()
            assert np.array_equal(
                sample_single_prompt(reused, bundle.background, seed),
                sample_single_prompt(small_pipeline(), bundle.background, seed),
            )

    def test_latent_log_writes_do_not_reach_later_renders(self):
        p = small_pipeline()
        sched = make_schedule(ScheduleFamily("step01", center=6.0), 10)
        log: list = []
        first = sample(p, BUNDLE, sched, latent_log=log)
        for steps in log:
            for latent in steps:
                latent += 1.0
        again = sample(p, BUNDLE, sched)
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert np.array_equal(
            sample_single_prompt(p, BUNDLE.background),
            sample_single_prompt(small_pipeline(), BUNDLE.background),
        )

    def test_shared_vs_separate_noise(self):
        p = small_pipeline()
        shared = sample(p, BUNDLE, constant_schedule(0.0), shared_noise=True)
        separate = sample(p, BUNDLE, constant_schedule(0.0), shared_noise=False)
        assert np.array_equal(shared[0], shared[1])
        assert not np.array_equal(separate[0], separate[1])
        # entity 0 gets the base noise stream either way
        assert np.array_equal(shared[0], separate[0])

    def test_noise_seed_override(self):
        p = small_pipeline()
        a = sample(p, BUNDLE, constant_schedule(0.5), noise_seed=5)
        b = sample(p, BUNDLE, constant_schedule(0.5), noise_seed=6)
        assert not np.array_equal(a[0], b[0])

    def test_latent_log_shapes(self):
        p = small_pipeline()
        log: list = []
        sample(p, BUNDLE, constant_schedule(0.5), latent_log=log)
        assert len(log) == 2
        assert len(log[0]) == 10
        assert log[0][0].shape == (64, 16)


def counted_double_blocks(monkeypatch) -> list:
    calls: list = []

    def counting(*args):
        calls.append(args)
        return run_double_block(*args)

    monkeypatch.setattr("couplegen.pipeline.run_double_block", counting)
    return calls


def ramp() -> ThetaSchedule:
    return ThetaSchedule(np.linspace(0.1, 0.9, 10))


def nudged(schedule: ThetaSchedule, i: int) -> ThetaSchedule:
    values = schedule.values.copy()
    values[i] += 0.01
    return ThetaSchedule(values)


class TestEntityMemo:
    def test_search_on_reused_pipeline_matches_fresh(self, monkeypatch):
        # renders differ only in entity text, noise seed (None, 3, or
        # noise_seed + j with separate noise) or background, so a memo key
        # that drops any of them hands one render another's trajectory; the
        # reference renders each call on a new pipeline with no memo budget
        cfg = PipelineConfig(d_model=8, grid_side=6, steps=6)
        swapped = PromptBundle(OTHER.background, BUNDLE.entities)
        renders = [(BUNDLE, None, True), (BUNDLE, 3, True), (swapped, None, True),
                   (BUNDLE, None, False)]

        def objective(pipeline_for):
            def f(sched):
                return sum((j + 1) * float(img.mean())
                           for bundle, seed, shared in renders
                           for j, img in enumerate(sample(pipeline_for(), bundle, sched, seed,
                                                          shared_noise=shared)))
            return f

        search = isotonic.SearchConfig(
            max_evals=40, init=make_schedule(ScheduleFamily("arctan", 1.2, 0.5), 6)
        )
        calls = counted_double_blocks(monkeypatch)
        with monkeypatch.context() as m:
            m.setattr("couplegen.pipeline.ENTITY_MEMO_BYTES", 0)
            fresh = isotonic.coordinate_search(search, objective(lambda: init_pipeline(cfg)))
        fresh_blocks = len(calls)
        del calls[:]
        reused_pipeline = init_pipeline(cfg)
        reused = isotonic.coordinate_search(search, objective(lambda: reused_pipeline))
        assert np.array_equal(reused[0].values, fresh[0].values)
        assert reused[1] == fresh[1]
        assert [(e.value, e.accepted) for e in reused[2]] == [(e.value, e.accepted) for e in fresh[2]]
        assert all(np.array_equal(a.schedule.values, b.schedule.values)
                   for a, b in zip(reused[2], fresh[2], strict=True))
        assert sum(e.accepted for e in fresh[2]) > 1
        # the reused pipeline resumes proposals from the incumbent's steps
        assert len(calls) < 0.7 * fresh_blocks

    @pytest.mark.parametrize("i", [0, 3, 9])
    def test_proposal_runs_only_steps_from_first_change(self, i, monkeypatch):
        p = small_pipeline()
        incumbent = ramp()
        sample(p, BUNDLE, incumbent)
        calls = counted_double_blocks(monkeypatch)
        got = sample(p, BUNDLE, nudged(incumbent, i))
        cfg = p.config
        assert len(calls) == (cfg.steps - i) * cfg.double_blocks * len(BUNDLE.entities)
        want = sample(small_pipeline(), BUNDLE, nudged(incumbent, i))
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        # the incumbent is still held in full
        del calls[:]
        sample(p, BUNDLE, incumbent)
        assert calls == []

    def test_oversized_trajectory_stores_nothing(self):
        # 20 * 256 * 32 * 8 bytes = 1.31 MB, more than the 1 MiB budget
        p = small_pipeline(d_model=32, grid_side=16, steps=20)
        sched = make_schedule(ScheduleFamily("step01", center=17.0), 20)
        sample(p, BUNDLE, sched)
        assert not p.entity_memo.slots and p.entity_memo.spare is None

    def test_latent_log_matches_fresh_and_never_reaches_a_slot(self):
        p = small_pipeline()
        proposal = nudged(ramp(), 4)
        sample(p, BUNDLE, ramp())
        want: list = []
        sample(small_pipeline(), BUNDLE, proposal, latent_log=want)
        for _ in range(2):  # resumed from step 4, then served whole from its slot
            log: list = []
            sample(p, BUNDLE, proposal, latent_log=log)
            for steps, want_steps in zip(log, want, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(steps, want_steps, strict=True))
                for latent in steps:
                    latent += 1.0


class TestAutoMasks:
    def test_thresholding(self):
        bg = np.zeros((4, 4))
        img = bg.copy()
        img[1, 2] = 0.3
        img[0, 0] = 0.05
        (mask,) = auto_masks([img], bg)
        assert mask[1, 2]
        assert not mask[0, 0]
        assert mask.sum() == 1


class TestGenerateAndScore:
    def test_frozen_report(self):
        p = small_pipeline()
        sched = make_schedule(ScheduleFamily("arctan", center=5.0, scale=0.8), 10)
        rep = generate_and_score(p, BUNDLE, sched)
        assert rep.f_bg == pytest.approx(-1.20146097654748e-06, abs=1e-18)
        assert rep.f_ti[0] == pytest.approx(45.0937486140487, abs=1e-10)
        assert rep.f_ti[1] == pytest.approx(62.20021904771755, abs=1e-10)
        assert rep.validity_ratio == 1.0
        assert rep.f_c == pytest.approx(1.7878723560698067, abs=1e-10)

    def test_theta_zero_gives_zero_background_cost(self):
        p = small_pipeline()
        rep = generate_and_score(p, BUNDLE, constant_schedule(0.0))
        assert rep.f_bg == 0.0

    def test_more_coupling_means_better_background(self):
        p = small_pipeline()
        coupled = generate_and_score(p, BUNDLE, constant_schedule(0.0))
        uncoupled = generate_and_score(p, BUNDLE, constant_schedule(1.0))
        assert coupled.f_bg >= uncoupled.f_bg

    def test_explicit_masks_used(self):
        p = small_pipeline()
        masks = [np.zeros((8, 8), dtype=bool) for _ in range(2)]
        masks[0][0, 0] = True
        rep = generate_and_score(p, BUNDLE, constant_schedule(0.5), masks=masks)
        assert rep.validity_ratio == 1.0 - 1.0 / 64.0

    def test_report_matches_hand_assembly(self):
        p = small_pipeline()
        sched = constant_schedule(0.5)
        rep = generate_and_score(p, BUNDLE, sched)
        from couplegen.pnm import quantize

        imgs = [quantize(i) for i in sample(p, BUNDLE, sched)]
        bg_img = quantize(sample_single_prompt(p, BUNDLE.background))
        masks = auto_masks(imgs, bg_img)
        assert rep.f_bg == background_similarity(imgs, jer(masks))

    def test_needs_two_entities(self):
        p = small_pipeline()
        single = PromptBundle("bg", ("only",))
        with pytest.raises(ValueError, match="2"):
            generate_and_score(p, single, constant_schedule(0.5))
