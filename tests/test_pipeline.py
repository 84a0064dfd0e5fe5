"""End-to-end tests for the miniature double/single-block denoising pipeline."""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import os
import select
import signal
import sys
import threading
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, invariant, rule

from couplegen import attention, isotonic
from couplegen import pipeline as pipeline_module
from couplegen.attention import (
    CoupledStreamState,
    StreamState,
    branch_attention,
    coupled_qkv_attention,
    joint_attention,
    merge_image_states,
)
from couplegen.metric import Lambdas, WeightOverflowError, background_similarity, jer
from couplegen.numerics import Rng
from couplegen.pipeline import (
    CHUNK_SCORE_BYTES,
    ENTITY_MEMO_BYTES,
    MAX_SIZES,
    Pipeline,
    PipelineConfig,
    TrajectoryMemo,
    auto_masks,
    generate_and_score,
    init_pipeline,
    render,
    run_double_block,
    run_single_block,
    sample,
    _chunks,
    _initial_noise,
    sample_single_prompt,
    score_images,
)
from couplegen.prompt_io import PromptBundle, embed_prompt
from couplegen.schedule import ScheduleFamily, ThetaSchedule, make_schedule

from oracles import exact_latents

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

    @pytest.mark.parametrize("name", sorted(MAX_SIZES))
    def test_size_bounds(self, name):
        # the bound itself is accepted, one past it is not; nothing is allocated
        most = MAX_SIZES[name]
        assert getattr(PipelineConfig(**{name: most}), name) == most
        with pytest.raises(ValueError, match=f"{name} must be <= {most}, got {most + 1}"):
            PipelineConfig(**{name: most + 1})

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


def counted_core(monkeypatch) -> list:
    """The (text, keyword arguments) of every later call into the attention
    core, through the public attention functions or from the pipeline's
    last single block of a step, which calls the core itself."""
    calls = []
    core = attention._attention

    def counting(text, image, *args, **kwargs):
        calls.append((text, kwargs))
        return core(text, image, *args, **kwargs)

    monkeypatch.setattr(attention, "_attention", counting)
    monkeypatch.setattr(pipeline_module, "_attention", counting)
    return calls


class TestBlocks:
    def _state(self, d=6, seed=3):
        rng = Rng(seed)
        return CoupledStreamState(
            background=rng.fill(4, d, -1, 1),
            entity=rng.fill(4, d, -1, 1),
            image=rng.fill(9, d, -1, 1),
        )

    def test_double_block_theta_zero_ignores_entity(self):
        p = small_pipeline(d_model=6)
        state = self._state()
        perturbed = CoupledStreamState(state.background, state.entity + 0.5, state.image)
        out_a = pipeline_module._run_step(p, state.text, state.image, 0.0)
        out_b = pipeline_module._run_step(p, perturbed.text, perturbed.image, 0.0)
        assert np.array_equal(out_a, out_b)

    def test_double_block_theta_one_matches_reference(self):
        # at theta=1 the block, given the entity stream, is a plain
        # two-stream block run on (entity, image)
        p = small_pipeline(d_model=6)
        state = self._state()
        blk = p.double_blocks[0]
        out_text, out_image = run_double_block(state.entity, state.image, blk, 1.0, p.norm_double)
        attn = joint_attention(StreamState(state.entity, state.image), blk.attn, p.norm_double)
        ent = state.entity + attn.text @ blk.attn.w_o
        img = state.image + attn.image @ blk.attn.w_o
        assert np.array_equal(out_text, ent + blk.text_ff(ent))
        assert np.array_equal(out_image, img + blk.image_ff(img))

    def test_single_block_boundaries(self):
        p = small_pipeline(d_model=6)
        state = self._state()
        blk = p.single_blocks[0]
        _, at0 = run_single_block(state.background, state.image, blk, 0.0, p.norm_single)
        _, at1 = run_single_block(state.entity, state.image, blk, 1.0, p.norm_single)
        _, mid = run_single_block(state.text, state.image, blk, 0.5, p.norm_single)
        # theta=0 keeps the background-branch image, theta=1 the entity-branch
        assert not np.array_equal(at0, at1)
        np.testing.assert_allclose(mid, 0.5 * (at0 + at1), atol=1e-12)

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
        calls = counted_core(monkeypatch)
        one_block = dataclasses.replace(p, double_blocks=(), single_blocks=(blk,))
        out = pipeline_module._run_step(one_block, state.text, state.image, theta)
        assert np.array_equal(out, expected)
        # only the kept branch runs: _run_step hands the block the live
        # member of the text stack alone, and as the step's last block it
        # scores no text query rows
        live = state.background if theta == 0.0 else state.entity
        assert len(calls) == 1
        text, kwargs = calls[0]
        assert text.base is state.text and np.array_equal(text, live)
        assert kwargs == {"text_queries": False}

    @pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_single_block_without_text_keeps_image(self, theta, stacked):
        p = small_pipeline(d_model=16)  # a power-of-two norm, sqrt(16)
        rng = Rng(8)
        bg, ent, image = (rng.fill(3 * n, 16, -1, 1).reshape(3, n, 16) for n in (8, 8, 64))
        if not stacked:
            bg, ent, image = bg[0], ent[0], image[0]
        text = bg if theta == 0.0 else ent if theta == 1.0 else np.stack((bg, ent))
        blk = p.single_blocks[0]
        _, want = run_single_block(text, image, blk, theta, p.norm_single)
        got_text, got = run_single_block(text, image, blk, theta, p.norm_single,
                                         keep_text=False)
        assert got_text is None and np.array_equal(got, want)

    def test_checked_state_is_not_checked_again(self, monkeypatch):
        # a state is checked where a caller builds it; the blocks and the
        # core pass it on and build their results without a check
        p = small_pipeline(d_model=6)
        state = self._state()
        blk = p.double_blocks[0]
        calls = []
        check = attention._check_streams

        def counting(**streams):
            calls.append(list(streams))
            return check(**streams)

        monkeypatch.setattr(attention, "_check_streams", counting)
        out_text, out_image = run_double_block(state.text, state.image, blk, 0.5, p.norm_double)
        assert calls == []
        attn = coupled_qkv_attention(state, blk.attn, 0.5, p.norm_double)
        assert calls == []
        assert isinstance(attn, CoupledStreamState)
        assert out_text.shape == state.text.shape and out_image.shape == state.image.shape
        # the sampler's only checks are those of branch_attention's bare
        # arrays, in the single block before a step's last, with its two
        # branches stacked; the coupled calls of the double blocks are not
        # checked, and the last single block calls the core on its arrays,
        # scoring no text query rows
        core_calls = counted_core(monkeypatch)
        sample(small_pipeline(), OTHER, constant_schedule(0.5))
        # branches=True is branch_attention's check, and no state's
        assert calls == [["branches", "text", "image"]] * 10
        coupled, branch, last = {"members"}, set(), {"text_queries"}
        assert [set(kwargs) for _, kwargs in core_calls] == [coupled, coupled, branch, last] * 10

    def test_interior_single_block_stacks_branches(self, monkeypatch):
        # both branches go through one branch_attention call as the (2, ...)
        # text stack over the one image
        p = small_pipeline(d_model=6)
        state = self._state()
        calls = []

        def counting(*args):
            calls.append(args)
            return branch_attention(*args)

        monkeypatch.setattr("couplegen.pipeline.branch_attention", counting)
        run_single_block(state.text, state.image, p.single_blocks[0], 0.5, p.norm_single)
        assert len(calls) == 1
        text, image = calls[0][:2]
        assert np.array_equal(text, np.stack((state.background, state.entity)))
        assert image is state.image

    @pytest.mark.parametrize("theta", [0.0, 1.0])
    def test_boundary_double_block_runs_live_stream(self, theta, monkeypatch):
        # one joint_attention call on the image and the live member of the
        # text stack, which _run_step hands the block alone
        p = small_pipeline(d_model=6)
        state = self._state()
        joint, coupled = [], []

        def counting_joint(*args):
            joint.append(args)
            return joint_attention(*args)

        def counting_coupled(*args):
            coupled.append(args)
            return coupled_qkv_attention(*args)

        monkeypatch.setattr("couplegen.pipeline.joint_attention", counting_joint)
        monkeypatch.setattr("couplegen.pipeline.coupled_qkv_attention", counting_coupled)
        one_block = dataclasses.replace(p, double_blocks=p.double_blocks[:1], single_blocks=())
        pipeline_module._run_step(one_block, state.text, state.image, theta)
        live = state.background if theta == 0.0 else state.entity
        assert coupled == [] and len(joint) == 1
        assert joint[0][0].text.base is state.text and np.array_equal(joint[0][0].text, live)
        assert joint[0][0].image is state.image

    def test_residual_structure(self):
        # output stays near the input when attention/FF products are tiny
        p = small_pipeline(d_model=6)
        state = self._state()
        _, image = run_double_block(state.text, state.image, p.double_blocks[0], 0.5, p.norm_double)
        assert np.max(np.abs(image - state.image)) < 0.5


def mixed_schedule(steps: int) -> ThetaSchedule:
    """Two steps at theta 0, interior steps, then theta 1 to the end."""
    values = np.ones(steps)
    values[:2] = 0.0
    values[2:steps - 2] = np.linspace(0.2, 0.8, steps - 4)
    return ThetaSchedule(values)


class TestExactness:
    """The sampler, which stacks the entities of a chunk, the background and
    entity text and the two single-block branches, renders the latents of
    the per-stream, per-branch, one-entity blocks bit for bit."""

    @pytest.mark.parametrize("cfg", [PipelineConfig(),
                                     PipelineConfig(d_model=32, grid_side=8, steps=6)],
                             ids=["default", "d32"])
    @pytest.mark.parametrize("family", ["arctan", "mixed"])
    @pytest.mark.parametrize("shared", [True, False])
    def test_latents_match_per_stream_blocks(self, cfg, family, shared):
        p = init_pipeline(cfg)
        if family == "mixed":
            sched = mixed_schedule(cfg.steps)
        else:
            sched = make_schedule(ScheduleFamily("arctan", cfg.steps / 2.0, 0.8), cfg.steps)
        # the second render resumes from the first one's prefixes in the memo
        for sched in (sched, nudged(sched, cfg.steps - 3)):
            log: list = []
            sample(p, OTHER, sched, noise_seed=3, shared_noise=shared, latent_log=log)
            want = exact_latents(p, OTHER, sched, 3, shared)
            assert all(np.array_equal(a, b)
                       for got, exp in zip(log, want, strict=True)
                       for a, b in zip(got, exp, strict=True))


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
    """One entry per entity row a run_double_block call renders, so the
    length is the sum of the calls' batch sizes."""
    calls: list = []

    def counting(text, image, *args):
        calls.extend([args] * (1 if image.ndim == 2 else len(image)))
        return run_double_block(text, image, *args)

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
        assert not p.memo.entries

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


FIVE = PromptBundle(
    "a quiet harbour at noon",
    ("a red boat", "a grey gull", "an old sailor", "a stack of crates", "a striped lighthouse"),
)


@contextlib.contextmanager
def per_entity(monkeypatch):
    """Inside, every chunk holds one entity: the unbatched reference."""
    with monkeypatch.context() as m:
        m.setattr("couplegen.pipeline.CHUNK_SCORE_BYTES", 0)
        yield


def same_renders(got, want) -> bool:
    return all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def same_logs(got, want) -> bool:
    return all(same_renders(a, b) for a, b in zip(got, want, strict=True))


class TestBatchedSample:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "separate"])
    @pytest.mark.parametrize("family", ["arctan", "step01"])
    def test_grouped_matches_per_entity(self, n, shared, family, monkeypatch):
        # step01 starts with 3 zeros, so the base-stream entity resumes from
        # the trunk and, with separate noise, the others from step 0
        bundle = PromptBundle(FIVE.background, FIVE.entities[:n])
        sched = make_schedule(ScheduleFamily(family, center=3.5, scale=0.8), 10)
        with per_entity(monkeypatch):
            want_log: list = []
            want = sample(small_pipeline(), bundle, sched, 7, shared, want_log)
        calls = counted_double_blocks(monkeypatch)
        got_log: list = []
        got = sample(small_pipeline(), bundle, sched, 7, shared, got_log)
        assert same_renders(got, want)
        assert same_logs(got_log, want_log)
        # the entities that resume at one depth share a chunk; with step01
        # and separate noise, 2 entities resume at different depths
        stacked = shared or family == "arctan" or n > 2
        assert (len({id(args) for args in calls}) < len(calls)) == stacked

    def test_mixed_resume_depths(self, monkeypatch):
        # the last entity's entry is evicted: it restarts from step 0 while
        # the others resume from the incumbent's first 6 steps
        p = small_pipeline()
        sample(p, FIVE, ramp())
        del p.memo.entries[(FIVE.background, 0, FIVE.entities[-1], tuple(ramp().values.tolist()))]
        proposal = nudged(ramp(), 6)
        calls = counted_double_blocks(monkeypatch)
        got_log: list = []
        got = sample(p, FIVE, proposal, latent_log=got_log)
        cfg = p.config
        assert len(calls) == (4 * (cfg.steps - 6) + cfg.steps) * cfg.double_blocks
        with per_entity(monkeypatch):
            want_log: list = []
            want = sample(small_pipeline(), FIVE, proposal, latent_log=want_log)
        assert same_renders(got, want)
        assert same_logs(got_log, want_log)

    @pytest.mark.parametrize("held", [5, 12])
    def test_every_entity_resumes_before_any_store(self, held, monkeypatch):
        # the middle entity's entry is gone, so it renders from step 0; its
        # store must not evict the entries the 4th and 5th entities resume
        # from, even when the memo holds only one entry per entity
        p = small_pipeline()
        cfg = p.config
        monkeypatch.setattr("couplegen.pipeline.ENTITY_MEMO_BYTES",
                            held * 8 * cfg.steps * cfg.image_tokens * cfg.d_model)
        sample(p, FIVE, ramp())
        del p.memo.entries[(FIVE.background, 0, FIVE.entities[2], tuple(ramp().values.tolist()))]
        proposal = nudged(ramp(), 6)
        calls = counted_double_blocks(monkeypatch)
        got = sample(p, FIVE, proposal)
        assert len(calls) == (4 * (cfg.steps - 6) + cfg.steps) * cfg.double_blocks  # 52
        assert same_renders(got, sample(small_pipeline(), FIVE, proposal))

    def test_repeated_entity_keeps_every_slot(self):
        # two entities of one call with one key both render and store; the
        # entry the second store replaces holds the same trajectory
        p = small_pipeline()
        twice = PromptBundle(BUNDLE.background, (BUNDLE.entities[0],) * 2)
        for sched in (ramp(), nudged(ramp(), 2), ramp()):
            got = sample(p, twice, sched)
            assert np.array_equal(got[0], got[1])
            want_log: list = []
            sample(small_pipeline(), twice, sched, latent_log=want_log)
            key = (twice.background, 0, twice.entities[0], tuple(sched.values.tolist()))
            assert same_renders(p.memo.entries[key], want_log[0])

    def test_failed_chunk_leaves_memo_intact(self):
        # theta 1.5 at step 5 raises inside a 3-entity chunk resumed from step 5
        p = small_pipeline()
        first = sample(p, OTHER, ramp())
        memo = p.memo
        entries = {key: [latent.copy() for latent in steps] for key, steps in memo.entries.items()}
        bad = ramp().values.copy()
        bad[5] = 1.5
        with pytest.raises(ValueError, match="theta"):
            sample(p, OTHER, ThetaSchedule(bad))
        assert list(memo.entries) == list(entries)
        assert all(same_renders(memo.entries[key], steps) for key, steps in entries.items())
        assert same_renders(sample(p, OTHER, ramp()), first)
        proposal = nudged(ramp(), 5)
        assert same_renders(sample(p, OTHER, proposal), sample(small_pipeline(), OTHER, proposal))


@contextlib.contextmanager
def three_chunks(monkeypatch):
    """Inside, a default-config call's 5 entities of one depth split into
    chunks of 1, 2 and 2 entities, which render on the pool."""
    cfg = PipelineConfig()
    with monkeypatch.context() as m:
        m.setattr("couplegen.pipeline.CHUNK_SCORE_BYTES",
                  2 * 2 * 8 * (cfg.image_tokens + cfg.text_tokens) ** 2)
        assert [len(c) for c in _chunks(list(range(5)), cfg)] == [1, 2, 2]
        yield m


class RunsInOrder:
    """An executor that runs each task to the end as it is submitted, in
    the calling thread, so the scheduler's loops run one after another."""

    def __init__(self):
        self.futures: list = []

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # noqa: BLE001 - handed to the future, as a pool does
            future.set_exception(exc)
        self.futures.append(future)
        return future


def recorded_steps(m, after_step=None) -> tuple[list, list]:
    """Inside the monkeypatch context m, (sizes, steps): the stack size of
    every _trajectory run in the order the runs are made, and per step, in
    the order the steps end, (run index, whether the main thread ran it).
    after_step(size, last), if given, runs in the step's thread as it ends."""
    sizes: list = []
    steps: list = []
    trajectory = pipeline_module._trajectory

    def stepping(run, stepper, size, n_steps):
        for k, x in enumerate(stepper):
            steps.append((run, threading.current_thread() is threading.main_thread()))
            if after_step is not None:
                after_step(size, k == n_steps - 1)
            yield x

    def recorded(pipeline, text, x, thetas, *rest):
        sizes.append(len(x))
        return stepping(len(sizes) - 1, trajectory(pipeline, text, x, thetas, *rest),
                        len(x), len(thetas))

    m.setattr(pipeline_module, "_trajectory", recorded)
    return sizes, steps


def chunk_pool(m, pool, workers: int) -> None:
    """Inside the monkeypatch context m, calls render their chunks on
    workers loops on pool."""
    m.setattr(pipeline_module, "_executor", lambda: pool)
    m.setattr(pipeline_module, "_workers", lambda: workers)


def first_entity(cfg: PipelineConfig, text) -> int:
    """The index in FIVE of the first entity of a chunk's text stack."""
    return next(j for j, entity in enumerate(FIVE.entities) if np.array_equal(
        text[1, 0], embed_prompt(entity, cfg.d_model, cfg.text_tokens, seed=cfg.weight_seed)))


class TestConcurrentChunks:
    """The chunks of a call advance one step at a time on the pool, each
    with the bits of a one-chunk render; the calling thread stores their
    entries in chunk order once all have rendered, and stores nothing when
    a step raises."""

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "separate"])
    @pytest.mark.parametrize("family", ["ramp", "mixed"])
    def test_matches_one_chunk_and_per_stream_blocks(self, shared, family, monkeypatch):
        # mixed starts at theta 0, so with separate noise entity 0 resumes
        # from the trunk in a chunk of its own; the nudged render resumes
        # every entity from the first one's entries
        first = mixed_schedule(10) if family == "mixed" else ramp()
        p = small_pipeline()
        for sched in (first, nudged(first, 6)):
            want_log: list = []
            want = sample(small_pipeline(), FIVE, sched, 3, shared, want_log)  # one chunk
            got_log: list = []
            with three_chunks(monkeypatch) as m:
                sizes, steps = recorded_steps(m)
                got = sample(p, FIVE, sched, 3, shared, got_log)
            # the trunk renders inline, every step of a chunk off the main thread
            on_main = {run for run, main in steps if main}
            off_main = [size for run, size in enumerate(sizes) if run not in on_main]
            assert not on_main & {run for run, main in steps if not main}
            assert len(off_main) == 3 and sum(off_main) == 5
            assert same_renders(got, want)
            assert same_logs(got_log, want_log)
            assert same_logs(got_log, exact_latents(p, FIVE, sched, 3, shared))

    @pytest.mark.parametrize(
        "bundle, chunking, order",
        [
            # 3 chunks of 1 entity take turns
            (OTHER, per_entity, [0, 1, 2] * 10),
            # chunks of 1, 2 and 2 entities: the chunk with the most
            # entity-steps left goes first, the earliest of a tie
            (FIVE, three_chunks, [1, 2] * 5 + [0, 1, 2, 0] * 5),
        ],
        ids=["equal", "most_left_first"],
    )
    def test_step_order(self, bundle, chunking, order, monkeypatch):
        pool = RunsInOrder()
        with chunking(monkeypatch), monkeypatch.context() as m:
            chunk_pool(m, pool, 2)
            sizes, steps = recorded_steps(m)
            got = sample(small_pipeline(), bundle, ramp())
        assert len(sizes) == 3
        assert [run for run, _ in steps] == order
        assert len(pool.futures) == 2  # the first loop runs every step
        assert same_renders(got, sample(small_pipeline(), bundle, ramp()))

    def test_entries_stored_in_chunk_order(self, monkeypatch):
        # the first chunk finishes last, and its entry is still stored first
        serial = small_pipeline()
        want = sample(serial, FIVE, ramp())
        finished: list = []
        others_done = threading.Event()

        def first_last(size, last):
            if last:
                if size == 1:
                    assert others_done.wait(10)
                finished.append(size)
                if finished == [2, 2]:
                    others_done.set()

        p = small_pipeline()
        with ThreadPoolExecutor(3) as pool, three_chunks(monkeypatch) as m:
            chunk_pool(m, pool, 3)
            recorded_steps(m, first_last)
            got = sample(p, FIVE, ramp())
        assert finished == [2, 2, 1]
        assert same_renders(got, want)
        assert list(p.memo.entries) == list(serial.memo.entries)
        for key, steps in serial.memo.entries.items():
            assert same_renders(p.memo.entries[key], steps)

    def test_failed_chunk_raises_first_error_and_stores_nothing(self, monkeypatch):
        p = small_pipeline()
        sample(p, OTHER, ramp())
        held = list(p.memo.entries)
        raised: list = []
        later_raised = threading.Event()
        trajectory = pipeline_module._trajectory

        def failing(pipeline, text, x, *rest):
            first = first_entity(pipeline.config, text)
            if len(x) == 2:  # both chunks of 2 raise, the later one first
                if first == 1:
                    assert later_raised.wait(10)
                raised.append(first)
                later_raised.set()
                raise RuntimeError(f"chunk from entity {first} failed")
            yield from trajectory(pipeline, text, x, *rest)

        with ThreadPoolExecutor(2) as pool, three_chunks(monkeypatch) as m:
            chunk_pool(m, pool, 2)
            m.setattr(pipeline_module, "_trajectory", failing)
            with pytest.raises(RuntimeError, match="chunk from entity 1 failed"):
                sample(p, FIVE, ramp())
        assert raised == [3, 1]
        assert list(p.memo.entries) == held
        with three_chunks(monkeypatch):
            assert same_renders(sample(p, FIVE, ramp()), sample(small_pipeline(), FIVE, ramp()))

    def test_no_step_starts_after_one_raises(self, monkeypatch):
        pool = RunsInOrder()
        started: list = []
        trajectory = pipeline_module._trajectory

        def failing(pipeline, text, x, thetas, *rest):
            first = first_entity(pipeline.config, text)
            stepper = trajectory(pipeline, text, x, thetas, *rest)
            for k in range(len(thetas)):
                started.append(first)
                if first == 3 and k == 1:
                    raise RuntimeError("second step of entity 3 failed")
                yield next(stepper)

        p = small_pipeline()
        with three_chunks(monkeypatch) as m:
            chunk_pool(m, pool, 3)
            m.setattr(pipeline_module, "_trajectory", failing)
            with pytest.raises(RuntimeError, match="second step of entity 3 failed"):
                sample(p, FIVE, ramp())
        assert started == [1, 3, 1, 3]
        assert [f.exception() for f in pool.futures] == [None] * 3
        assert not p.memo.entries

    def test_chunk_never_advanced_by_two_threads(self, monkeypatch):
        # more loops than cores and a short switch interval: each chunk has
        # at most one step in flight, and the bits are a one-loop render's
        lock = threading.Lock()
        in_flight: dict = {}
        most: list = [0]
        run_step = pipeline_module._run_step

        def counted(pipeline, text, image, theta):
            chunk = id(text)  # one text stack per chunk, held across its steps
            with lock:
                in_flight[chunk] = in_flight.get(chunk, 0) + 1
                most[0] = max(most[0], in_flight[chunk])
            try:
                return run_step(pipeline, text, image, theta)
            finally:
                with lock:
                    in_flight[chunk] -= 1

        def renders(workers: int):
            p = small_pipeline()
            log: list = []
            with ThreadPoolExecutor(workers) as pool, monkeypatch.context() as m:
                m.setattr("couplegen.pipeline.CHUNK_SCORE_BYTES", 0)
                chunk_pool(m, pool, workers)
                m.setattr(pipeline_module, "_run_step", counted)
                first = mixed_schedule(10)
                images = [sample(p, FIVE, sched, 3, False, log) for sched in (first, nudged(first, 6))]
            return images, log, p.memo.entries

        want_images, want_log, want_entries = renders(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            images, log, entries = renders(4)
        finally:
            sys.setswitchinterval(interval)
        assert most[0] == 1
        assert same_logs(images, want_images)
        assert same_logs(log, want_log)
        assert list(entries) == list(want_entries)
        assert all(same_renders(entries[key], steps) for key, steps in want_entries.items())

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_renders_on_its_own_pool(self):
        # a forked child has none of the pool's threads: without the at-fork
        # hook that drops the cached pool, its first call with more than one
        # chunk would queue its steps for workers that never run them
        cfg = PipelineConfig(d_model=32, grid_side=16)  # one chunk per entity
        want = sample(init_pipeline(cfg), OTHER, ramp())
        assert pipeline_module._executor.cache_info().currsize == 1
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:  # the child reports through the pipe and never returns
            same = False
            try:
                got = sample(init_pipeline(cfg), OTHER, ramp())
                same = all(np.array_equal(a, b) for a, b in zip(got, want))
            finally:
                os.write(write, b"1" if same else b"0")
                os._exit(0)
        os.close(write)
        try:
            done = select.select([read], [], [], 60)[0]
            if not done:
                os.kill(pid, signal.SIGKILL)
            report = os.read(read, 1) if done else b"hung"
        finally:
            os.close(read)
            os.waitpid(pid, 0)
        assert report == b"1"


TINY = PipelineConfig(d_model=4, text_tokens=4, grid_side=3, double_blocks=1,
                      single_blocks=1, steps=4)
TINY_BYTES = 8 * TINY.steps * TINY.image_tokens * TINY.d_model
POOL = [
    BUNDLE,
    OTHER,
    PromptBundle(OTHER.background, BUNDLE.entities),
    PromptBundle(BUNDLE.background, (OTHER.entities[0],) * 2),
]
# few theta values over few steps, so schedules share prefixes and leading zeros
renders = st.tuples(
    st.just("sample"),
    st.sampled_from(POOL),
    st.lists(st.sampled_from([0.0, 0.4, 1.0]), min_size=TINY.steps, max_size=TINY.steps),
    st.sampled_from([None, 0, 1, 3]),  # separate noise puts entity 1 of seed 0 on stream 1
    st.booleans(),  # shared noise
    st.booleans(),  # latent log
)
references = st.tuples(
    st.just("single"), st.sampled_from(POOL), st.sampled_from([None, 0, 1, 3])
)


class TestTrajectoryMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        held=st.sampled_from([0, 1, 3, None]),  # entries the budget holds; None: the default
        calls=st.lists(st.one_of(renders, references), min_size=1, max_size=8),
    )
    def test_reused_pipeline_matches_fresh(self, held, calls):
        with pytest.MonkeyPatch.context() as m:
            if held is not None:
                m.setattr("couplegen.pipeline.ENTITY_MEMO_BYTES", held * TINY_BYTES)
            reused = init_pipeline(TINY)
            for call in calls:
                if call[0] == "single":
                    _, bundle, seed = call
                    assert np.array_equal(
                        sample_single_prompt(reused, bundle.background, seed),
                        sample_single_prompt(init_pipeline(TINY), bundle.background, seed),
                    )
                else:
                    _, bundle, values, seed, shared, logged = call
                    sched = ThetaSchedule(np.array(values))
                    got_log, want_log = ([], []) if logged else (None, None)
                    got = sample(reused, bundle, sched, seed, shared, got_log)
                    want = sample(init_pipeline(TINY), bundle, sched, seed, shared, want_log)
                    assert same_renders(got, want)
                    if logged:
                        assert same_logs(got_log, want_log)
                        for steps in got_log:  # the log is the caller's to write
                            for latent in steps:
                                latent += 1.0
                memo = reused.memo
                assert len(memo.trunk) <= 1
                assert len(memo.entries) <= (ENTITY_MEMO_BYTES // TINY_BYTES if held is None else held)
                held_steps = [*memo.trunk.values(), *memo.entries.values()]
                assert all(len(steps) == TINY.steps for steps in held_steps)
                assert not any(latent.flags.writeable for steps in held_steps for latent in steps)

    def test_failed_render_keeps_entry_order(self):
        # the lookup for a matches its entry, and the render fails at step 4
        p = init_pipeline(TINY)
        values = np.array([0.2, 0.4, 0.6, 0.8])
        for entity in ("a", "b"):
            sample(p, PromptBundle("room", (entity,)), ThetaSchedule(values))
        assert [key[2] for key in p.memo.entries] == ["a", "b"]
        values[3] = 1.5
        with pytest.raises(ValueError, match="theta"):
            sample(p, PromptBundle("room", ("a",)), ThetaSchedule(values))
        assert [key[2] for key in p.memo.entries] == ["a", "b"]


THETAS = [0.0, 0.3, 0.6, 1.0]  # theta at 0, interior and at 1
BACKGROUNDS = [BUNDLE.background, OTHER.background]
ENTITIES = st.lists(st.sampled_from(OTHER.entities), min_size=1, max_size=5)
SEEDS = st.sampled_from([None, 0, 1])
# two TINY entities per chunk: a call's chunks are stacks and run on the pool
TINY_CHUNK_BYTES = 2 * 8 * max((TINY.image_tokens + 2 * TINY.text_tokens) ** 2,
                               2 * (TINY.image_tokens + TINY.text_tokens) ** 2)


@functools.cache
def oracle_trajectory(background: str, entity: str, thetas: tuple, seed: int) -> list:
    """exact_latents of one TINY entity render on a fresh pipeline."""
    [log] = exact_latents(init_pipeline(TINY), PromptBundle(background, (entity,)),
                          ThetaSchedule(np.array(thetas)), seed)
    return log


def oracle_image(latents: list) -> np.ndarray:
    return 0.5 * (np.tanh(latents[-1][:, 0].reshape(TINY.grid_side, TINY.grid_side)) + 1.0)


class SamplerMemoMachine(RuleBasedStateMachine):
    """One TINY pipeline driven through renders, references and failing
    renders, compared after every call with the per-stream oracle; its memo
    must hold only whole, read-only, oracle-equal trajectories, in the order
    a serial render stores them."""

    schedules = Bundle("schedules")

    def __init__(self):
        super().__init__()
        self.patches = pytest.MonkeyPatch()
        self.patches.setattr(pipeline_module, "CHUNK_SCORE_BYTES", TINY_CHUNK_BYTES)
        self.pipeline = init_pipeline(TINY)
        self.limit = 0

    def teardown(self):
        self.patches.undo()

    @initialize(held=st.sampled_from([0, 1, 3]))
    def budget(self, held):
        self.patches.setattr(pipeline_module, "ENTITY_MEMO_BYTES", held * TINY_BYTES)
        self.limit = held

    @rule(target=schedules,
          values=st.lists(st.sampled_from(THETAS), min_size=TINY.steps, max_size=TINY.steps))
    def fresh(self, values):
        return tuple(sorted(values))

    @rule(target=schedules, base=schedules, i=st.integers(0, TINY.steps - 1),
          theta=st.sampled_from(THETAS))
    def nudged(self, base, i, theta):
        """base with theta at step i, the other steps clamped to stay monotone."""
        return tuple(min(x, theta) if k < i else max(x, theta) if k > i else theta
                     for k, x in enumerate(base))

    def serial_entries(self, keys: list) -> list:
        """The memo's entry keys once a render of keys stores as a serial
        one does: every key looked up first, then each rendered key stored
        in chunk order, which is entity order within each resume depth."""
        memo = self.pipeline.memo
        model = TrajectoryMemo()
        model.trunk, model.entries = dict(memo.trunk), OrderedDict(memo.entries)
        background, seed, _, thetas = keys[0]
        if thetas[0] == 0.0:
            trunk = (background, seed, None, (0.0,) * TINY.steps)
            model.trunk = {trunk: model.trunk.get(trunk)}
        groups: dict = {}
        matches = []
        for key in keys:
            depth, _, match = model.lookup(key)
            groups.setdefault(depth, []).append(key)
            matches.append(match)
        model.refresh(matches)
        groups.pop(TINY.steps, None)
        if self.limit:
            for key in itertools.chain(*groups.values()):
                model.store(key, [], self.limit)
        return list(model.entries)

    @rule(background=st.sampled_from(BACKGROUNDS), entities=ENTITIES, schedule=schedules,
          seed=SEEDS, shared=st.booleans(), logged=st.booleans())
    def sample(self, background, entities, schedule, seed, shared, logged):
        base = TINY.noise_seed if seed is None else seed
        keys = [(background, base if shared else base + j, entity, schedule)
                for j, entity in enumerate(entities)]
        want_entries = self.serial_entries(keys)
        log = [] if logged else None
        images = sample(self.pipeline, PromptBundle(background, tuple(entities)),
                        ThetaSchedule(np.array(schedule)), seed, shared, log)
        wants = [oracle_trajectory(b, e, thetas, s) for b, s, e, thetas in keys]
        assert same_renders(images, [oracle_image(want) for want in wants])
        if logged:
            assert same_logs(log, wants)
        assert list(self.pipeline.memo.entries) == want_entries

    @rule(background=st.sampled_from(BACKGROUNDS), seed=SEEDS)
    def single_prompt(self, background, seed):
        base = TINY.noise_seed if seed is None else seed
        want = oracle_trajectory(background, background, (0.0,) * TINY.steps, base)
        assert np.array_equal(sample_single_prompt(self.pipeline, background, seed),
                              oracle_image(want))

    @rule(background=st.sampled_from(BACKGROUNDS), entities=ENTITIES, schedule=schedules,
          bad=st.integers(0, TINY.steps - 1), seed=SEEDS, shared=st.booleans())
    def failing_render(self, background, entities, schedule, bad, seed, shared):
        """theta 1.5 at step bad raises in every chunk that reaches it;
        nothing is stored, dropped or reordered."""
        values = np.array(schedule)
        values[bad] = 1.5
        entries = self.pipeline.memo.entries
        before = [(key, [id(latent) for latent in steps]) for key, steps in entries.items()]
        with pytest.raises(ValueError, match="theta"):
            sample(self.pipeline, PromptBundle(background, tuple(entities)),
                   ThetaSchedule(values), seed, shared)
        assert [(key, [id(latent) for latent in steps]) for key, steps in entries.items()] == before

    @invariant()
    def memo_holds_whole_read_only_oracle_trajectories(self):
        memo = self.pipeline.memo
        assert len(memo.trunk) <= 1
        assert len(memo.entries) <= self.limit
        for (background, seed, entity, thetas), steps in [*memo.trunk.items(),
                                                           *memo.entries.items()]:
            assert not any(latent.flags.writeable for latent in steps)
            assert same_renders(steps, oracle_trajectory(background, entity or background,
                                                         thetas, seed))


TestSamplerMemoMachine = SamplerMemoMachine.TestCase
TestSamplerMemoMachine.settings = settings(max_examples=100, stateful_step_count=15,
                                           deadline=None)


class TestChunks:
    """A chunk's largest score block stays within 2 MiB."""

    @pytest.mark.parametrize(
        "overrides, n, sizes",
        [
            ({"d_model": 32, "grid_side": 16}, 9, [1] * 9),  # 1.12 MB per entity
            ({"d_model": 32, "grid_side": 16}, 4, [1, 1, 1, 1]),
            ({}, 5, [5]),  # 81 KiB per entity
            ({}, 51, [17, 17, 17]),
            ({}, 52, [17, 17, 18]),
            ({"d_model": 64, "grid_side": 32}, 3, [1, 1, 1]),  # 17.0 MB per entity
            ({}, 40, [20, 20]),
            ({}, 41, [20, 21]),
        ],
    )
    def test_balanced_sizes(self, overrides, n, sizes):
        cfg = PipelineConfig(**overrides)
        chunks = _chunks(list(range(n)), cfg)
        assert [len(c) for c in chunks] == sizes
        assert sum(chunks, []) == list(range(n))
        # the stacked branches of an interior single block fit the budget too
        branch_bytes = 2 * 8 * (cfg.image_tokens + cfg.text_tokens) ** 2
        assert all(len(c) * branch_bytes <= CHUNK_SCORE_BYTES for c in chunks if len(c) > 1)


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
        images, _, _ = render(p, BUNDLE, constant_schedule(0.5))
        rep = score_images(images, masks, BUNDLE.entities, Lambdas())
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

    @pytest.mark.parametrize("n_images, n_masks, n_prompts", [(2, 2, 1), (2, 2, 3), (3, 2, 3),
                                                              (2, 3, 2)])
    def test_unequal_counts_rejected(self, n_images, n_masks, n_prompts):
        # zip would score the shortest of the three and drop the rest
        images = [np.full((8, 8), 0.5)] * n_images
        masks = [np.zeros((8, 8), dtype=bool)] * n_masks
        with pytest.raises(ValueError, match=f"{n_images} images, {n_masks} masks and "
                                             f"{n_prompts} entity prompts"):
            score_images(images, masks, ["a cat", "a dog", "an owl"][:n_prompts], Lambdas())

    def test_nan_pixel_is_a_bad_image(self):
        # not an f_c overflow blamed on lambda_bg
        images = [np.full((8, 8), 0.5), np.full((8, 8), 0.5)]
        images[1][3, 4] = np.nan
        masks = [np.zeros((8, 8), dtype=bool)] * 2
        with pytest.raises(ValueError, match=r"image values must lie in \[0, 1\]") as info:
            score_images(images, masks, BUNDLE.entities, Lambdas())
        assert not isinstance(info.value, WeightOverflowError)

    def test_needs_two_entities(self):
        p = small_pipeline()
        single = PromptBundle("bg", ("only",))
        with pytest.raises(ValueError, match="2"):
            generate_and_score(p, single, constant_schedule(0.5))
