"""Attention mechanism tests: trivial identities, scalar-loop oracle
agreement, and the exact theta boundary reductions."""

import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplegen import attention
from couplegen.attention import (
    AttentionWeights,
    CoupledStreamState,
    NormConst,
    StreamState,
    branch_attention,
    coupled_qkv_attention,
    joint_attention,
    merge_image_states,
    norm_for,
)
from couplegen.numerics import Rng, ShapeError, softmax_rows
from couplegen.pipeline import FeedForward, SingleBlockWeights, run_single_block

from oracles import (
    oracle_branch_attention,
    oracle_coupled_attention,
    oracle_joint_attention,
    per_stream_attention,
)


def random_weights(rng: Rng, d: int) -> AttentionWeights:
    return AttentionWeights(
        w_q=rng.fill(d, d, -1.0, 1.0),
        w_k=rng.fill(d, d, -1.0, 1.0),
        w_v=rng.fill(d, d, -1.0, 1.0),
        w_o=rng.fill(d, d, -1.0, 1.0),
    )


def test_norm_for_matches_sqrt():
    assert norm_for(16, 16).value == np.sqrt(32.0)
    with pytest.raises(ValueError):
        NormConst(0.0)


class TestJointAttention:
    def test_zero_scores_give_uniform_attention(self):
        d = 3
        w = AttentionWeights(np.zeros((d, d)), np.zeros((d, d)), np.eye(d), np.eye(d))
        text = np.array([[1.0, 2.0, 3.0]])
        image = np.array([[5.0, -1.0, 0.0]])
        out = joint_attention(StreamState(text, image), w, norm_for(d, d))
        mean = (text[0] + image[0]) / 2.0
        np.testing.assert_allclose(out.text[0], mean, atol=1e-15)
        np.testing.assert_allclose(out.image[0], mean, atol=1e-15)

    def test_image_permutation_equivariance(self):
        rng = Rng(3)
        d = 4
        w = random_weights(rng, d)
        text = rng.fill(2, d, -1.0, 1.0)
        image = rng.fill(3, d, -1.0, 1.0)
        perm = [2, 0, 1]
        base = joint_attention(StreamState(text, image), w, norm_for(d, d))
        permuted = joint_attention(StreamState(text, image[perm]), w, norm_for(d, d))
        np.testing.assert_allclose(permuted.image, base.image[perm], atol=1e-12)
        np.testing.assert_allclose(permuted.text, base.text, atol=1e-12)

    def test_matches_scalar_oracle(self):
        rng = Rng(11)
        for _ in range(25):
            d = 2 + rng.next_u64() % 3
            n_text = 1 + rng.next_u64() % 3
            n_img = 1 + rng.next_u64() % 3
            w = random_weights(rng, d)
            text = rng.fill(n_text, d, -1.0, 1.0)
            image = rng.fill(n_img, d, -1.0, 1.0)
            norm = norm_for(d, d)
            out = joint_attention(StreamState(text, image), w, norm)
            ref_text, ref_img = oracle_joint_attention(text, image, w, norm.value)
            np.testing.assert_allclose(out.text, ref_text, atol=1e-10)
            np.testing.assert_allclose(out.image, ref_img, atol=1e-10)

    def test_shape_mismatch(self):
        w = random_weights(Rng(0), 4)
        with pytest.raises(ShapeError):
            joint_attention(StreamState(np.zeros((1, 3)), np.zeros((1, 3))), w, NormConst(2.0))
        with pytest.raises(ShapeError):
            StreamState(np.zeros((1, 3)), np.zeros((1, 4)))


class TestCoupledAttention:
    def test_theta_one_reduces_to_entity_joint(self):
        rng = Rng(21)
        d = 4
        w = random_weights(rng, d)
        bg = rng.fill(2, d, -1.0, 1.0)
        ent = rng.fill(2, d, -1.0, 1.0)
        img = rng.fill(3, d, -1.0, 1.0)
        norm = norm_for(d, d)
        out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, 1.0, norm)
        ref = joint_attention(StreamState(ent, img), w, norm)
        assert np.array_equal(out.entity, ref.text)
        assert np.array_equal(out.image, ref.image)

    def test_theta_zero_reduces_to_background_joint(self):
        rng = Rng(22)
        d = 4
        w = random_weights(rng, d)
        bg = rng.fill(2, d, -1.0, 1.0)
        ent = rng.fill(2, d, -1.0, 1.0)
        img = rng.fill(2, d, -1.0, 1.0)
        norm = norm_for(d, d)
        out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, 0.0, norm)
        ref = joint_attention(StreamState(bg, img), w, norm)
        assert np.array_equal(out.background, ref.text)
        assert np.array_equal(out.image, ref.image)

    def test_matches_scalar_oracle_mid_theta(self):
        rng = Rng(33)
        for _ in range(25):
            d = 2 + rng.next_u64() % 3
            w = random_weights(rng, d)
            n_txt = 1 + rng.next_u64() % 2
            bg = rng.fill(n_txt, d, -1.0, 1.0)
            ent = rng.fill(n_txt, d, -1.0, 1.0)
            img = rng.fill(1 + rng.next_u64() % 3, d, -1.0, 1.0)
            theta = rng.uniform(0.0, 1.0)
            norm = norm_for(d, d)
            out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, theta, norm)
            ref_bg, ref_ent, ref_img = oracle_coupled_attention(bg, ent, img, w, theta, norm.value)
            np.testing.assert_allclose(out.background, ref_bg, atol=1e-10)
            np.testing.assert_allclose(out.entity, ref_ent, atol=1e-10)
            np.testing.assert_allclose(out.image, ref_img, atol=1e-10)

    def test_single_token_case_against_eq5_literal(self):
        rng = Rng(44)
        d = 2
        w = random_weights(rng, d)
        bg = rng.fill(1, d, -1.0, 1.0)
        ent = rng.fill(1, d, -1.0, 1.0)
        img = rng.fill(1, d, -1.0, 1.0)
        norm = norm_for(d, d)
        out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, 0.5, norm)
        ref = oracle_coupled_attention(bg, ent, img, w, 0.5, norm.value)
        np.testing.assert_allclose(out.image, ref[2], atol=1e-10)

    def test_unequal_texts_rejected(self):
        for bg, ent in (((2, 4), (1, 4)), ((3, 1, 4), (3, 2, 4))):
            with pytest.raises(ShapeError, match=re.escape(f"background {bg} and entity {ent}")):
                CoupledStreamState(np.zeros(bg), np.zeros(ent), np.zeros(bg[:-2] + (3, 4)))

    def test_streams_are_members_of_the_text_stack(self):
        # a coupled state is a (text, image) state whose text is the
        # (2, ...) stack; its background and entity are its two members
        rng = Rng(23)
        d = 4
        bg, ent = rng.fill(2, d, -1.0, 1.0), rng.fill(2, d, -1.0, 1.0)
        state = CoupledStreamState(bg, ent, rng.fill(3, d, -1.0, 1.0))
        out = coupled_qkv_attention(state, random_weights(rng, d), 0.5, norm_for(d, d))
        assert isinstance(state, StreamState) and isinstance(out, StreamState)
        assert np.array_equal(state.text, np.stack((bg, ent)))
        for s in (state, out):
            assert s.text.shape == (2, 2, d)
            assert np.shares_memory(s.background, s.text) and np.shares_memory(s.entity, s.text)
            assert np.array_equal(s.background, s.text[0]) and np.array_equal(s.entity, s.text[1])

    @pytest.mark.parametrize("text_shape", [(1, 2), (3, 2), (2, 3, 2)])
    def test_plain_stream_state_rejected(self, text_shape):
        # a StreamState's text has no background and entity members to read
        w = random_weights(Rng(1), 2)
        image = np.zeros(text_shape[:-2] + (1, 2))
        state = StreamState(np.zeros(text_shape), image)
        with pytest.raises(TypeError, match="got StreamState"):
            coupled_qkv_attention(state, w, 0.5, NormConst(2.0))

    def test_theta_out_of_range(self):
        w = random_weights(Rng(1), 2)
        state = CoupledStreamState(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
        for theta in (-0.01, 1.01):
            with pytest.raises(ValueError, match="theta"):
                coupled_qkv_attention(state, w, theta, NormConst(2.0))

    def test_row_stochastic_weights(self):
        # One basis-vector token per stream with w_v = I makes V the
        # identity, so the outputs ARE the attention weight rows.
        rng = Rng(55)
        d = 3
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0):
            w = AttentionWeights(
                w_q=rng.fill(d, d, -1.0, 1.0),
                w_k=rng.fill(d, d, -1.0, 1.0),
                w_v=np.eye(d),
                w_o=np.eye(d),
            )
            state = CoupledStreamState(
                np.array([[1.0, 0.0, 0.0]]),
                np.array([[0.0, 1.0, 0.0]]),
                np.array([[0.0, 0.0, 1.0]]),
            )
            out = coupled_qkv_attention(state, w, theta, norm_for(d, d))
            for weights_row in (out.background, out.entity, out.image):
                np.testing.assert_allclose(weights_row.sum(), 1.0, atol=1e-9)
                assert np.all(weights_row >= 0.0)

    def test_continuity_in_theta(self):
        rng = Rng(66)
        d = 3
        w = random_weights(rng, d)
        bg = rng.fill(2, d, -1.0, 1.0)
        ent = rng.fill(2, d, -1.0, 1.0)
        img = rng.fill(2, d, -1.0, 1.0)
        norm = norm_for(d, d)

        def image_out(theta):
            return coupled_qkv_attention(
                CoupledStreamState(bg, ent, img), w, theta, norm
            ).image

        grid = np.arange(0.01, 0.995, 0.01)
        h = 1e-4
        values = [image_out(t) for t in grid]
        for i in range(len(grid) - 1):
            jump = np.max(np.abs(values[i + 1] - values[i]))
            slopes = []
            for t in (grid[i], grid[i] + 0.005, grid[i + 1]):
                slope = np.max(np.abs(image_out(t + h) - image_out(t - h))) / (2 * h)
                slopes.append(slope)
            bound = max(slopes) * 0.01
            assert jump <= bound * (1.0 + 1e-3) + 1e-12


class TestBranchAttention:
    def test_zero_query_uniform(self):
        d = 2
        w = AttentionWeights(np.zeros((d, d)), np.zeros((d, d)), np.eye(d), np.eye(d))
        text = np.array([[2.0, 0.0], [0.0, 2.0]])
        image = np.array([[4.0, 4.0]])
        t_out, i_out = branch_attention(text, image, w, NormConst(2.0))
        mean = np.vstack([text, image]).mean(axis=0)
        np.testing.assert_allclose(t_out, np.tile(mean, (2, 1)), atol=1e-15)
        np.testing.assert_allclose(i_out, mean[None, :], atol=1e-15)

    def test_matches_scalar_oracle(self):
        rng = Rng(77)
        for _ in range(25):
            d = 2 + rng.next_u64() % 3
            w = random_weights(rng, d)
            text = rng.fill(1 + rng.next_u64() % 3, d, -1.0, 1.0)
            image = rng.fill(1 + rng.next_u64() % 3, d, -1.0, 1.0)
            norm = NormConst(np.sqrt(d))
            t_out, i_out = branch_attention(text, image, w, norm)
            ref_t, ref_i = oracle_branch_attention(text, image, w, norm.value)
            np.testing.assert_allclose(t_out, ref_t, atol=1e-10)
            np.testing.assert_allclose(i_out, ref_i, atol=1e-10)

    def test_output_token_counts(self):
        rng = Rng(88)
        d = 3
        w = random_weights(rng, d)
        t_out, i_out = branch_attention(
            rng.fill(4, d, -1, 1), rng.fill(5, d, -1, 1), w, NormConst(1.0)
        )
        assert t_out.shape == (4, d)
        assert i_out.shape == (5, d)


class TestMergeImageStates:
    def test_midpoint(self):
        a = np.full((2, 2), 2.0)
        b = np.zeros((2, 2))
        np.testing.assert_array_equal(merge_image_states(a, b, 0.5), np.ones((2, 2)))

    def test_boundaries_bit_identical(self):
        rng = Rng(9)
        a = rng.fill(3, 2, -1, 1)
        b = rng.fill(3, 2, -1, 1)
        assert np.array_equal(merge_image_states(a, b, 1.0), a)
        assert np.array_equal(merge_image_states(a, b, 0.0), b)

    def test_errors(self):
        with pytest.raises(ShapeError):
            merge_image_states(np.zeros((2, 2)), np.zeros((3, 2)), 0.5)
        with pytest.raises(ValueError, match="theta"):
            merge_image_states(np.zeros((2, 2)), np.zeros((2, 2)), 1.5)


@st.composite
def stacks(draw):
    """(weights, background, entity, image stacks, theta): E in 1..4 stacked
    matrices per stream, one token count for both texts and one for the
    image, theta 0, 1 or interior."""
    rng = Rng(draw(st.integers(0, 2**64 - 1)))
    e, d = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    n_txt, n_img = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    bg, ent, img = (rng.fill(e * n, d, -2.0, 2.0).reshape(e, n, d) for n in (n_txt, n_txt, n_img))
    theta = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0, exclude_min=True,
                                                            exclude_max=True))
    return random_weights(rng, d), bg, ent, img, theta


class TestBatchAxis:
    """A stacked call equals the 2-D calls on its slices bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_coupled_stack_matches_slices(self, case):
        w, bg, ent, img, theta = case
        norm = norm_for(bg.shape[-1], bg.shape[-1])
        out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, theta, norm)
        for j in range(len(img)):
            ref = coupled_qkv_attention(CoupledStreamState(bg[j], ent[j], img[j]), w, theta, norm)
            assert np.array_equal(out.background[j], ref.background)
            assert np.array_equal(out.entity[j], ref.entity)
            assert np.array_equal(out.image[j], ref.image)

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_branch_stack_matches_slices(self, case):
        w, text, _, img, _ = case
        norm = norm_for(text.shape[-1], 0)
        text_out, img_out = branch_attention(text, img, w, norm)
        for j in range(len(img)):
            ref_text, ref_img = branch_attention(text[j], img[j], w, norm)
            assert np.array_equal(text_out[j], ref_text)
            assert np.array_equal(img_out[j], ref_img)

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_merge_stack_matches_slices(self, case):
        _, _, _, img, theta = case
        other = img[::-1] * 0.5
        merged = merge_image_states(img, other, theta)
        for j in range(len(img)):
            assert np.array_equal(merged[j], merge_image_states(img[j], other[j], theta))

    def test_mismatched_batch_rejected(self):
        w = random_weights(Rng(0), 3)
        with pytest.raises(ShapeError, match="batch"):
            CoupledStreamState(np.zeros((2, 1, 3)), np.zeros((2, 1, 3)), np.zeros((3, 1, 3)))
        with pytest.raises(ShapeError, match="batch"):
            branch_attention(np.zeros((1, 3)), np.zeros((2, 4, 3)), w, NormConst(1.0))
        with pytest.raises(ShapeError):
            merge_image_states(np.zeros((2, 4, 3)), np.zeros((4, 3)), 0.5)
        with pytest.raises(ShapeError):
            merge_image_states(np.zeros((1, 2, 4, 3)), np.zeros((1, 2, 4, 3)), 0.5)


def coupled_state(rng: Rng, d: int, e: int, tokens) -> CoupledStreamState:
    """Background, entity and image stacks of E matrices with the given
    token counts."""
    return CoupledStreamState(*(rng.fill(e * n, d, -1.0, 1.0).reshape(e, n, d) for n in tokens))


class TestWorkspace:
    """Score blocks live in one reused buffer that no output aliases."""

    def test_warm_call_allocates_no_score_block(self):
        rng = Rng(5)
        d = 32
        w, norm = random_weights(rng, d), norm_for(d, d)
        state = coupled_state(rng, d, 1, (8, 8, 256))
        coupled_qkv_attention(state, w, 0.5, norm)  # the workspace now holds the block
        tracemalloc.start()
        try:
            coupled_qkv_attention(state, w, 0.5, norm)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one image-query score block: 256 queries x 272 keys x 8 bytes
        assert peak < 256 * 272 * 8

    def test_held_outputs_survive_grow_and_shrink(self, monkeypatch):
        monkeypatch.setattr(attention._workspace, "scores", np.empty(0))
        rng = Rng(6)
        d = 8
        w, norm = random_weights(rng, d), norm_for(d, d)
        first = coupled_qkv_attention(coupled_state(rng, d, 1, (4, 4, 16)), w, 0.5, norm)
        held = [first.background, first.entity, first.image]
        held += branch_attention(first.background, first.image, w, norm)
        want = [a.copy() for a in held]
        small = attention._workspace.scores
        # a larger block grows the workspace, a smaller one reuses it
        for e, n_img in ((3, 64), (1, 4)):
            out = coupled_qkv_attention(coupled_state(rng, d, e, (4, 4, n_img)), w, 0.5, norm)
            outs = [out.background, out.entity, out.image]
            outs += branch_attention(out.background, out.image, w, norm)
            assert not any(np.shares_memory(a, attention._workspace.scores) for a in held + outs)
        assert attention._workspace.scores.size == 3 * 72 * 72 > small.size
        assert all(np.array_equal(a, b) for a, b in zip(held, want, strict=True))


    def test_threads_at_once_keep_their_own_blocks(self):
        # more threads than cores score blocks of different shapes at the
        # same time, switching often; a shared workspace would let one
        # thread's block overwrite another's
        rng = Rng(7)
        d = 32
        w, norm = random_weights(rng, d), norm_for(d, d)
        states = [coupled_state(rng, d, e, (8, 8, n)) for e, n in ((1, 256), (3, 64), (2, 9), (1, 100))]
        want = [coupled_qkv_attention(state, w, 0.5, norm) for state in states]
        start = threading.Barrier(len(states))

        def repeat(state, ref) -> bool:
            start.wait(timeout=10)
            outs = [coupled_qkv_attention(state, w, 0.5, norm) for _ in range(30)]
            return all(np.array_equal(getattr(out, f), getattr(ref, f))
                       for out in outs for f in ("background", "entity", "image"))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(states)) as pool:
                done = [pool.submit(repeat, state, ref) for state, ref in zip(states, want)]
                assert [future.result(timeout=60) for future in done] == [True] * len(states)
        finally:
            sys.setswitchinterval(interval)


class TestScoreScaling:
    """Dividing the score block by its norm: a power-of-two norm multiplies
    by its inverse, which must give the bits of the division."""

    VALUES = np.concatenate([
        Rng(4).fill(1, 512, -60.0, 60.0)[0],
        Rng(5).fill(1, 64, -1e-300, 1e-300)[0],
        # subnormal inputs, and normal ones whose quotients are subnormal
        np.array([5e-324, -5e-324, 1e-310, -3e-320, 2.2250738585072014e-308, 1e-307,
                  -3.3e-308, 4.9e-324 * 3, 0.0, -0.0, np.inf, -np.inf, 1.7e308]),
    ])

    def check(self, norm):
        got = self.VALUES.copy()
        with np.errstate(over="ignore"):  # 1.7e308 over a norm below 1
            attention._divide(got, norm)
            assert got.tobytes() == (self.VALUES / norm.value).tobytes()

    def test_every_pipeline_norm(self):
        powers = set()
        for d in range(1, 3073):
            for norm in (norm_for(d, d), norm_for(d, 0)):
                self.check(norm)
                if np.frexp(norm.value)[0] == 0.5:
                    powers.add(norm.value)
        # d16 and d64 single blocks, d32 double blocks, among others
        assert {4.0, 8.0} <= powers

    @pytest.mark.parametrize("value", [2.0**-1024, 2.0**-1023, 2.0**-1022, 0.5, 1.0,
                                       2.0**1023, 3.0, 2.0**-1074])
    def test_extreme_norms(self, value):
        self.check(NormConst(value))


class TestImageQueriesOnly:
    """Without the text's query rows the core gives the image output of the
    full call bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_equals_full_call(self, case):
        # a zero feed-forward leaves the block's image its residual over
        # the attention output: x + tanh(x @ 0) @ 0 is x
        w, bg, ent, img, theta = case
        d = bg.shape[-1]
        blk = SingleBlockWeights(attn=w, ff=FeedForward(np.zeros((d, d)), np.zeros((d, d))))
        text = bg if theta == 0.0 else ent if theta == 1.0 else np.stack((bg, ent))
        norm = norm_for(d, 0)
        for t, i in ((text, img), (text[..., 0, :, :], img[0])):
            got_text, got = run_single_block(t, i, blk, theta, norm, keep_text=False)
            image = i + branch_attention(t, i, w, norm)[1] @ w.w_o
            if theta not in (0.0, 1.0):
                image = merge_image_states(image[1], image[0], theta)
            assert got_text is None and np.array_equal(got, image)


class TestSharedScoreBlock:
    """All query streams of a call share one score block and one softmax,
    and every output equals the one-block-per-stream core bit for bit."""

    def check(self, w, bg, ent, img, theta):
        d = bg.shape[-1]
        out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, theta, norm_for(d, d))
        want = per_stream_attention((bg, ent, img), w, (1.0 - theta, theta, 1.0), norm_for(d, d))
        assert all(np.array_equal(a, b) for a, b in
                   zip((out.background, out.entity, out.image), want, strict=True))
        got = branch_attention(ent, img, w, norm_for(d, 0))
        want = per_stream_attention((ent, img), w, (1.0, 1.0), norm_for(d, 0))
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        # the two texts as the branches of one call over the image
        got = branch_attention(np.stack((bg, ent)), img, w, norm_for(d, 0))
        for j, text in enumerate((bg, ent)):
            want = per_stream_attention((text, img), w, (1.0, 1.0), norm_for(d, 0))
            assert all(np.array_equal(a[j], b) for a, b in zip(got, want, strict=True))

    @settings(max_examples=80, deadline=None)
    @given(stacks())
    def test_matches_per_stream_blocks(self, case):
        w, bg, ent, img, theta = case
        self.check(w, bg, ent, img, theta)
        self.check(w, bg[0], ent[0], img[0], theta)
        # an entity text that is a multiple of the background text
        self.check(w, bg, -0.5 * bg, img, theta)
        self.check(w, bg[0], -0.5 * bg[0], img[0], theta)

    @pytest.mark.parametrize("theta", [0.0, 0.37, 1.0])
    def test_matches_per_stream_blocks_with_many_keys(self, theta):
        # 616 keys at d32: here one P V product over all query rows rounds
        # some text rows differently from the per-stream products
        rng = Rng(9)
        d = 32
        bg, ent, img = (rng.fill(n, d, -1.0, 1.0) for n in (8, 8, 600))
        self.check(random_weights(rng, d), bg, ent, img, theta)

    def test_boundaries_equal_joint_attention_at_d64(self):
        # a size at which one Q K^T product over all query rows broke the
        # reduction: its row count differs from joint_attention's
        rng = Rng(11)
        d = 64
        w, norm = random_weights(rng, d), norm_for(d, d)
        bg, ent, img = (rng.fill(n, d, -1.0, 1.0) for n in (2, 2, 256))
        for theta, text in ((0.0, bg), (1.0, ent)):
            out = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, theta, norm)
            ref = joint_attention(StreamState(text, img), w, norm)
            assert np.array_equal(out.background if theta == 0.0 else out.entity, ref.text)
            assert np.array_equal(out.image, ref.image)

    def test_one_softmax_per_call(self, monkeypatch):
        blocks = []

        def counted(m, out=None):
            blocks.append(m.shape)
            return softmax_rows(m, out=out)

        monkeypatch.setattr(attention, "softmax_rows", counted)
        rng = Rng(10)
        d = 4
        w = random_weights(rng, d)
        state = coupled_state(rng, d, 2, (3, 3, 5))
        for theta in (0.0, 0.5, 1.0):
            coupled_qkv_attention(state, w, theta, norm_for(d, d))
        branch_attention(state.entity, state.image, w, norm_for(d, 0))
        # every query row of the 2 stacked matrices, as flat rows, against the
        # live keys: 3 + 5, 3 + 3 + 5, 3 + 5
        assert blocks == [(22, 8), (22, 11), (22, 8), (16, 8)]
