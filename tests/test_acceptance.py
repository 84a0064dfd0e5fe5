"""Acceptance suite: nine headline properties of the coupled-generation
engine, each with a pinned tolerance and a printed pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the console.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.stats import spearmanr

from couplegen.attention import (
    AttentionWeights,
    CoupledStreamState,
    StreamState,
    branch_attention,
    coupled_qkv_attention,
    joint_attention,
    merge_image_states,
    norm_for,
)
from couplegen.isotonic import SearchConfig, coordinate_search, grid_search, pava_project
from couplegen.metric import Lambdas, background_similarity, combined_metric, jer
from couplegen.numerics import Rng
from couplegen.pipeline import PipelineConfig, generate_and_score, init_pipeline, sample, sample_single_prompt
from couplegen.prompt_io import ParseError, PromptBundle, parse_decomposition
from couplegen.schedule import ScheduleFamily, ThetaSchedule, eval_family, make_schedule

from oracles import (
    CountingObjective,
    brute_force_monotone_projection,
    oracle_branch_attention,
    oracle_coupled_attention,
    oracle_joint_attention,
)

BUNDLE = PromptBundle(
    "a cozy room bathed in warm sunshine",
    ("a cute pikachu sits", "a beautiful girl stands"),
)


@contextmanager
def criterion(number: int, title: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number} ({title}): FAIL (took {elapsed:.1f}s, budget {budget_s}s)")
        pytest.fail(f"criterion {number} exceeded its {budget_s}s runtime budget")
    print(f"criterion {number} ({title}): PASS")


def random_weights(rng: Rng, d: int) -> AttentionWeights:
    return AttentionWeights(
        w_q=rng.fill(d, d, -1, 1),
        w_k=rng.fill(d, d, -1, 1),
        w_v=rng.fill(d, d, -1, 1),
        w_o=rng.fill(d, d, -1, 1),
    )


class TestAcceptance:
    def test_1_boundary_reduction(self):
        with criterion(1, "boundary reduction is exact", budget_s=5.0):
            rng = Rng(101)
            for _ in range(50):
                d = 2 + rng.next_u64() % 4
                n_txt = 1 + rng.next_u64() % 4
                n_img = 1 + rng.next_u64() % 5
                w = random_weights(rng, d)
                norm = norm_for(d, d)
                bg = rng.fill(n_txt, d, -1, 1)
                ent = rng.fill(n_txt, d, -1, 1)
                img = rng.fill(n_img, d, -1, 1)
                state = CoupledStreamState(bg, ent, img)

                at1 = coupled_qkv_attention(state, w, 1.0, norm)
                ref_ent = joint_attention(StreamState(ent, img), w, norm)
                assert np.array_equal(at1.entity, ref_ent.text)
                assert np.array_equal(at1.image, ref_ent.image)

                at0 = coupled_qkv_attention(state, w, 0.0, norm)
                ref_bg = joint_attention(StreamState(bg, img), w, norm)
                assert np.array_equal(at0.background, ref_bg.text)
                assert np.array_equal(at0.image, ref_bg.image)

                # embedding-level merge boundaries
                img_ent = rng.fill(n_img, d, -1, 1)
                img_bg = rng.fill(n_img, d, -1, 1)
                assert np.array_equal(merge_image_states(img_ent, img_bg, 1.0), img_ent)
                assert np.array_equal(merge_image_states(img_ent, img_bg, 0.0), img_bg)

    def test_2_attention_oracles(self):
        with criterion(2, "attention matches scalar oracles to 1e-10", budget_s=10.0):
            rng = Rng(202)
            cases = 0
            while cases < 210:
                d = 2 + rng.next_u64() % 3  # d_model <= 4
                n_txt = 1 + rng.next_u64() % 3  # <= 3 tokens per stream
                n_img = 1 + rng.next_u64() % 3
                w = random_weights(rng, d)
                norm = norm_for(d, d)
                bg = rng.fill(n_txt, d, -1, 1)
                ent = rng.fill(n_txt, d, -1, 1)
                img = rng.fill(n_img, d, -1, 1)
                theta = rng.uniform(0.0, 1.0)

                got = joint_attention(StreamState(bg, img), w, norm)
                exp_t, exp_i = oracle_joint_attention(bg, img, w, norm.value)
                np.testing.assert_allclose(got.text, exp_t, atol=1e-10)
                np.testing.assert_allclose(got.image, exp_i, atol=1e-10)

                got3 = coupled_qkv_attention(CoupledStreamState(bg, ent, img), w, theta, norm)
                exp_b, exp_e, exp_im = oracle_coupled_attention(bg, ent, img, w, theta, norm.value)
                np.testing.assert_allclose(got3.background, exp_b, atol=1e-10)
                np.testing.assert_allclose(got3.entity, exp_e, atol=1e-10)
                np.testing.assert_allclose(got3.image, exp_im, atol=1e-10)

                gt, gi = branch_attention(bg, img, w, norm)
                bt, bi = oracle_branch_attention(bg, img, w, norm.value)
                np.testing.assert_allclose(gt, bt, atol=1e-10)
                np.testing.assert_allclose(gi, bi, atol=1e-10)
                cases += 3

    def test_3_pava_oracle(self):
        with criterion(3, "monotone projection matches brute force", budget_s=30.0):
            rng = Rng(303)
            for _ in range(100):
                n = 1 + rng.next_u64() % 4
                v = np.array([rng.uniform(0.0, 1.0) for _ in range(n)])
                got = pava_project(v, 0.0, 1.0)
                exact = brute_force_monotone_projection(v, 0.0, 1.0, resolution=1e-3)
                np.testing.assert_allclose(got, exact, atol=2e-3)
                assert np.array_equal(pava_project(got, 0.0, 1.0), got)

    def test_4_schedule_families(self):
        with criterion(4, "schedule families monotone, bounded, centered"):
            rng = Rng(404)
            for _ in range(100):
                c = rng.uniform(-5.0, 55.0)
                k = rng.uniform(0.01, 10.0)
                for kind in ("step01", "arctan", "sin"):
                    fam = ScheduleFamily(kind, center=c, scale=k)
                    sched = make_schedule(fam, 50)
                    assert np.all(sched.values >= 0.0) and np.all(sched.values <= 1.0)
                    assert np.all(np.diff(sched.values) >= 0.0)
                for kind in ("arctan", "sin"):
                    assert eval_family(ScheduleFamily(kind, center=c, scale=k), c) == pytest.approx(
                        0.5, abs=1e-12
                    )
                step = ScheduleFamily("step01", center=c)
                for t in range(1, 51):
                    assert eval_family(step, float(t)) == (1.0 if t >= c else 0.0)

    def test_5_metric_suite(self):
        with criterion(5, "background/combined metric checks"):
            # identical images score zero
            masks = [np.zeros((8, 8), dtype=bool) for _ in range(2)]
            masks[0][0, 0] = True
            masks[1][3, 3] = True
            same = [np.full((8, 8), 0.5) for _ in range(2)]
            assert background_similarity(same, jer(masks)) == 0.0

            # noise confined to the joint entity region never moves the score
            rng = Rng(55)
            imgs = [rng.fill(8, 8, 0.0, 1.0) for _ in range(2)]
            union = jer(masks)
            base = background_similarity(imgs, union)
            noisy = [img.copy() for img in imgs]
            noisy[0][0, 0] = 0.123
            noisy[1][3, 3] = 0.987
            noisy[0][3, 3] = 0.5  # also inside the union
            assert background_similarity(noisy, union) == base

            # hand case: n=2, R=0.5, 256 unit-magnitude background differences
            a = np.zeros((32, 32))
            b = np.zeros((32, 32))
            b[:16, 16:] = 1.0  # 256 pixels, all outside the mask below
            mask = np.zeros((32, 32), dtype=bool)
            mask[:, :16] = True  # left half -> R = 0.5
            assert background_similarity([a, b], mask) == pytest.approx(-0.5, abs=1e-12)

            # published-table arithmetic: lambda_bg*f_bg + lambda_ti*mean(f_ti)
            value = combined_metric(-2.080e-4, [22.61], Lambdas(300.0, 1.0 / 30.0))
            expected = 300.0 * (-2.080e-4) + (1.0 / 30.0) * 22.61
            assert value == pytest.approx(expected, abs=1e-9)
            assert value == pytest.approx(0.69127, abs=5e-6)

    def test_6_end_to_end_coupling(self):
        with criterion(6, "theta boundaries couple/decouple the full pipeline", budget_s=60.0):
            rng = Rng(606)
            zeros = ThetaSchedule(np.zeros(10))
            ones = ThetaSchedule(np.ones(10))
            for _ in range(20):
                cfg = PipelineConfig(
                    weight_seed=rng.next_u64() % 2**31,
                    noise_seed=rng.next_u64() % 2**31,
                )
                pipeline = init_pipeline(cfg)

                coupled = sample(pipeline, BUNDLE, zeros)
                assert np.array_equal(coupled[0], coupled[1])
                assert generate_and_score(pipeline, BUNDLE, zeros).f_bg == 0.0

                free = sample(pipeline, BUNDLE, ones)
                for img, prompt in zip(free, BUNDLE.entities):
                    assert np.array_equal(img, sample_single_prompt(pipeline, prompt))

    def test_7_tradeoff_trend(self):
        with criterion(7, "earlier decoupling weakens background similarity", budget_s=300.0):
            centers = [1.0, 3.0, 5.0, 7.0, 9.0]
            pipeline = init_pipeline(PipelineConfig())
            mean_f_bg = []
            for c in centers:
                sched = make_schedule(ScheduleFamily("step01", center=c), 10)
                scores = [
                    generate_and_score(pipeline, BUNDLE, sched, noise_seed=s).f_bg
                    for s in range(10)
                ]
                mean_f_bg.append(float(np.mean(scores)))
            earliness = [-c for c in centers]
            rho = spearmanr(earliness, mean_f_bg).statistic
            assert rho <= 0.0

    def test_8_optimizer_sanity(self):
        with criterion(8, "searches recover known optima"):
            target = pava_project(np.linspace(0.05, 0.95, 10), 0.0, 1.0)
            objective = CountingObjective(
                lambda s: -float(np.sum((s.values - target) ** 2))
            )
            config = SearchConfig(
                max_evals=5000, init=ThetaSchedule(np.full(10, 0.5)), step=0.25, seed=0
            )
            best, _, _ = coordinate_search(config, objective)
            assert objective.count <= 5000
            np.testing.assert_allclose(best.values, target, atol=0.01)

            # quadratic in the step01 center, maximized at center 6
            grid = [
                ScheduleFamily("step01", center=float(c)) for c in range(1, 11)
            ]
            fam, _, _ = grid_search(
                grid,
                10,
                lambda s: -float((np.sum(1.0 - s.values) - 5.0) ** 2),
            )
            assert fam.center == 6.0

    def test_9_decomposition_roundtrip(self):
        with criterion(9, "prompt decomposition parses strictly"):
            reply = (
                "Background: A cozy room bathed in warm sunshine with wooden "
                "flooring and a peaceful, homely atmosphere.\n"
                "Entity 1: A cute Pikachu sits.\n"
                "Entity 2: A beautiful girl stands.\n"
            )
            bundle = parse_decomposition(reply)
            assert bundle.background == (
                "A cozy room bathed in warm sunshine with wooden flooring and "
                "a peaceful, homely atmosphere."
            )
            assert bundle.entities == ("A cute Pikachu sits.", "A beautiful girl stands.")

            for bad in (
                "",
                "no structure at all",
                "Entity 1: entity without background\n",
                "Background: background without entities\n",
            ):
                with pytest.raises(ParseError):
                    parse_decomposition(bad)
