"""Metric tests: mask union, validity ratio, masked background distance,
stub alignment scoring, and the weighted combination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplegen.metric import (
    DegenerateMaskError,
    HashAlignmentScorer,
    Lambdas,
    MetricReport,
    WeightOverflowError,
    background_similarity,
    combined_metric,
    jer,
    validity_ratio,
)
from couplegen.numerics import ShapeError

from oracles import oracle_text_embedding, pixelwise_union, scalar_background_score


def half_mask(h=32, w=32, left=True):
    m = np.zeros((h, w), dtype=bool)
    if left:
        m[:, : w // 2] = True
    else:
        m[:, w // 2 :] = True
    return m


class TestJer:
    def test_disjoint_halves_union_is_full(self):
        union = jer([half_mask(left=True), half_mask(left=False)])
        assert union.all()

    def test_idempotent_on_identical_masks(self):
        m = half_mask()
        assert np.array_equal(jer([m, m, m]), m)

    def test_three_masks_against_pixel_loop(self):
        rng = np.random.default_rng(2)
        masks = [rng.uniform(size=(6, 7)) > 0.6 for _ in range(3)]
        assert np.array_equal(jer(masks), pixelwise_union(masks))

    def test_errors(self):
        with pytest.raises(ValueError, match="2 masks"):
            jer([half_mask()])
        with pytest.raises(ShapeError):
            jer([half_mask(8, 8), half_mask(8, 9)])

    def test_union_never_increases_validity(self):
        rng = np.random.default_rng(3)
        masks = [rng.uniform(size=(10, 10)) > 0.5 for _ in range(4)]
        r_union = validity_ratio(jer(masks))
        assert r_union <= min(validity_ratio(m) for m in masks)


class TestValidityRatio:
    def test_half_coverage(self):
        m = np.zeros((32, 32), dtype=bool)
        m.reshape(-1)[:512] = True
        assert validity_ratio(m) == 0.5

    def test_empty_and_full(self):
        assert validity_ratio(np.zeros((4, 4), dtype=bool)) == 1.0
        assert validity_ratio(np.ones((4, 4), dtype=bool)) == 0.0


class TestBackgroundSimilarity:
    def test_identical_images_score_zero(self):
        img = np.linspace(0, 1, 64).reshape(8, 8)
        assert background_similarity([img, img, img], half_mask(8, 8)) == 0.0

    def test_hand_computed_case(self):
        # 32x32, JER covers 512 pixels (R = 0.5); the two images differ by
        # exactly 1.0 on 256 background pixels: f_bg = -(1/0.5) * 256/1024.
        mask = half_mask(32, 32, left=True)  # 512 pixels inside
        a = np.zeros((32, 32))
        b = np.zeros((32, 32))
        b[:16, 16:] = 1.0  # outside the mask: 16 rows x 16 cols = 256 px
        got = background_similarity([a, b], mask)
        assert got == pytest.approx(-0.5, abs=1e-12)
        scalar = scalar_background_score([a, b], mask)
        assert got == pytest.approx(scalar, abs=1e-12)

    def test_full_mask_raises(self):
        full = np.ones((4, 4), dtype=bool)
        imgs = [np.zeros((4, 4)), np.ones((4, 4))]
        with pytest.raises(DegenerateMaskError):
            background_similarity(imgs, full)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        imgs = [rng.uniform(size=(8, 8)) for _ in range(3)]
        mask = rng.uniform(size=(8, 8)) > 0.7
        base = background_similarity(imgs, mask)
        shuffled = background_similarity([imgs[2], imgs[0], imgs[1]], mask)
        assert shuffled == pytest.approx(base, abs=1e-15)

    def test_noise_inside_jer_is_invisible(self):
        rng = np.random.default_rng(6)
        imgs = [rng.uniform(size=(8, 8)) for _ in range(2)]
        mask = np.zeros((8, 8), dtype=bool)
        mask[:4, :] = True
        base = background_similarity(imgs, mask)
        noisy = [im.copy() for im in imgs]
        noisy[0][mask] = rng.uniform(size=int(mask.sum()))
        assert background_similarity(noisy, mask) == base

    def test_zero_iff_backgrounds_agree(self):
        img = np.full((4, 4), 0.5)
        other = img.copy()
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = True
        other[0, 0] = 0.9  # inside JER only
        assert background_similarity([img, other], mask) == 0.0
        other[3, 3] = 0.6  # now a background pixel differs
        assert background_similarity([img, other], mask) < 0.0

    def test_always_nonpositive(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            imgs = [rng.uniform(size=(6, 6)) for _ in range(3)]
            mask = rng.uniform(size=(6, 6)) > 0.8
            assert background_similarity(imgs, mask) <= 0.0

    def test_random_against_scalar_oracle(self):
        rng = np.random.default_rng(8)
        imgs = [rng.uniform(size=(5, 4)) for _ in range(3)]
        mask = rng.uniform(size=(5, 4)) > 0.6
        got = background_similarity(imgs, mask)
        assert got == pytest.approx(scalar_background_score(imgs, mask), abs=1e-12)


class TestAlignmentStub:
    PROMPTS = {"a": "A cute Pikachu sits.", "b": "A beautiful girl stands."}

    def fixture_images(self):
        img1 = (np.arange(16 * 16).reshape(16, 16) % 7) / 6.0
        img2 = np.ones((16, 16)) * 0.25
        return img1, img2

    def test_deterministic(self):
        img1, _ = self.fixture_images()
        s1 = HashAlignmentScorer()
        s2 = HashAlignmentScorer()
        assert s1.score(self.PROMPTS["a"], img1) == s2.score(self.PROMPTS["a"], img1)

    def test_own_embedding_scores_100(self):
        img1, _ = self.fixture_images()
        scorer = HashAlignmentScorer()
        own = scorer.image_embedding(img1)
        scorer.text_embedding = lambda text: own
        assert scorer.score("self", img1) == 100.0

    def test_golden_fixture_scores(self):
        # frozen from the first verified run of the stub
        img1, img2 = self.fixture_images()
        scorer = HashAlignmentScorer()
        a, b = self.PROMPTS.values()
        assert scorer.score(a, img1) == pytest.approx(41.96840758199115, abs=1e-12)
        assert scorer.score(b, img2) == pytest.approx(61.683582993766485, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.text() | st.lists(st.sampled_from(["a", "room", "café", "猫"]), max_size=12).map(" ".join),
    )
    def test_text_embedding_matches_scalar_oracle(self, text):
        got = HashAlignmentScorer().text_embedding(text)
        assert np.array_equal(got, oracle_text_embedding(text, 0, 32))

    def test_scores_bounded(self):
        rng = np.random.default_rng(9)
        scorer = HashAlignmentScorer()
        for _ in range(10):
            img = rng.uniform(size=(8, 8))
            v = scorer.score(self.PROMPTS["a"], img)
            assert 0.0 <= v <= 100.0


class TestCombinedMetric:
    def test_paper_lambda_arithmetic(self):
        lambdas = Lambdas(300.0, 1.0 / 30.0)
        # headline background/alignment inputs; expected value recomputed
        # with independent plain arithmetic
        expected = 300.0 * (-2.080e-4) + (1.0 / 30.0) * 22.61
        got = combined_metric(-2.080e-4, [22.61], lambdas)
        assert got == pytest.approx(expected, abs=1e-9)
        assert got == pytest.approx(0.69127, abs=1e-5)

    def test_zero_inputs(self):
        assert combined_metric(0.0, [0.0, 0.0], Lambdas()) == 0.0

    def test_zero_lambda_bg_reduces_to_alignment_mean(self):
        lambdas = Lambdas(0.0, 0.9)
        assert combined_metric(-5.0, [10.0, 20.0], lambdas) == pytest.approx(
            0.9 * 15.0, abs=1e-12
        )

    def test_empty_f_ti(self):
        with pytest.raises(ValueError, match="non-empty"):
            combined_metric(0.0, [], Lambdas())

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-10, 0),
        st.floats(-10, 0),
        st.lists(st.floats(0, 100), min_size=1, max_size=4),
        st.integers(0, 3),
        st.floats(0, 100),
    )
    def test_linearity(self, f1, f2, f_ti, idx, delta):
        lambdas = Lambdas(17.0, 3.0)
        a = combined_metric(f1, f_ti, lambdas)
        b = combined_metric(f2, f_ti, lambdas)
        mid = combined_metric(0.5 * (f1 + f2), f_ti, lambdas)
        assert mid == pytest.approx(0.5 * (a + b), rel=1e-9, abs=1e-9)
        idx = idx % len(f_ti)
        bumped = list(f_ti)
        bumped[idx] += delta
        diff = combined_metric(f1, bumped, lambdas) - a
        assert diff == pytest.approx(lambdas.lambda_ti * delta / len(f_ti), rel=1e-9, abs=1e-9)


class TestReport:
    def test_fc_consistency_and_json_keys(self):
        report = MetricReport(-0.25, [10.0, 20.0], 0.75, Lambdas())
        assert report.f_c == combined_metric(-0.25, [10.0, 20.0], Lambdas())
        d = report.to_dict()
        assert set(d) == {"f_bg", "f_ti", "validity_ratio", "f_c", "lambda_bg", "lambda_ti"}
        assert d["f_ti"] == [10.0, 20.0]

    def test_negative_lambdas_rejected(self):
        with pytest.raises(ValueError):
            Lambdas(-1.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_lambdas_rejected(self, bad):
        with pytest.raises(ValueError, match="lambda_bg"):
            Lambdas(bad, 1.0)
        with pytest.raises(ValueError, match="lambda_ti"):
            Lambdas(1.0, bad)

    @pytest.mark.parametrize(
        "lambdas, f_bg, name",
        [(Lambdas(300.0, 1e308), -0.06, "lambda_ti"), (Lambdas(1e308, 1.0), -1e10, "lambda_bg")],
    )
    def test_overflowing_weight_rejected(self, lambdas, f_bg, name):
        # both weights are finite, but a term of f_c overflows to +-inf,
        # which the JSON report cannot hold
        with pytest.raises(WeightOverflowError, match=name) as info:
            MetricReport(f_bg, [41.0, 51.0], 1.0, lambdas)
        assert info.value.weight == name
