"""Miniature two-stage denoising pipeline for end-to-end coupling tests.

D double blocks (key-weighted dual-text attention) feed S single blocks
(branch attention over unified sequences with interpolated image merge)
inside an N-step Euler sampler with a linear sigma ramp from 1 to 0.  Weights
and noise come from seeded PRNGs, so identical seeds reproduce identical
images bit for bit.

The per-entity text streams are re-embedded at the start of every sampling
step; only the image token state carries across steps.  Pixel readout takes
channel 0 of each image token, and the final grid is squashed into [0, 1]
with a tanh map.

The single-prompt reference render is the theta == 0 trajectory of the same
step function, with the prompt as the background stream: boundary reduction
drops the entity stream's keys and values and keeps the background branch's
image, so the image tokens follow the plain single-text pipeline exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import (
    AttentionWeights,
    CoupledStreamState,
    NormConst,
    branch_attention,
    coupled_qkv_attention,
    joint_attention,  # noqa: F401 - not called; perfbench/tracer.py wraps it
    merge_image_states,
    norm_for,
)
from .metric import (
    HashAlignmentScorer,
    Lambdas,
    MetricReport,
    background_similarity,
    build_report,
    jer,
    validity_ratio,
)
from .numerics import Rng
from .pnm import quantize
from .prompt_io import PromptBundle, embed_prompt
from .schedule import ThetaSchedule

__all__ = [
    "PipelineConfig",
    "FeedForward",
    "DoubleBlockWeights",
    "SingleBlockWeights",
    "Pipeline",
    "LatentState",
    "init_pipeline",
    "run_double_block",
    "run_single_block",
    "sample",
    "sample_single_prompt",
    "auto_masks",
    "score_images",
    "generate_and_score",
]

WEIGHT_RANGE = 0.1
AUTO_MASK_THRESHOLD = 0.1


@dataclass(frozen=True)
class PipelineConfig:
    d_model: int = 16
    text_tokens: int = 8
    grid_side: int = 8  # image tokens = grid_side**2
    double_blocks: int = 2
    single_blocks: int = 2
    steps: int = 10
    weight_seed: int = 0
    noise_seed: int = 0

    def __post_init__(self):
        for name in ("d_model", "text_tokens", "grid_side", "double_blocks", "single_blocks", "steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def image_tokens(self) -> int:
        return self.grid_side**2


@dataclass(frozen=True)
class FeedForward:
    w1: np.ndarray
    w2: np.ndarray

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.w1) @ self.w2


@dataclass(frozen=True)
class DoubleBlockWeights:
    attn: AttentionWeights
    text_ff: FeedForward
    image_ff: FeedForward


@dataclass(frozen=True)
class SingleBlockWeights:
    attn: AttentionWeights
    ff: FeedForward


@dataclass(frozen=True)
class LatentState:
    background: np.ndarray
    entity: np.ndarray
    image: np.ndarray


@dataclass(frozen=True)
class Pipeline:
    config: PipelineConfig
    double_blocks: tuple[DoubleBlockWeights, ...]
    single_blocks: tuple[SingleBlockWeights, ...]
    norm_double: NormConst
    norm_single: NormConst


def _square(rng: Rng, d: int) -> np.ndarray:
    return rng.fill(d, d, -WEIGHT_RANGE, WEIGHT_RANGE)


def _attention_weights(rng: Rng, d: int) -> AttentionWeights:
    return AttentionWeights(
        w_q=_square(rng, d), w_k=_square(rng, d), w_v=_square(rng, d), w_o=_square(rng, d)
    )


def _feed_forward(rng: Rng, d: int) -> FeedForward:
    return FeedForward(w1=_square(rng, d), w2=_square(rng, d))


def init_pipeline(cfg: PipelineConfig) -> Pipeline:
    """Deterministic weights from the weight seed, drawn in a fixed order."""
    rng = Rng(cfg.weight_seed)
    d = cfg.d_model
    doubles = tuple(
        DoubleBlockWeights(
            attn=_attention_weights(rng, d),
            text_ff=_feed_forward(rng, d),
            image_ff=_feed_forward(rng, d),
        )
        for _ in range(cfg.double_blocks)
    )
    singles = tuple(
        SingleBlockWeights(attn=_attention_weights(rng, d), ff=_feed_forward(rng, d))
        for _ in range(cfg.single_blocks)
    )
    return Pipeline(
        config=cfg,
        double_blocks=doubles,
        single_blocks=singles,
        norm_double=norm_for(d, d),
        norm_single=norm_for(d, 0),
    )


def run_double_block(
    state: LatentState, w: DoubleBlockWeights, theta: float, norm: NormConst
) -> LatentState:
    """Coupled attention, per-stream output projection and feed-forward, residuals."""
    attn = coupled_qkv_attention(
        CoupledStreamState(state.background, state.entity, state.image),
        w.attn,
        theta,
        norm,
    )
    bg = state.background + attn.background @ w.attn.w_o
    ent = state.entity + attn.entity @ w.attn.w_o
    img = state.image + attn.image @ w.attn.w_o
    return LatentState(
        background=bg + w.text_ff(bg),
        entity=ent + w.text_ff(ent),
        image=img + w.image_ff(img),
    )


def _single_branch(text, image, w: SingleBlockWeights, norm: NormConst):
    text_a, image_a = branch_attention(text, image, w.attn, norm)
    text1 = text + text_a @ w.attn.w_o
    image1 = image + image_a @ w.attn.w_o
    return text1 + w.ff(text1), image1 + w.ff(image1)


def run_single_block(
    state: LatentState, w: SingleBlockWeights, theta: float, norm: NormConst
) -> LatentState:
    """Two branch passes (bg-img, ent-img); image parts merged by interpolation."""
    bg_out, img_bg = _single_branch(state.background, state.image, w, norm)
    ent_out, img_ent = _single_branch(state.entity, state.image, w, norm)
    merged = merge_image_states(img_ent, img_bg, theta)
    return LatentState(background=bg_out, entity=ent_out, image=merged)


def _run_step(pipeline: Pipeline, state: LatentState, theta: float) -> LatentState:
    for blk in pipeline.double_blocks:
        state = run_double_block(state, blk, theta, pipeline.norm_double)
    for blk in pipeline.single_blocks:
        state = run_single_block(state, blk, theta, pipeline.norm_single)
    return state


def _initial_noise(cfg: PipelineConfig, noise_seed: int) -> np.ndarray:
    return Rng(noise_seed).fill(cfg.image_tokens, cfg.d_model, -1.0, 1.0)


def _readout(cfg: PipelineConfig, image_tokens: np.ndarray) -> np.ndarray:
    pixels = image_tokens[:, 0].reshape(cfg.grid_side, cfg.grid_side)
    return 0.5 * (np.tanh(pixels) + 1.0)


def _sigma_deltas(n_steps: int) -> np.ndarray:
    sigma = np.linspace(1.0, 0.0, n_steps + 1)
    return np.diff(sigma)


def _embed(cfg: PipelineConfig, text: str) -> np.ndarray:
    return embed_prompt(text, cfg.d_model, cfg.text_tokens, seed=cfg.weight_seed)


def _trajectory(pipeline: Pipeline, bg_emb, ent_emb, x, thetas, steps_log=None) -> np.ndarray:
    """Euler-integrate image tokens x over the schedule and read out pixels.

    When steps_log is a list it receives the image token state after every
    step.
    """
    for theta, delta in zip(thetas, _sigma_deltas(len(thetas))):
        state = _run_step(pipeline, LatentState(bg_emb, ent_emb, x), float(theta))
        x = x + delta * state.image
        if steps_log is not None:
            steps_log.append(x.copy())
    return _readout(pipeline.config, x)


def sample(
    pipeline: Pipeline,
    bundle: PromptBundle,
    schedule: ThetaSchedule,
    noise_seed: int | None = None,
    shared_noise: bool = True,
    latent_log: list | None = None,
) -> list[np.ndarray]:
    """One [0, 1] grayscale grid per entity prompt.

    Noise is shared across entities by default so that background coupling is
    a controlled comparison; pass shared_noise=False to give entity j the
    noise stream seeded with noise_seed + j.  When latent_log is a list it
    receives, per entity, the image token state after every step.
    """
    cfg = pipeline.config
    if len(schedule) != cfg.steps:
        raise ValueError(f"schedule has {len(schedule)} steps, pipeline needs {cfg.steps}")
    if noise_seed is None:
        noise_seed = cfg.noise_seed
    bg_emb = _embed(cfg, bundle.background)
    images = []
    for j, entity in enumerate(bundle.entities):
        ent_emb = _embed(cfg, entity)
        x = _initial_noise(cfg, noise_seed if shared_noise else noise_seed + j)
        steps_log = [] if latent_log is not None else None
        images.append(_trajectory(pipeline, bg_emb, ent_emb, x, schedule.values, steps_log))
        if latent_log is not None:
            latent_log.append(steps_log)
    return images


def sample_single_prompt(pipeline: Pipeline, prompt: str, noise_seed: int | None = None) -> np.ndarray:
    """Reference run of the unmodified single-text pipeline (theta == 0)."""
    cfg = pipeline.config
    emb = _embed(cfg, prompt)
    x = _initial_noise(cfg, cfg.noise_seed if noise_seed is None else noise_seed)
    # at theta == 0 the entity stream never reaches the image tokens
    return _trajectory(pipeline, emb, emb, x, np.zeros(cfg.steps))


def auto_masks(images, background_image, threshold: float = AUTO_MASK_THRESHOLD):
    """Toy segmentation stand-in: threshold each image against a
    background-only render."""
    return [np.abs(img - background_image) > threshold for img in images]


def score_images(images, masks, entities, lambdas: Lambdas) -> MetricReport:
    """Metric report for quantized images, their entity masks and prompts."""
    union = jer(masks)
    ratio = validity_ratio(union)
    f_bg = background_similarity(images, union)
    scorer = HashAlignmentScorer({text: text for text in entities})
    f_ti = [scorer.score(text, img) for text, img in zip(entities, images)]
    return build_report(f_bg, f_ti, ratio, lambdas)


def generate_and_score(
    pipeline: Pipeline,
    bundle: PromptBundle,
    schedule: ThetaSchedule,
    masks=None,
    lambdas: Lambdas | None = None,
    noise_seed: int | None = None,
) -> MetricReport:
    """Sample, derive masks (given or thresholded), and assemble the report.

    Images are snapped to the 8-bit grid before any metric so that a
    generate-then-evaluate round trip through image files reproduces this
    report exactly.
    """
    if len(bundle.entities) < 2:
        raise ValueError("scoring needs at least 2 entity prompts")
    images = [quantize(img) for img in sample(pipeline, bundle, schedule, noise_seed)]
    if masks is None:
        background_image = quantize(
            sample_single_prompt(pipeline, bundle.background, noise_seed)
        )
        masks = auto_masks(images, background_image)
    return score_images(images, masks, bundle.entities, lambdas or Lambdas())
