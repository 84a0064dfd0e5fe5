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
At theta == 0 (theta == 1) a single block runs only the background (entity)
branch, since the image merge discards the other one.

That theta == 0 trajectory is also the trunk every entity shares until its
schedule's first nonzero theta.  The pipeline keeps the latest trunk, keyed
by (background text, noise seed), as the image latents after every step; the
reference render reads its last latent and an entity whose schedule starts
with z zeros resumes from latent z.  The trunk is kept whatever its size:
steps * grid_side**2 * d_model * 8 bytes (80 KB at the default config,
14.7 MB at d64, 32x32, 28 steps).

Beside the trunk, the pipeline memoises whole entity trajectories keyed by
(background text, noise seed, entity text, theta tuple).  An entity render
resumes from the deepest memoised prefix: the longest common theta prefix
with an entry that differs only in theta, or the trunk's z leading zeros,
whichever is deeper.  A coordinate-search proposal that first changes
theta_i thus recomputes only steps i..N.  Entries live in slots of one
trajectory each, allocated up to ENTITY_MEMO_BYTES (1 MiB) and otherwise
reused in least-recently-used order and overwritten in place, never freed.
The pool grows past one slot per entity of a call only for a render whose
key differs from an entry's in theta alone, so a pipeline that never
renders one entity twice holds one render's slots.  A config whose
trajectory is larger than the budget (1.31 MB at d32, 16x16, 20 steps)
stores nothing and keeps only the trunk.

The entities of one call share the weights, the background text and the
theta of every step, so the entities that resume at the same depth are
rendered together: their states are stacked on a leading batch axis and go
through the blocks and the attention core as one (E, tokens, d_model)
array, each entity's image equal to its one-entity render bit for bit.
Every step of entity j is still copied into that entity's own slot.  A
group is split into chunks of balanced size whose stacked image-query
score block, E * image_tokens * (image_tokens + 2 * text_tokens) * 8 bytes,
stays within CHUNK_SCORE_BYTES (2 MiB, one core's L2 cache on the Xeon
it was measured on).  That block is the largest the attention core writes
into its reused workspace, so the budget bounds the workspace of a chunk;
stacking past it made a d64, 32x32 render use more memory and run no
faster.  The default config holds up to 51 entities per chunk (40 KiB
each), d32, 16x16 up to 3 (557 KB each) and d64, 32x32 one (8.5 MB).  A
slot claimed for a chunk is filed only after the chunk renders, so a render
that raises corrupts no entry; its slots stay spare for the next call.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

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
ENTITY_MEMO_BYTES = 1 << 20
CHUNK_SCORE_BYTES = 2 << 20  # the attention workspace of one chunk; see the docstring


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


def _common_prefix(a: tuple, b: tuple) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class EntityMemo:
    """Entity trajectories, one per slot, in least-recently-used order.

    A key is (background text, noise seed, entity text, theta tuple) and a
    slot is a (steps, image_tokens, d_model) array of the image latents after
    every step.  Slots are allocated while they fit in ENTITY_MEMO_BYTES and
    the caller asks the pool to grow, and are otherwise overwritten in place,
    the least recently used first; none is ever freed.
    """

    def __init__(self):
        self.slots: OrderedDict = OrderedDict()  # key -> slot, least recent first
        self.spare: list[np.ndarray] = []  # claimed slots, not holding an entry
        self.allocated = 0

    def lookup(self, key: tuple) -> tuple[int, np.ndarray | None]:
        """(depth, slot) of the entry that differs from key at most in theta
        and shares the longest theta prefix with it, depth being that
        prefix's length; (0, None) when no entry differs only in theta."""
        depth, best = -1, None
        for other in self.slots:
            if other[:3] == key[:3]:
                n = _common_prefix(other[3], key[3])
                if n > depth:
                    depth, best = n, other
        if best is None:
            return 0, None
        self.slots.move_to_end(best)
        return depth, self.slots[best]

    def claim(self, shape: tuple[int, ...], grow: bool) -> np.ndarray | None:
        """A slot to render into, held by the caller until it is stored or
        given back as spare: a spare one; else, if grow is set and the
        budget allows, a new one; else the least recently used one, whose
        entry is dropped.  None when the pool has no slot to give."""
        if self.spare:
            return self.spare.pop()
        if grow and (self.allocated + 1) * 8 * math.prod(shape) <= ENTITY_MEMO_BYTES:
            self.allocated += 1
            return np.empty(shape)
        if self.slots:
            return self.slots.popitem(last=False)[1]
        return None

    def store(self, key: tuple, slot: np.ndarray) -> None:
        """File a claimed slot, now holding key's whole trajectory."""
        displaced = self.slots.pop(key, None)  # two entities of one call with one key
        if displaced is not None:
            self.spare.append(displaced)
        self.slots[key] = slot


@dataclass(frozen=True)
class Pipeline:
    config: PipelineConfig
    double_blocks: tuple[DoubleBlockWeights, ...]
    single_blocks: tuple[SingleBlockWeights, ...]
    norm_double: NormConst
    norm_single: NormConst
    # at most one entry: (background text, noise seed) -> read-only trunk latents
    trunk_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    entity_memo: EntityMemo = field(
        default_factory=EntityMemo, init=False, repr=False, compare=False
    )


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
    """Two branch passes (bg-img, ent-img); image parts merged by interpolation.

    At theta == 0 (theta == 1) the merge keeps only the background (entity)
    branch's image, so the other branch is not run and its text stream
    passes through unchanged.
    """
    bg_out, img_bg = state.background, state.image
    if theta != 1.0:
        bg_out, img_bg = _single_branch(state.background, state.image, w, norm)
    ent_out, img_ent = state.entity, state.image
    if theta != 0.0:
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


def _trajectory(pipeline: Pipeline, bg_emb, ent_emb, x, thetas, deltas, outs):
    """Euler-integrate the stacked image tokens x (E, image_tokens, d_model)
    over (theta, sigma delta) pairs and return the final stack.

    The state of stack row j after step i is copied to outs[j][i] unless
    outs[j] is None; outs[j] is a (steps, image_tokens, d_model) array or a
    list of per-step arrays.
    """
    for i, (theta, delta) in enumerate(zip(thetas, deltas)):
        state = _run_step(pipeline, LatentState(bg_emb, ent_emb, x), float(theta))
        x = x + delta * state.image
        for xj, out in zip(x, outs):
            if out is not None:
                np.copyto(out[i], xj)
    return x


def _latents_shape(cfg: PipelineConfig) -> tuple[int, int, int]:
    return (cfg.steps, cfg.image_tokens, cfg.d_model)


def _trunk(pipeline: Pipeline, background: str, noise_seed: int) -> list[np.ndarray]:
    """Read-only image latents after every step of the theta == 0 trajectory."""
    key = (background, noise_seed)
    if key not in pipeline.trunk_memo:
        cfg = pipeline.config
        emb = _embed(cfg, background)[None]
        latents = [np.empty((cfg.image_tokens, cfg.d_model)) for _ in range(cfg.steps)]
        # at theta == 0 the entity stream never reaches the image tokens
        _trajectory(pipeline, emb, emb, _initial_noise(cfg, noise_seed)[None],
                    np.zeros(cfg.steps), _sigma_deltas(cfg.steps), [latents])
        for x in latents:
            x.flags.writeable = False
        pipeline.trunk_memo.clear()
        pipeline.trunk_memo[key] = latents
    return pipeline.trunk_memo[key]


def _chunks(group: list, cfg: PipelineConfig) -> list[list]:
    """group split into runs of balanced sizes whose stacked image-query
    score block fits CHUNK_SCORE_BYTES, or into single entities when even
    one entity's block does not fit."""
    entity_bytes = 8 * cfg.image_tokens * (cfg.image_tokens + 2 * cfg.text_tokens)
    n = -(-len(group) // max(1, CHUNK_SCORE_BYTES // entity_bytes))
    return [group[i * len(group) // n:(i + 1) * len(group) // n] for i in range(n)]


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

    Each entity resumes from its deepest memoised prefix: an entity
    trajectory of the pipeline's memo, or, on the base noise stream, the
    theta == 0 trunk after the schedule's leading zeros.  The entities that
    resume at the same depth are rendered as stacks (see `_chunks`).
    """
    cfg = pipeline.config
    if len(schedule) != cfg.steps:
        raise ValueError(f"schedule has {len(schedule)} steps, pipeline needs {cfg.steps}")
    if noise_seed is None:
        noise_seed = cfg.noise_seed
    thetas = schedule.values
    theta_key = tuple(thetas.tolist())
    deltas = _sigma_deltas(cfg.steps)
    zeros = _common_prefix(theta_key, (0.0,) * cfg.steps)
    bg_emb = _embed(cfg, bundle.background)
    memo = pipeline.entity_memo
    n_entities = len(bundle.entities)
    images: list = [None] * n_entities
    outs: list = [None] * n_entities  # per entity: its latents after every step
    starts, claimed, groups = {}, {}, {}  # claimed: j -> (key, slot) until filed
    for j, entity in enumerate(bundle.entities):
        seed = noise_seed if shared_noise else noise_seed + j
        key = (bundle.background, seed, entity, theta_key)
        depth, prefix = memo.lookup(key)
        # past one slot per entity, grow only for a render related to an entry
        grow = prefix is not None or memo.allocated < n_entities
        if seed == noise_seed and zeros > depth:
            depth, prefix = zeros, _trunk(pipeline, bundle.background, noise_seed)
        if depth == cfg.steps:
            # read now: a later entity's claim may overwrite this slot
            images[j] = _readout(cfg, prefix[-1])
            if latent_log is not None:
                outs[j] = [latent.copy() for latent in prefix]
            continue
        out = slot = memo.claim(_latents_shape(cfg), grow)
        if slot is not None:
            claimed[j] = key, slot
        elif latent_log is not None:
            out = np.empty(_latents_shape(cfg))
        if out is not None:
            for i in range(depth):
                out[i] = prefix[i]
        # a prefix slot is copied to this entity's own slot before a later
        # claim can take it; without a slot the prefix is the read-only trunk
        outs[j] = out
        starts[j] = _initial_noise(cfg, seed) if depth == 0 else (
            prefix if out is None else out)[depth - 1]
        groups.setdefault(depth, []).append(j)
    try:
        for depth, group in groups.items():
            for chunk in _chunks(group, cfg):
                x = _trajectory(
                    pipeline,
                    np.repeat(bg_emb[None], len(chunk), axis=0),
                    np.stack([_embed(cfg, bundle.entities[j]) for j in chunk]),
                    np.stack([starts[j] for j in chunk]),
                    thetas[depth:],
                    deltas[depth:],
                    [None if outs[j] is None else outs[j][depth:] for j in chunk],
                )
                for j, xj in zip(chunk, x):
                    images[j] = _readout(cfg, xj)
                    if j in claimed:
                        memo.store(*claimed.pop(j))
    finally:
        # slots of renders that raised hold no entry
        memo.spare.extend(slot for _, slot in claimed.values())
    if latent_log is not None:
        latent_log.extend([latent.copy() for latent in out] for out in outs)
    return images


def sample_single_prompt(pipeline: Pipeline, prompt: str, noise_seed: int | None = None) -> np.ndarray:
    """Reference run of the unmodified single-text pipeline (theta == 0)."""
    cfg = pipeline.config
    seed = cfg.noise_seed if noise_seed is None else noise_seed
    return _readout(cfg, _trunk(pipeline, prompt, seed)[-1])


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
