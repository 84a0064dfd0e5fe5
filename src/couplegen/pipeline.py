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

The background and entity text of a step, both embedded at text_tokens,
travel as one (2, E, text_tokens, d_model) stack, and the blocks map
(text, image) arrays to (text, image) arrays.  Which text reaches the image
tokens is decided once per step: at theta == 0 (theta == 1) only the
background (entity) member does, so the step hands every block that member
alone; at 0 < theta < 1 every block gets the stack.  There a double block
projects, output-mixes and feeds forward the stack by one product per
weight, and a single block runs both branches as one branch_attention call
over the stack and the image.  Given one member, a double block runs
joint_attention on it and the image, and a single block runs only that
branch, the one the image merge keeps.  The single-prompt reference render
is the theta == 0 trajectory of the same step function, with the prompt as
the background stream, so the image tokens follow the plain single-text
pipeline by construction.  A step keeps only its image, so its last
single block scores the image's query rows alone (against every key, the
text's included) and runs no text residual.

That theta == 0 trajectory is also the trunk every entity shares until its
schedule's first nonzero theta.  Trajectories are memoised in one
TrajectoryMemo per pipeline, as lists of read-only per-step image latents
keyed by (background text, noise seed, entity text, theta tuple).  The
trunk is its one pinned entry, with entity text None and theta == 0
throughout: it is kept whatever its size (steps * grid_side**2 * d_model *
8 bytes, 80 KB at the default config, 14.7 MB at d64, 32x32, 28 steps)
until a trunk of another (background, seed) replaces it, and the
reference render reads its last step.  Entity trajectories sit in one
least-recently-used map of at most ENTITY_MEMO_BYTES // trajectory bytes
entries (12 at the default config); a config whose trajectory is larger
than the 1 MiB budget (1.31 MB at d32, 16x16, 20 steps) stores none and
keeps no latents unless the caller logs them.

An entity render looks its key up once and resumes from the deepest
prefix: the longest common theta prefix with a trajectory of the same
background, seed and entity text, or, on the trunk's background and noise
stream, the trunk's leading zeros.  A coordinate-search proposal that
first changes theta_i thus recomputes only steps i..N.  The lookup
returns the prefix as a new list of the stored arrays, its length being
the resume depth, and the render appends a read-only copy of each step to
it, so no stored array is ever written and an eviction cannot take a
prefix from a render under way.  Every entity of a call is looked up
before any is stored.  A lookup leaves the LRU order as it is: the
matched entries are refreshed, in lookup order, and the new ones stored
only after every chunk of the call has rendered, so a render that raises
leaves the memo as it was.

The entities of one call share the weights, the background text and the
theta of every step, so the entities that resume at the same depth are
rendered together: their states are stacked on a leading batch axis and go
through the blocks and the attention core as one (E, tokens, d_model)
array, each entity's image equal to its one-entity render bit for bit.  A
group is split into chunks of balanced size whose largest score block
stays within CHUNK_SCORE_BYTES (2 MiB, one core's L2 cache on the Xeon it
was measured on); stacking past it made a d64, 32x32 render use more
memory and run no faster.  Per entity, the largest block is
8 * max((N + 2T)**2, 2 * (N + T)**2) bytes for N image and T text tokens:
a coupled call scores every query row against every key, and a single
block at 0 < theta < 1 scores both branches of its text stack.  The
default config holds up to 25 entities per chunk (81 KiB each), and d32,
16x16 (1.12 MB) and d64, 32x32 (17.0 MB) one.

Once an entity leaves the trunk its trajectory depends only on its own
text, so the chunks of a call are independent work.  The calling thread
builds every chunk's inputs (text stack, noise or resume latents), then
list-schedules the chunks' steps on min(workers, chunks) loops, workers
being the CPUs the process may run on: the calling thread runs one loop
itself and a module-level pool of workers - 1 threads the others, so one
chunk, or one CPU, starts no thread.  Each loop takes the idle chunk with
the most entity-steps (steps times stack size) left, advances it one step
and puts it back.  So no loop idles while a chunk has steps left, and no
chunk is advanced by two threads at once.  3 one-entity chunks on 2 loops
(a d32, 16x16 sweep row) take about 1.8 chunk-times this way, where one
loop takes about 3.0: two threads give about 1.6x the throughput of one
there, since they contend for the GIL.  numpy releases the GIL inside the
products and elementwise passes, which make up most of a render from d32
up.  Each chunk makes the same numpy calls on the same operands in the same
order whichever thread runs each step, so the bits do not depend on the
pool.  When every chunk has finished, the calling thread reads out the
images and stores the entries in chunk order, so the memo ends as a serial
render leaves it.  Once a step raises, no loop starts another: the running
steps finish, the first error in chunk order propagates and nothing is
stored.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np

from .attention import (
    AttentionWeights,
    CoupledStreamState,
    NormConst,
    StreamState,
    _attention,
    _computed,
    branch_attention,
    coupled_qkv_attention,
    joint_attention,
    merge_image_states,
    norm_for,
)
from .metric import (
    HashAlignmentScorer,
    Lambdas,
    MetricReport,
    background_similarity,
    jer,
    validity_ratio,
)
from .numerics import FieldError, Rng
from .pnm import quantize
from .prompt_io import PromptBundle, embed_prompt
from .schedule import MAX_STEPS, ThetaSchedule

__all__ = [
    "PipelineConfig",
    "FeedForward",
    "DoubleBlockWeights",
    "SingleBlockWeights",
    "Pipeline",
    "init_pipeline",
    "run_double_block",
    "run_single_block",
    "sample",
    "sample_single_prompt",
    "auto_masks",
    "render",
    "score_images",
    "generate_and_score",
]

WEIGHT_RANGE = 0.1
AUTO_MASK_THRESHOLD = 0.1
ENTITY_MEMO_BYTES = 1 << 20
CHUNK_SCORE_BYTES = 2 << 20  # the attention workspace of one chunk; see the docstring
# The largest value of each PipelineConfig size: those of FLUX.1, the
# double/single-block transformer this pipeline models (3072 wide, 512 T5
# text tokens, a 64x64 token grid for a 1024x1024 image, 19 double and 38
# single blocks), and MAX_STEPS.
MAX_SIZES = {"d_model": 3072, "text_tokens": 512, "grid_side": 64, "double_blocks": 19,
             "single_blocks": 38, "steps": MAX_STEPS}


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
        for name, most in MAX_SIZES.items():
            value = getattr(self, name)
            if value < 1:
                raise FieldError(name, f"{name} must be >= 1, got {value}")
            if value > most:
                raise FieldError(name, f"{name} must be <= {most}, got {value}")

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


def _common_prefix(a: tuple, b: tuple) -> int:
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


class TrajectoryMemo:
    """Image-latent trajectories: per key, a list of read-only per-step
    (image_tokens, d_model) arrays, the state after every step.

    A key is (background text, noise seed, entity text, theta tuple).  The
    theta == 0 trunk is the one pinned entry, with entity text None; the
    entity trajectories sit in `entries`, least recently used first.
    Entries share the arrays of the prefixes they were resumed from.
    """

    def __init__(self):
        self.trunk: dict = {}  # at most one entry
        self.entries: OrderedDict = OrderedDict()

    def lookup(self, key: tuple) -> tuple[list[np.ndarray], tuple | None]:
        """(prefix, match): the leading latents, as a new list, that key's
        theta tuple shares with the trajectory of key's background and seed
        and key's entity text or None that shares the most, and match that
        entry's key (None for the trunk); ([], None) when none shares a
        step.  The prefix's length is the depth to resume from.  The order
        of the entries is left as it is (see `refresh`)."""
        prefix, match = [], None
        for other, latents in [*self.entries.items(), *self.trunk.items()]:
            if other[:2] == key[:2] and other[2] in (key[2], None):
                n = _common_prefix(other[3], key[3])
                if n > len(prefix):
                    # the trunk's entity text is None, and refresh skips it
                    prefix, match = latents[:n], other if other[2] is not None else None
        return prefix, match

    def refresh(self, matches) -> None:
        """Move the entries of the given lookup matches, in order, to the
        most recent end; a None match is skipped."""
        for key in matches:
            if key is not None:
                self.entries.move_to_end(key)

    def store(self, key: tuple, latents: list[np.ndarray], limit: int) -> None:
        """File key's whole trajectory, keeping the limit most recent entries."""
        self.entries[key] = latents
        self.entries.move_to_end(key)
        while len(self.entries) > limit:
            self.entries.popitem(last=False)


@dataclass(frozen=True)
class Pipeline:
    config: PipelineConfig
    double_blocks: tuple[DoubleBlockWeights, ...]
    single_blocks: tuple[SingleBlockWeights, ...]
    norm_double: NormConst
    norm_single: NormConst
    memo: TrajectoryMemo = field(
        default_factory=TrajectoryMemo, init=False, repr=False, compare=False
    )


def init_pipeline(cfg: PipelineConfig) -> Pipeline:
    """Deterministic weights from the weight seed: each (d_model, d_model)
    weight is its own Rng.fill from one stream, drawn in the order the
    blocks are built, so each owns its data and no draw is larger than one
    weight."""
    d = cfg.d_model
    square = partial(Rng(cfg.weight_seed).fill, d, d, -WEIGHT_RANGE, WEIGHT_RANGE)
    doubles = tuple(
        DoubleBlockWeights(
            attn=AttentionWeights(w_q=square(), w_k=square(), w_v=square(), w_o=square()),
            text_ff=FeedForward(w1=square(), w2=square()),
            image_ff=FeedForward(w1=square(), w2=square()),
        )
        for _ in range(cfg.double_blocks)
    )
    singles = tuple(
        SingleBlockWeights(
            attn=AttentionWeights(w_q=square(), w_k=square(), w_v=square(), w_o=square()),
            ff=FeedForward(w1=square(), w2=square()),
        )
        for _ in range(cfg.single_blocks)
    )
    return Pipeline(
        config=cfg,
        double_blocks=doubles,
        single_blocks=singles,
        norm_double=norm_for(d, d),
        norm_single=norm_for(d, 0),
    )


def _residual(x, attn, w_o, ff):
    """x plus its output-mixed attention, then plus the feed-forward of that."""
    x = x + attn @ w_o
    return x + ff(x)


def run_double_block(text, image, w: DoubleBlockWeights, theta: float, norm: NormConst):
    """Coupled attention, output projection and feed-forward, residuals;
    returns (text, image).

    At 0 < theta < 1 text is the (2, ...) stack of background and entity
    text, which goes through every product as one stack.  At theta in
    {0, 1} text is the live stream alone (see `_run_step`), so the block
    runs joint_attention on it and the image.
    """
    if theta in (0.0, 1.0):
        attn = joint_attention(_computed(StreamState, text, image), w.attn, norm)
    else:
        state = _computed(CoupledStreamState, text, image)
        attn = coupled_qkv_attention(state, w.attn, theta, norm)
    return (_residual(text, attn.text, w.attn.w_o, w.text_ff),
            _residual(image, attn.image, w.attn.w_o, w.image_ff))


def run_single_block(text, image, w: SingleBlockWeights, theta: float, norm: NormConst,
                     keep_text: bool = True):
    """Two branch passes (bg-img, ent-img); image parts merged by
    interpolation; returns (text, image).

    At 0 < theta < 1 both branches of the text stack run as one
    branch_attention call.  At theta in {0, 1} the merge would keep only the
    live branch's image, and text is that stream alone, so only it runs.
    Without keep_text the block calls the attention core itself, on arrays
    the step computed, and the returned text is None: the text's query rows
    are not scored and its residual does not run, and the image is
    unchanged.
    """
    if keep_text:
        text_a, image_a = branch_attention(text, image, w.attn, norm)
        text = _residual(text, text_a, w.attn.w_o, w.ff)
    else:
        text, image_a = None, _attention(text, image, w.attn, norm, text_queries=False)[1]
    image = _residual(image, image_a, w.attn.w_o, w.ff)
    if theta not in (0.0, 1.0):
        img_bg, img_ent = image
        image = merge_image_states(img_ent, img_bg, theta)
    return text, image


def _run_step(pipeline: Pipeline, text, image, theta: float) -> np.ndarray:
    """The image after every block of one step, from the (2, ...) stack of
    background and entity text; at theta in {0, 1} only its member
    text[theta] reaches the image tokens, so the blocks get that one alone.
    The step's text is dropped, so the last single block computes no text
    output."""
    if theta in (0.0, 1.0):
        text = text[int(theta)]
    for blk in pipeline.double_blocks:
        text, image = run_double_block(text, image, blk, theta, pipeline.norm_double)
    singles = pipeline.single_blocks
    for i, blk in enumerate(singles, 1):
        text, image = run_single_block(text, image, blk, theta, pipeline.norm_single,
                                       keep_text=i < len(singles))
    return image


def _initial_noise(cfg: PipelineConfig, noise_seed: int) -> np.ndarray:
    return Rng(noise_seed).fill(cfg.image_tokens, cfg.d_model, -1.0, 1.0)


def _readout(cfg: PipelineConfig, image_tokens: np.ndarray) -> np.ndarray:
    pixels = image_tokens[:, 0].reshape(cfg.grid_side, cfg.grid_side)
    return 0.5 * (np.tanh(pixels) + 1.0)


def _embed(cfg: PipelineConfig, text: str) -> np.ndarray:
    return embed_prompt(text, cfg.d_model, cfg.text_tokens, seed=cfg.weight_seed)


def _trajectory(pipeline: Pipeline, text, x, thetas, outs):
    """Euler-integrate the stacked image tokens x (E, image_tokens, d_model)
    with the (2, E, text_tokens, d_model) stack of background and entity
    text over the last len(thetas) steps of the sigma ramp, yielding the
    stack after each step.

    Unless outs is None, a read-only copy of stack row j after every step
    is appended to the list outs[j].
    """
    n_steps = pipeline.config.steps
    deltas = np.diff(np.linspace(1.0, 0.0, n_steps + 1))[n_steps - len(thetas):]
    for theta, delta in zip(thetas, deltas):
        # bound to a local, not inlined: freeing it one step sooner moved the
        # benchmark's in-process calibration (see ROADMAP, Set aside)
        image = _run_step(pipeline, text, x, float(theta))
        x = x + delta * image
        for xj, out in zip(x, outs or ()):
            xj = xj.copy()
            xj.flags.writeable = False
            out.append(xj)
        yield x


def _trunk(pipeline: Pipeline, background: str, noise_seed: int) -> list[np.ndarray]:
    """The pinned theta == 0 trajectory of (background, noise_seed)."""
    cfg = pipeline.config
    key = (background, noise_seed, None, (0.0,) * cfg.steps)
    memo = pipeline.memo
    if key not in memo.trunk:
        emb = _embed(cfg, background)[None]
        latents: list = []
        # at theta == 0 the entity stream never reaches the image tokens
        _render(pipeline, [(np.stack((emb, emb)), _initial_noise(cfg, noise_seed)[None],
                            np.zeros(cfg.steps), [latents])])
        memo.trunk = {key: latents}
    return memo.trunk[key]


def _chunks(group: list, cfg: PipelineConfig) -> list[list]:
    """group split into runs of balanced sizes whose largest stacked score
    block fits CHUNK_SCORE_BYTES, or into single entities when even one
    entity's block does not fit."""
    n_img, n_txt = cfg.image_tokens, cfg.text_tokens
    # a coupled call's block, or an interior single block's two branches
    entity_bytes = 8 * max((n_img + 2 * n_txt) ** 2, 2 * (n_img + n_txt) ** 2)
    n = -(-len(group) // max(1, CHUNK_SCORE_BYTES // entity_bytes))
    return [group[i * len(group) // n:(i + 1) * len(group) // n] for i in range(n)]


@cache
def _workers() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# concurrent.futures and the logging it imports (about 6 ms of start-up on
# a 2-core Xeon VM) are imported by the first call that submits a loop
@cache
def _executor():
    """The pool that runs the list-scheduling loops of `_render` beside the
    calling thread's own, one thread fewer than the CPUs this process may
    run on; created by the first call that submits a loop."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_workers() - 1, thread_name_prefix="couplegen-chunk")


if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def _render(pipeline: Pipeline, work: list) -> list:
    """The final stacks of _trajectory(pipeline, *inputs) for each inputs in
    work, each with at least one theta, in order, list-scheduled one step at
    a time on min(workers, chunks) loops: the calling thread runs one and the
    pool the others, so one chunk, or one CPU, starts no thread.  Each loop
    takes, out of one table of the idle chunks' entity-steps left, the chunk
    with the most (the earliest on a tie), advances it one step and puts it
    back unless it is done, so no chunk is advanced by two threads at once.
    Once a step raises no loop starts another; the running steps finish and
    the first error in chunk order propagates.  The call returns or raises
    only after every pool loop has returned."""
    runs = [_trajectory(pipeline, *inputs) for inputs in work]
    finals: list = [None] * len(work)
    # the entity-steps left of each chunk that no loop is advancing
    idle = {j: len(thetas) * len(x) for j, (_, x, thetas, _) in enumerate(work)}
    errors: dict = {}
    lock = threading.Lock()
    stop = threading.Event()

    def advance():
        while True:
            with lock:
                if stop.is_set() or not idle:
                    return
                j = max(idle, key=lambda i: (idle[i], -i))
                n = idle.pop(j)
            try:
                finals[j] = next(runs[j])
            except Exception as exc:  # noqa: BLE001 - raised in chunk order by the caller
                with lock:
                    errors[j] = exc
                    stop.set()
                return
            if n := n - len(finals[j]):
                with lock:
                    idle[j] = n

    loops = [_executor().submit(advance) for _ in range(min(_workers(), len(work)) - 1)]
    try:
        advance()
        for loop in loops:
            loop.result()
    finally:  # also when the calling thread's own step raises or it is interrupted
        stop.set()
        for loop in loops:
            loop.exception()  # waits until the loop returns
    if errors:
        raise errors[min(errors)]
    return finals


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

    Each entity resumes from the one memo lookup of its key: the longest
    theta prefix of an entity trajectory that differs from it at most in
    theta, or, on the trunk's noise stream, the theta == 0 trunk's leading
    zeros.  A schedule that starts at theta == 0 first renders the trunk of
    the base stream.  The entities that resume at the same depth are
    rendered as stacks (see `_chunks`), and the steps of a call's chunks
    on the calling thread and the pool (see `_render`).
    """
    cfg = pipeline.config
    if len(schedule) != cfg.steps:
        raise ValueError(f"schedule has {len(schedule)} steps, pipeline needs {cfg.steps}")
    if noise_seed is None:
        noise_seed = cfg.noise_seed
    thetas = schedule.values
    theta_key = tuple(thetas.tolist())
    if theta_key[0] == 0.0:
        _trunk(pipeline, bundle.background, noise_seed)
    limit = ENTITY_MEMO_BYTES // (8 * cfg.steps * cfg.image_tokens * cfg.d_model)
    keep = limit > 0 or latent_log is not None
    keys = [(bundle.background, noise_seed if shared_noise else noise_seed + j, entity, theta_key)
            for j, entity in enumerate(bundle.entities)]
    # every entity is looked up before any store can evict its prefix; each
    # prefix is a new list, which the render grows to a whole trajectory
    latents, matches = zip(*(pipeline.memo.lookup(key) for key in keys))
    groups: dict = {}
    for j, prefix in enumerate(latents):
        groups.setdefault(len(prefix), []).append(j)
    images: list = [None] * len(keys)
    for j in groups.pop(cfg.steps, []):
        images[j] = _readout(cfg, latents[j][-1])
    bg_emb = _embed(cfg, bundle.background)
    chunks = [(depth, chunk) for depth, group in groups.items() for chunk in _chunks(group, cfg)]
    work = [
        (
            np.stack((np.repeat(bg_emb[None], len(chunk), axis=0),
                      np.stack([_embed(cfg, keys[j][2]) for j in chunk]))),
            np.stack([latents[j][-1] if depth else _initial_noise(cfg, keys[j][1])
                      for j in chunk]),
            thetas[depth:],
            [latents[j] for j in chunk] if keep else None,
        )
        for depth, chunk in chunks
    ]
    finals = _render(pipeline, work)
    # refreshed and stored here, in lookup and then chunk order, once every
    # chunk has rendered, so a render that raises leaves the memo as it was
    pipeline.memo.refresh(matches)
    for (_, chunk), x in zip(chunks, finals):
        for j, xj in zip(chunk, x):
            images[j] = _readout(cfg, xj)
            if limit:
                pipeline.memo.store(keys[j], latents[j], limit)
    if latent_log is not None:
        latent_log.extend([latent.copy() for latent in steps] for steps in latents)
    return images


def sample_single_prompt(pipeline: Pipeline, prompt: str, noise_seed: int | None = None) -> np.ndarray:
    """Reference run of the unmodified single-text pipeline (theta == 0)."""
    cfg = pipeline.config
    seed = cfg.noise_seed if noise_seed is None else noise_seed
    return _readout(cfg, _trunk(pipeline, prompt, seed)[-1])


def auto_masks(images, background_image):
    """Toy segmentation stand-in: threshold each image against a
    background-only render."""
    return [np.abs(img - background_image) > AUTO_MASK_THRESHOLD for img in images]


def render(
    pipeline: Pipeline,
    bundle: PromptBundle,
    schedule: ThetaSchedule,
    noise_seed: int | None = None,
    shared_noise: bool = True,
    latent_log: list | None = None,
):
    """(images, background_image, masks): the entity images of `sample`
    and the single-prompt background render, both snapped to the 8-bit grid
    of the image files, and the auto masks between them.

    `couplegen generate` writes exactly these arrays and `generate_and_score`
    scores them, so a generate-then-evaluate round trip through the files
    reproduces its report.
    """
    images = [
        quantize(img)
        for img in sample(pipeline, bundle, schedule, noise_seed, shared_noise, latent_log)
    ]
    background_image = quantize(sample_single_prompt(pipeline, bundle.background, noise_seed))
    return images, background_image, auto_masks(images, background_image)


def score_images(images, masks, entities, lambdas: Lambdas) -> MetricReport:
    """Metric report for quantized images, their entity masks and prompts,
    one of each per entity."""
    if not len(images) == len(masks) == len(entities):
        raise ValueError(f"{len(images)} images, {len(masks)} masks and {len(entities)} "
                         "entity prompts: need one of each per entity")
    union = jer(masks)
    ratio = validity_ratio(union)
    f_bg = background_similarity(images, union)
    scorer = HashAlignmentScorer()
    f_ti = [scorer.score(text, img) for text, img in zip(entities, images)]
    return MetricReport(f_bg, f_ti, ratio, lambdas)


def generate_and_score(
    pipeline: Pipeline,
    bundle: PromptBundle,
    schedule: ThetaSchedule,
    noise_seed: int | None = None,
) -> MetricReport:
    """The report of `render`'s images and auto masks at the default weights."""
    if len(bundle.entities) < 2:
        raise ValueError("scoring needs at least 2 entity prompts")
    images, _, masks = render(pipeline, bundle, schedule, noise_seed)
    return score_images(images, masks, bundle.entities, Lambdas())
