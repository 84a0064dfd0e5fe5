"""Spans around the calls into each couplegen module, recorded from outside.

`Tracer.install()` replaces module attributes with timing wrappers and
`Tracer.uninstall()` puts the originals back; nothing under ``src/`` changes.
The package imports its collaborators with ``from .x import y``, so a wrapper
replaces the name in every module that calls it (``couplegen.pipeline`` and
``couplegen.cli``), not only the definition.

Spans live in memory as ``(id, parent, op, name, start, end)`` tuples and are
written as JSON lines when the run ends.  A span's self time is its duration
minus the durations of its direct children; children of one span never
overlap because everything runs in one thread.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from collections import defaultdict

import couplegen.cli
import couplegen.isotonic
import couplegen.pipeline
import couplegen.pnm
from couplegen.metric import HashAlignmentScorer
from couplegen.numerics import Rng

# span name -> (owner, attribute) pairs to wrap.  Names are "<layer>.<call>".
WRAPPED = {
    "numerics.rng_fill": [(Rng, "fill")],
    "prompt_io.embed": [(couplegen.pipeline, "embed_prompt")],
    "attention.coupled": [(couplegen.pipeline, "coupled_qkv_attention")],
    "attention.joint": [(couplegen.pipeline, "joint_attention")],
    "attention.branch": [(couplegen.pipeline, "branch_attention")],
    "attention.merge": [(couplegen.pipeline, "merge_image_states")],
    "pipeline.init": [(couplegen.cli, "init_pipeline")],
    "pipeline.generate_and_score": [(couplegen.cli, "generate_and_score")],
    "pipeline.sample": [(couplegen.cli, "sample"), (couplegen.pipeline, "sample")],
    "pipeline.reference": [
        (couplegen.cli, "sample_single_prompt"),
        (couplegen.pipeline, "sample_single_prompt"),
    ],
    "pipeline.double_block": [(couplegen.pipeline, "run_double_block")],
    "pipeline.single_block": [(couplegen.pipeline, "run_single_block")],
    "metric.scorer_init": [(HashAlignmentScorer, "__init__")],
    "metric.score": [(HashAlignmentScorer, "score")],
    "metric.background_similarity": [
        (couplegen.cli, "background_similarity"),
        (couplegen.pipeline, "background_similarity"),
    ],
    "isotonic.search": [(couplegen.isotonic, "coordinate_search")],
    "isotonic.pava": [(couplegen.isotonic, "pava_project")],
    "schedule.make": [(couplegen.cli, "make_schedule")],
    "schedule.csv": [
        (couplegen.cli, "write_schedule_csv"),
        (couplegen.cli, "read_schedule_csv"),
    ],
    "pnm.write": [(couplegen.pnm, "write_pgm"), (couplegen.pnm, "write_mask")],
    "pnm.read": [(couplegen.pnm, "read_pgm"), (couplegen.pnm, "read_mask")],
    "pnm.quantize": [(couplegen.cli, "quantize"), (couplegen.pipeline, "quantize")],
}

ATTENTION_SPANS = ("attention.coupled", "attention.joint", "attention.branch")


def _attention_work(streams, key_scales):
    """Useful FLOPs and score-matrix bytes of one attention call, from shapes.

    Counts Q for every stream, K and V for key streams whose scale is not 0,
    and the score and weighted-value products over those live key columns.
    Masked work the implementation may still do is not counted.
    """
    d = streams[0].shape[1]
    n_q = sum(s.shape[0] for s in streams)
    n_k = sum(s.shape[0] for s, scale in zip(streams, key_scales) if scale != 0.0)
    flops = 2 * d * d * (n_q + 2 * n_k) + 4 * n_q * n_k * d
    return flops, 8 * n_q * n_k


class Tracer:
    """In-memory span recorder plus the counters read at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.enabled = False
        self.counts: dict[str, int] = defaultdict(int)
        self._embedded: set = set()
        self.sampled = Traffic()
        self._saved: list = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        if not self.enabled:
            yield
            return
        sid, parent = self._open(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, time.perf_counter())

    def _open(self, name):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, t1):
        self.stack.pop()
        self.spans[sid] = (sid, parent, self.op, name, t0, t1)

    def _wrap(self, name, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid, parent = tracer._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._close(sid, parent, name, t0, t1)
            if hook is not None:
                hook(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        hooks = {
            "numerics.rng_fill": self._on_rng_fill,
            "prompt_io.embed": self._on_embed,
            "attention.coupled": self._on_coupled,
            "attention.joint": self._on_joint,
            "attention.branch": self._on_branch,
            "pipeline.sample": self._on_sample,
            "pipeline.reference": self._on_reference,
            "isotonic.search": self._on_search,
            "pnm.write": self._on_pnm_file("pnm.write.bytes"),
            "pnm.read": self._on_pnm_file("pnm.read.bytes"),
        }
        for name, targets in WRAPPED.items():
            for owner, attr in targets:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hooks.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- counters read at the wrapped boundaries -------------------------

    def _on_rng_fill(self, result, rng, rows, cols, *rest, **kw):
        self.counts["numerics.rng_fill.values"] += rows * cols

    def _on_embed(self, result, text, d_model, n_tokens, seed=0):
        key = (text, d_model, n_tokens, seed)
        if key in self._embedded:
            self.counts["prompt_io.embed.repeats"] += 1
        self._embedded.add(key)

    def _add_attention(self, streams, key_scales):
        flops, score_bytes = _attention_work(streams, key_scales)
        self.counts["attention.flops"] += flops
        self.counts["attention.score_bytes"] += score_bytes

    def _on_coupled(self, result, state, w, theta, norm):
        if theta in (0.0, 1.0):
            self.counts["attention.coupled.boundary"] += 1
        self._add_attention(
            (state.background, state.entity, state.image), (1.0 - theta, theta, 1.0)
        )

    def _on_joint(self, result, state, w, norm):
        self._add_attention((state.text, state.image), (1.0, 1.0))

    def _on_branch(self, result, text, image, w, norm):
        self._add_attention((text, image), (1.0, 1.0))

    def _on_sample(self, result, pipeline, bundle, schedule, noise_seed=None,
                   shared_noise=True, latent_log=None):
        cfg = pipeline.config
        seed = cfg.noise_seed if noise_seed is None else noise_seed
        self.sampled.sample(cfg, bundle, schedule.values, seed, shared_noise)

    def _on_reference(self, result, pipeline, prompt, noise_seed=None):
        cfg = pipeline.config
        self.sampled.reference(cfg, prompt, cfg.noise_seed if noise_seed is None else noise_seed)

    def _on_search(self, result, cfg, objective):
        _, _, trace = result
        self.counts["isotonic.evals"] += len(trace)
        self.counts["isotonic.accepted"] += sum(1 for entry in trace if entry.accepted)

    def _on_pnm_file(self, counter):
        def hook(result, path, *rest, **kw):
            self.counts[counter] += os.path.getsize(path)

        return hook

    # -- results ---------------------------------------------------------

    def span_stats(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for sid, parent, op, name, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, parent, op, name, t0, t1 in self.spans:
            entry = stats[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += (t1 - t0) - child[sid]
        return stats

    def write_spans(self, path):
        base = self.spans[0][4] if self.spans else 0.0
        with open(path, "w") as fh:
            for sid, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "name": name,
                    "start_s": t0 - base, "end_s": t1 - base,
                }) + "\n")


class Traffic:
    """What sampler trajectories are asked for, and how much of it repeats.

    The image latent after step i depends on the weights, the noise seed, the
    background text and theta_1..theta_i.  While that prefix is all zero the
    entity keys are masked out, so the trajectory is the background-only
    reference ("shared"); after that it also depends on the entity text.  A
    step is fresh when no earlier step had the same key.
    """

    def __init__(self):
        self.steps = 0
        self.fresh = 0
        self.coupled_steps = 0
        self.boundary_steps = 0
        self.texts = 0
        self.text_repeats = 0
        self._keys: set = set()
        self._texts: set = set()

    def sample(self, cfg, bundle, thetas, noise_seed, shared_noise=True):
        thetas = [float(t) for t in thetas]
        self._text(cfg, bundle.background)
        for j, entity in enumerate(bundle.entities):
            self._text(cfg, entity)
            seed = noise_seed if shared_noise else noise_seed + j
            self._steps(cfg, bundle.background, entity, seed, thetas)
            self.coupled_steps += len(thetas)
            self.boundary_steps += sum(1 for t in thetas if t in (0.0, 1.0))

    def reference(self, cfg, prompt, noise_seed):
        self._text(cfg, prompt)
        self._steps(cfg, prompt, None, noise_seed, [0.0] * cfg.steps)

    def _text(self, cfg, text):
        key = (text, cfg.d_model, cfg.text_tokens, cfg.weight_seed)
        self.texts += 1
        self.text_repeats += key in self._texts
        self._texts.add(key)

    def _steps(self, cfg, background, entity, noise_seed, thetas):
        weights = (cfg.d_model, cfg.text_tokens, cfg.grid_side, cfg.double_blocks,
                   cfg.single_blocks, cfg.steps, cfg.weight_seed)
        for i in range(len(thetas)):
            prefix = tuple(thetas[: i + 1])
            stream = entity if entity is not None and any(prefix) else "shared"
            key = (weights, noise_seed, background, stream, prefix)
            self.steps += 1
            self.fresh += key not in self._keys
            self._keys.add(key)
