"""Independent reference implementations used as test oracles, and the
test-only helper `CountingObjective`.

Every value oracle is deliberately written with scalar loops and none of
the package's own linear algebra, so agreement is meaningful.  The exactness
oracles (`per_stream_attention` and the per-stream sampler `exact_latents`)
are the other kind: numpy code that makes, for each stream and branch, the
same products on the same operands as the package made before it stacked
streams and branches, so that the stacked sampler can be compared with them
bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from couplegen.numerics import Rng, softmax_rows
from couplegen.prompt_io import embed_prompt


def matmul_loops(a, b):
    """Triple-loop matrix product."""
    n, k = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return np.array(out)


def _project(rows, w):
    return matmul_loops(rows, w)


def _softmax_row(scores):
    finite = [s for s in scores if s != -math.inf]
    m = max(finite)
    exps = [0.0 if s == -math.inf else math.exp(s - m) for s in scores]
    z = sum(exps)
    return [e / z for e in exps]


def scalar_attention(q_rows, k_rows, v_rows, norm):
    """Attention(Q, K, V) = softmax(Q K^T / norm) V with explicit loops.

    Key rows equal to None are masked out (score -inf).
    """
    out = []
    for q in q_rows:
        scores = []
        for k in k_rows:
            if k is None:
                scores.append(-math.inf)
            else:
                scores.append(sum(qa * ka for qa, ka in zip(q, k)) / norm)
        weights = _softmax_row(scores)
        d = len(v_rows[0])
        row = [sum(w * v[j] for w, v in zip(weights, v_rows)) for j in range(d)]
        out.append(row)
    return np.array(out)


def oracle_joint_attention(text, image, w, norm):
    """Token-axis concatenated cross-attention over two streams."""
    q = list(_project(np.vstack([text, image]), w.w_q))
    k = list(_project(np.vstack([text, image]), w.w_k))
    v = list(_project(np.vstack([text, image]), w.w_v))
    out = scalar_attention(q, k, v, norm)
    n_text = len(text)
    return out[:n_text], out[n_text:]


def oracle_coupled_attention(bg, ent, img, w, theta, norm):
    """Dual-text variant: background keys scaled by (1 - theta), entity keys
    by theta; scale 0 masks the stream's keys entirely."""
    stacked = np.vstack([bg, ent, img])
    q = list(_project(stacked, w.w_q))
    v = list(_project(stacked, w.w_v))
    k_bg = _project(bg, w.w_k)
    k_ent = _project(ent, w.w_k)
    k_img = _project(img, w.w_k)
    k = []
    for scale, block in (((1.0 - theta), k_bg), (theta, k_ent), (1.0, k_img)):
        for row in block:
            k.append(None if scale == 0.0 else [scale * x for x in row])
    out = scalar_attention(q, k, v, norm)
    n_bg, n_ent = len(bg), len(ent)
    return out[:n_bg], out[n_bg : n_bg + n_ent], out[n_bg + n_ent :]


def oracle_branch_attention(text, image, w, norm):
    """Self-attention over the unified [text; image] sequence."""
    concat = np.vstack([text, image])
    q = list(_project(concat, w.w_q))
    k = list(_project(concat, w.w_k))
    v = list(_project(concat, w.w_v))
    out = scalar_attention(q, k, v, norm)
    n_text = len(text)
    return out[:n_text], out[n_text:]


def brute_force_monotone_projection(v, lo=0.0, hi=1.0, resolution=1e-3):
    """Exact minimizer of ||x - v||^2 over monotone grid vectors.

    Dynamic program over the discretized value grid: every monotone vector
    with entries on the grid is considered, so this is a brute-force
    enumeration in disguise (and tractable for any N).
    """
    grid = np.arange(0, round((hi - lo) / resolution) + 1) * resolution + lo
    n = len(v)
    g = len(grid)
    cost = (v[0] - grid) ** 2
    choice = np.zeros((n, g), dtype=np.int64)
    for i in range(1, n):
        best_prev = np.minimum.accumulate(cost)
        idx = np.zeros(g, dtype=np.int64)
        running = 0
        for j in range(1, g):
            if cost[j] < cost[running]:
                running = j
            idx[j] = running
        idx[0] = 0
        choice[i] = idx
        cost = (v[i] - grid) ** 2 + best_prev
    j = int(np.argmin(cost))
    out = np.empty(n)
    for i in range(n - 1, -1, -1):
        out[i] = grid[j]
        if i > 0:
            j = int(choice[i][j])
    return out


def pixelwise_union(masks):
    h, w = masks[0].shape
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            out[y, x] = any(bool(m[y, x]) for m in masks)
    return out


def scalar_background_score(images, mask):
    """Scalar-accumulation version of the masked background distance."""
    n = len(images)
    h, w = images[0].shape
    inside = int(sum(1 for y in range(h) for x in range(w) if mask[y, x]))
    ratio = 1.0 - inside / (h * w)
    total = 0.0
    for j in range(n):
        for k in range(j + 1, n):
            acc = 0.0
            for y in range(h):
                for x in range(w):
                    if mask[y, x]:
                        continue
                    d = images[j][y, x] - images[k][y, x]
                    acc += d * d
            total += acc / (h * w)
    return -(2.0 / (n * (n - 1) * ratio)) * total


def splitmix64_reference(seed, count):
    """Published splitmix64 stepping, written independently of the package."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z ^= z >> 31
        out.append(z)
    return out


def _uniforms_reference(seed, count, lo, hi):
    return [lo + (hi - lo) * ((z >> 11) * 2.0**-53) for z in splitmix64_reference(seed, count)]


def _keyed_hash64(text, key):
    digest = hashlib.blake2b(
        text.encode("utf-8"), digest_size=8, key=(key % 2**64).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


def oracle_embed_prompt(text, d_model, n_tokens, seed=0):
    """Token embedding rows drawn token by token from the reference stepping."""
    tokens = text.split()[:n_tokens]
    rows = []
    for i in range(n_tokens):
        if i < len(tokens):
            row = _uniforms_reference(_keyed_hash64(tokens[i], seed), d_model, -1.0, 1.0)
        else:
            row = [0.0] * d_model
        row[0] += i / n_tokens
        rows.append(row)
    return np.array(rows)


def oracle_text_embedding(text, seed, dim):
    """Alignment-scorer text vector: one reference stream seeded by the text's hash."""
    return np.array(_uniforms_reference(_keyed_hash64(text, seed), dim, -1.0, 1.0))


class CountingObjective:
    """Wraps a schedule -> value callable and counts evaluations."""

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, schedule) -> float:
        self.count += 1
        return float(self.fn(schedule))


def per_stream_attention(streams, w, key_scales, norm):
    """The attention core with one score block and one softmax per query
    stream and one product per stream and weight, as it was before the
    streams of a call shared one block."""
    live = [(s, scale) for s, scale in zip(streams, key_scales) if scale != 0.0]
    k = np.concatenate([scale * (s @ w.w_k) for s, scale in live], axis=-2)
    v = np.concatenate([s @ w.w_v for s, _ in live], axis=-2)
    k_t = k.swapaxes(-1, -2)
    outs = []
    for s in streams:
        p = np.matmul(s @ w.w_q, k_t)
        np.divide(p, norm.value, out=p)
        outs.append(softmax_rows(p, out=p) @ v)
    return outs


def _residual(x, attn, w_o, ff):
    x = x + attn @ w_o
    return x + np.tanh(x @ ff.w1) @ ff.w2


def exact_double_block(streams, w, theta, norm):
    """(background, entity, image) through a double block stream by stream:
    one coupled attention, then each stream's own output mix and
    feed-forward."""
    outs = per_stream_attention(streams, w.attn, (1.0 - theta, theta, 1.0), norm)
    ffs = (w.text_ff, w.text_ff, w.image_ff)
    return [_residual(x, a, w.attn.w_o, ff) for x, a, ff in zip(streams, outs, ffs)]


def exact_single_block(streams, w, theta, norm):
    """(background, entity, image) through a single block branch by branch:
    the background and the entity branch each attend over [text; image]; the
    image is theta * entity branch + (1 - theta) * background branch, and
    only the kept branch runs at theta in {0, 1}."""
    bg, ent, img = streams

    def branch(text):
        text_a, img_a = per_stream_attention((text, img), w.attn, (1.0, 1.0), norm)
        return _residual(text, text_a, w.attn.w_o, w.ff), _residual(img, img_a, w.attn.w_o, w.ff)

    bg_out, img_bg = branch(bg) if theta != 1.0 else (bg, img)
    ent_out, img_ent = branch(ent) if theta != 0.0 else (ent, img)
    if theta in (0.0, 1.0):
        return bg_out, ent_out, img_ent if theta == 1.0 else img_bg
    return bg_out, ent_out, theta * img_ent + (1.0 - theta) * img_bg


def exact_latents(pipeline, bundle, schedule, noise_seed, shared_noise=True):
    """Per entity, the image latent after every step of a fresh render of
    that entity alone through the per-stream blocks: no stacking, no memo."""
    cfg = pipeline.config
    deltas = np.diff(np.linspace(1.0, 0.0, cfg.steps + 1))
    bg = embed_prompt(bundle.background, cfg.d_model, cfg.text_tokens, seed=cfg.weight_seed)
    logs = []
    for j, entity in enumerate(bundle.entities):
        ent = embed_prompt(entity, cfg.d_model, cfg.text_tokens, seed=cfg.weight_seed)
        seed = noise_seed if shared_noise else noise_seed + j
        x = Rng(seed).fill(cfg.image_tokens, cfg.d_model, -1.0, 1.0)
        log = []
        for theta, delta in zip(schedule.values.tolist(), deltas):
            streams = (bg, ent, x)
            for blk in pipeline.double_blocks:
                streams = exact_double_block(streams, blk, theta, pipeline.norm_double)
            for blk in pipeline.single_blocks:
                streams = exact_single_block(streams, blk, theta, pipeline.norm_single)
            x = x + delta * streams[2]
            log.append(x)
        logs.append(log)
    return logs
