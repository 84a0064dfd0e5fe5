"""The names the perfbench harness patches must keep resolving.

``Tracer.install()`` calls ``getattr`` on every ``(owner, attr)`` in
``tracer.WRAPPED``, and the workloads time ``couplegen.cli.generate_and_score``;
a missing name crashes every traced benchmark run, and a hook that cannot
bind the wrapped function's arguments crashes it at the first call.
"""

import inspect
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import couplegen.cli
import couplegen.pipeline
from couplegen.cli import run
from couplegen.pipeline import PipelineConfig, init_pipeline, sample
from couplegen.prompt_io import PromptBundle
from couplegen.schedule import ScheduleFamily, make_schedule

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402


def test_wrapped_names_resolve():
    missing = [
        f"{owner.__name__}.{attr}"
        for targets in tracer.WRAPPED.values()
        for owner, attr in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []


def test_timed_entry_point_resolves():
    assert callable(couplegen.cli.generate_and_score)


def _call_forms(fn):
    """(args, kwargs) for fn's parameters: all positional, and the required
    ones positional with every defaulted one by keyword."""
    params = [
        p for p in inspect.signature(fn).parameters.values()
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]
    positional = [p.name for p in params if p.kind != p.KEYWORD_ONLY]
    keyword_only = {p.name: p.name for p in params if p.kind == p.KEYWORD_ONLY}
    required = [p.name for p in params if p.default is p.empty and p.kind != p.KEYWORD_ONLY]
    defaulted = {p.name: p.name for p in params if p.default is not p.empty}
    return [(positional, keyword_only), (required, defaulted)]


def test_hooks_accept_wrapped_signatures():
    # each hook is called as hook(result, *args, **kwargs) with the wrapped
    # function's arguments, so it must bind every way callers pass them
    t = tracer.Tracer()
    t.install()
    try:
        wrappers = [
            (name, getattr(owner, attr))
            for name, targets in tracer.WRAPPED.items()
            for owner, attr in targets
        ]
    finally:
        t.uninstall()
    checked = set()
    for name, wrapper in wrappers:
        hook = inspect.getclosurevars(wrapper).nonlocals["hook"]
        if hook is None:
            continue
        for args, kwargs in _call_forms(wrapper.__wrapped__):
            inspect.signature(hook).bind("result", *args, **kwargs)
        checked.add(name)
    assert {"pipeline.sample", "pipeline.reference", "attention.branch"} <= checked


BUNDLE = PromptBundle(
    "an old stone library in autumn",
    ("a sleeping cat", "a brass telescope", "a stack of maps"),
)


def test_traced_generate_records_attention(tmp_path):
    bundle = tmp_path / "bundle.json"
    bundle.write_text(BUNDLE.to_json())
    schedule = tmp_path / "schedule.csv"
    t = tracer.Tracer()
    t.install()
    try:
        assert run(["schedule", "--family", "arctan", "--center", "4", "--steps", "10",
                    "--out", str(schedule)]) == 0
        t.enabled = True
        code = run(["generate", "--bundle", str(bundle), "--schedule", str(schedule),
                    "--out-dir", str(tmp_path / "out")])
    finally:
        t.enabled = False
        t.uninstall()
    assert code == 0
    stats = t.span_stats()
    assert stats["attention.coupled"][0] > 0
    assert stats["pipeline.sample"][0] == 1


def _attention_flops(streams, key_scales) -> int:
    """Useful FLOPs of one attention call over 2-D or stacked streams: Q for
    every stream, K and V for live key streams, scores and weighted values,
    over the broadcast batch (a branch call stacks two texts over one image)."""
    batch = math.prod(np.broadcast_shapes(*(s.shape[:-2] for s in streams)))
    d = streams[0].shape[-1]
    n_q = sum(s.shape[-2] for s in streams)
    n_k = sum(s.shape[-2] for s, scale in zip(streams, key_scales) if scale != 0.0)
    return batch * (2 * d * d * (n_q + 2 * n_k) + 4 * n_q * n_k * d)


def _counted_sample(monkeypatch, chunk_bytes) -> tuple[int, int, list]:
    """(attention calls, their useful FLOPs, images) of one 3-entity sample."""
    counts = [0, 0]
    coupled = couplegen.pipeline.coupled_qkv_attention
    branch = couplegen.pipeline.branch_attention

    def count(streams, key_scales):
        counts[0] += 1
        counts[1] += _attention_flops(streams, key_scales)

    def counted_coupled(state, w, theta, norm):
        count((state.background, state.entity, state.image), (1.0 - theta, theta, 1.0))
        return coupled(state, w, theta, norm)

    def counted_branch(text, image, w, norm):
        count((text, image), (1.0, 1.0))
        return branch(text, image, w, norm)

    sched = make_schedule(ScheduleFamily("arctan", 4.0, 0.8), 10)
    with monkeypatch.context() as m:
        m.setattr(couplegen.pipeline, "coupled_qkv_attention", counted_coupled)
        m.setattr(couplegen.pipeline, "branch_attention", counted_branch)
        m.setattr(couplegen.pipeline, "CHUNK_SCORE_BYTES", chunk_bytes)
        images = sample(init_pipeline(PipelineConfig()), BUNDLE, sched)
    return counts[0], counts[1], images


def test_stacking_keeps_attention_work(monkeypatch):
    # per-layer call counts fall with stacking; the useful work may not
    calls_one, flops_one, images_one = _counted_sample(monkeypatch, 0)
    calls, flops, images = _counted_sample(monkeypatch, couplegen.pipeline.CHUNK_SCORE_BYTES)
    assert flops == flops_one
    assert calls * len(BUNDLE.entities) == calls_one
    assert all(np.array_equal(a, b) for a, b in zip(images, images_one, strict=True))


def _traced_chunks(monkeypatch, pool) -> tuple[dict, list]:
    """(span stats, images) of a traced 3-entity sample at d32, 16x16,
    whose one-entity chunks render on pool."""
    sched = make_schedule(ScheduleFamily("arctan", 2.0, 0.8), 4)
    p = init_pipeline(PipelineConfig(d_model=32, grid_side=16, steps=4))
    t = tracer.Tracer()
    t.install()
    try:
        with monkeypatch.context() as m:
            m.setattr(couplegen.pipeline, "_executor", lambda: pool)
            t.enabled = True
            images = couplegen.pipeline.sample(p, BUNDLE, sched)
    finally:
        t.enabled = False
        t.uninstall()
    return t.span_stats(), images


def test_traced_concurrent_chunks_count_like_one_worker(monkeypatch):
    # the tracer keeps one span stack, so self times interleave when chunks
    # render at once, but every call is still counted once
    with ThreadPoolExecutor(3) as pool:
        stats, images = _traced_chunks(monkeypatch, pool)
    with ThreadPoolExecutor(1) as pool:
        serial, serial_images = _traced_chunks(monkeypatch, pool)
    assert stats["pipeline.sample"][0] == 1

    def counted(s):
        return {name: entry[0] for name, entry in s.items()
                if name.startswith("attention.") or name.endswith("_block")}

    assert counted(stats) == counted(serial)
    assert counted(stats)["pipeline.double_block"] == 3 * 4 * 2  # entities x steps x blocks
    assert all(np.array_equal(a, b) for a, b in zip(images, serial_images, strict=True))


def test_sweep_times_one_call_per_row_seeds_outermost(tmp_path, monkeypatch):
    # the workloads time a sweep row by wrapping couplegen.cli.generate_and_score,
    # and seeds outermost keep every center of one seed on the same theta == 0 trunk
    bundle = tmp_path / "bundle.json"
    bundle.write_text(BUNDLE.to_json())
    calls = []
    original = couplegen.cli.generate_and_score

    def recorded(*args, **kwargs):
        given = inspect.signature(original).bind(*args, **kwargs).arguments
        calls.append((given["noise_seed"], given["schedule"].values.tolist()))
        return original(*args, **kwargs)

    monkeypatch.setattr(couplegen.cli, "generate_and_score", recorded)
    code = run(["sweep", "--family", "step01", "--centers", "7,2,5", "--noise-seeds", "2",
                "--bundle", str(bundle), "--out", str(tmp_path / "sweep.csv"),
                "--noise-seed", "4"])
    assert code == 0
    rows = [make_schedule(ScheduleFamily("step01", c), 10).values.tolist() for c in (7.0, 2.0, 5.0)]
    assert calls == [(seed, values) for seed in (4, 5) for values in rows]
