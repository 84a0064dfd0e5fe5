"""The exactness invariants under other OpenBLAS kernels and numpy SIMD
dispatch levels.

OpenBLAS picks its kernels by CPU, and numpy its SIMD loops (`np.exp`'s
among them), so the pinned digests hold for one (core, dispatch level) pair
only; the invariants must hold for every pair.  Each test runs
`check_invariants` in a child process whose OPENBLAS_CORETYPE forces one
kernel, or whose NPY_DISABLE_CPU_FEATURES cuts numpy's dispatch to its
baseline, and compares results within that child only, never across them.
"""

import ctypes
import glob
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

# core -> the /proc/cpuinfo flag its kernels need
CORES = {"Haswell": "avx2", "Nehalem": "sse4_2"}


def _cpu_flags() -> set:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


def openblas_core():
    """The kernel set numpy's bundled OpenBLAS runs, or None when there is
    no such library or it does not say."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.restype = ctypes.c_char_p
                return getter().decode()
    return None


def check_invariants() -> None:
    """Assert the exactness invariants at d32, 16x16, 6 steps, 2 entities."""
    from couplegen import pipeline as pipeline_module
    from couplegen.attention import CoupledStreamState, StreamState
    from couplegen.attention import coupled_qkv_attention, joint_attention
    from couplegen.cli import run
    from couplegen.numerics import Rng
    from couplegen.pipeline import PipelineConfig, generate_and_score, init_pipeline
    from couplegen.pipeline import run_single_block, sample, sample_single_prompt
    from couplegen.prompt_io import PromptBundle
    from couplegen.schedule import ScheduleFamily, ThetaSchedule, make_schedule
    from couplegen.schedule import write_schedule_csv

    cfg = PipelineConfig(d_model=32, grid_side=16, steps=6)
    bundle = PromptBundle("a misty pine forest at dawn", ("a small red fox", "an old robot"))
    sched = make_schedule(ScheduleFamily("arctan", 3.0, 0.8), cfg.steps)

    def same(got, want) -> bool:
        return all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    # the theta boundaries: the coupled core drops the dead stream, and a
    # sampler at theta == 1 or 0 renders the single-prompt reference
    p = init_pipeline(cfg)
    w, norm = p.double_blocks[0].attn, p.norm_double
    rng = Rng(5)
    bg, ent = (rng.fill(cfg.text_tokens, cfg.d_model, -1.0, 1.0) for _ in range(2))
    img = rng.fill(cfg.image_tokens, cfg.d_model, -1.0, 1.0)
    state = CoupledStreamState(bg, ent, img)
    for theta, text, live in ((0.0, bg, "background"), (1.0, ent, "entity")):
        out = coupled_qkv_attention(state, w, theta, norm)
        ref = joint_attention(StreamState(text, img), w, norm)
        assert np.array_equal(getattr(out, live), ref.text)
        assert np.array_equal(out.image, ref.image)
    # a step's last single block scores no text query rows: its image is
    # that of the full block, at the boundaries and inside, for one entity
    # and for a stack of two
    blk = p.single_blocks[0]
    texts = np.stack((np.stack((bg, ent)), np.stack((ent, bg))))  # (member, E, tokens, d)
    images = np.stack((img, img[::-1]))
    for theta, text in ((0.0, texts[0]), (0.5, texts), (1.0, texts[1])):
        for t, i in ((text, images), (text[..., 0, :, :], img)):
            want = run_single_block(t, i, blk, theta, p.norm_single)[1]
            got = run_single_block(t, i, blk, theta, p.norm_single, keep_text=False)[1]
            assert np.array_equal(got, want)
    for theta, prompts in ((0.0, [bundle.background] * 2), (1.0, bundle.entities)):
        got = sample(init_pipeline(cfg), bundle, ThetaSchedule(np.full(cfg.steps, theta)))
        assert same(got, [sample_single_prompt(p, prompt) for prompt in prompts])

    # a stack of both entities renders each one's slice, and so does a
    # render of one chunk per entity on the pool
    pipeline_module.CHUNK_SCORE_BYTES = 1 << 30  # one chunk of both
    stacked = sample(init_pipeline(cfg), bundle, sched)
    alone = [sample(init_pipeline(cfg), PromptBundle(bundle.background, (e,)), sched)[0]
             for e in bundle.entities]
    assert same(stacked, alone)
    pipeline_module.CHUNK_SCORE_BYTES = 0
    assert same(sample(init_pipeline(cfg), bundle, sched), stacked)

    # generate then evaluate through the files reproduces generate_and_score
    flags = ["--d-model", "32", "--grid-side", "16", "--steps", "6"]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "bundle.json").write_text(bundle.to_json())
        write_schedule_csv(out / "sched.csv", sched)
        assert run(["generate", "--bundle", str(out / "bundle.json"), "--schedule",
                    str(out / "sched.csv"), "--out-dir", str(out), *flags]) == 0
        assert run(["evaluate", "--image", str(out / "entity_1.pgm"), "--image",
                    str(out / "entity_2.pgm"), "--mask", str(out / "mask_1.pgm"), "--mask",
                    str(out / "mask_2.pgm"), "--bundle", str(out / "bundle.json"),
                    "--out", str(out / "report.json")]) == 0
        report = json.loads((out / "report.json").read_text())
    assert report == generate_and_score(init_pipeline(cfg), bundle, sched).to_dict()


def _in_child(code: str, **env) -> str:
    """The stdout of code run in a child Python with env added to this
    environment; the child fails the test if it exits non-zero."""
    here = Path(__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, **env,
             "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def dispatch_targets() -> list:
    """The targets numpy's SIMD loops dispatch to beyond its baseline that
    this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


@pytest.mark.parametrize("core", list(CORES))
def test_invariants_hold_under_core(core):
    if CORES[core] not in _cpu_flags():
        pytest.skip(f"the CPU lacks {CORES[core]}, which the {core} kernels need")
    code = ("from test_blas_cores import check_invariants, openblas_core\n"
            "check_invariants()\n"
            "print(openblas_core())\n")
    out = _in_child(code, OPENBLAS_CORETYPE=core)
    assert out.split()[-1] in (core, "None")


def test_invariants_hold_at_baseline_dispatch():
    targets = dispatch_targets()
    if not targets:
        pytest.skip("numpy dispatches to no target beyond its baseline on this CPU")
    # the child first checks that numpy took the setting, so the leg cannot
    # pass on the default loops
    code = ("from test_blas_cores import check_invariants, dispatch_targets\n"
            "assert dispatch_targets() == [], dispatch_targets()\n"
            "check_invariants()\n")
    _in_child(code, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
