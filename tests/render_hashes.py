"""sha256 of the float64 arrays of twelve renders, one line per render and
array family.

The seed-1 benchmark digests hash only the 8-bit image files and the
reports, so a change of one ulp in a latent can leave them as they are.
This script hashes the unquantized arrays instead: for each of three
configs (the default; d32, 16x16, 12 steps; d64, 32x32, 5 steps), two
schedule families (arctan and step01) and shared or separate noise, it
prints the hash of the entity images, of every entity's per-step latents
and of the single-prompt reference image.

    PYTHONPATH=src python tests/render_hashes.py

Run it once with one commit's `src/` first on PYTHONPATH and once with
another's, and compare the output: equal lines mean equal bits, on the
same machine and BLAS kernel.  pytest does not collect this file;
`tests/test_scripts.py` runs it over the default config.
"""

import hashlib
import sys

import numpy as np

import couplegen
from couplegen.pipeline import PipelineConfig, init_pipeline, sample, sample_single_prompt
from couplegen.prompt_io import PromptBundle
from couplegen.schedule import ScheduleFamily, make_schedule

BUNDLE = PromptBundle("a quiet room", ("a cat", "a dog", "a lamp"))
CONFIGS = {
    "default": PipelineConfig(),
    "d32": PipelineConfig(d_model=32, grid_side=16, steps=12),
    "d64": PipelineConfig(d_model=64, grid_side=32, steps=5),
}
FAMILIES = {"arctan": ScheduleFamily("arctan", 0.4, 0.8), "step01": ScheduleFamily("step01", 0.5)}


def sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


def main(configs=CONFIGS) -> None:
    print(f"couplegen from {couplegen.__file__}", file=sys.stderr)
    for name, cfg in configs.items():
        pipeline = init_pipeline(cfg)
        for kind, fam in FAMILIES.items():
            # centers at the same fraction of every config's steps
            fam = ScheduleFamily(fam.kind, fam.center * cfg.steps, fam.scale)
            sched = make_schedule(fam, cfg.steps)
            for shared in (True, False):
                log: list = []
                images = sample(pipeline, BUNDLE, sched, shared_noise=shared, latent_log=log)
                reference = sample_single_prompt(pipeline, BUNDLE.background)
                render = f"{name} {kind} {'shared' if shared else 'separate'}"
                print(f"{sha256(images)} {render} images")
                print(f"{sha256(latent for steps in log for latent in steps)} {render} latents")
                print(f"{sha256([reference])} {render} reference")


if __name__ == "__main__":
    main()
