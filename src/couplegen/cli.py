"""Batch command-line frontend.

Subcommands: decompose, schedule, generate, evaluate, optimize, sweep.
Every run is deterministic given its flags; all randomness comes from the
explicit --weight-seed / --noise-seed flags and outputs carry no timestamps.
Exit codes: 0 success, 1 usage error (bad flags or bad input files), 2
runtime error.  The CLI opens only the paths its user names, so an OSError
that names a path (missing, of the wrong kind, too long, a symlink loop) is
a usage error naming that path; one that names none, such as a failed
write, is a runtime error.
"""

from __future__ import annotations

import csv
import json
import sys
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from . import isotonic, pnm
from .metric import DegenerateMaskError, Lambdas, WeightOverflowError
from .pipeline import MAX_SIZES, PipelineConfig, generate_and_score, init_pipeline
from .pipeline import render, score_images
# not called here; perfbench/tracer.py wraps these names of this module
from .metric import background_similarity  # noqa: F401
from .pipeline import sample, sample_single_prompt  # noqa: F401
from .pnm import quantize  # noqa: F401
from .prompt_io import PromptBundle, decompose, endpoint_from_env, request_reply
from .schedule import (
    FAMILY_ORDER,
    MAX_STEPS,
    ScheduleFamily,
    make_schedule,
    read_schedule_csv,
    write_schedule_csv,
)

__all__ = ["main", "run", "entrypoint"]

STEPS_HELP = f"Sampling steps, at most {MAX_STEPS}."


def _load_bundle(path: str, min_entities: int = 1) -> PromptBundle:
    """The bundle JSON at path; malformed or too deeply nested JSON, a bad
    bundle or fewer than min_entities entity prompts is a bad --bundle."""

    def read(path) -> PromptBundle:
        try:
            bundle = PromptBundle.from_dict(json.loads(_read_text(path)))
        except RecursionError:
            raise ValueError("JSON nested too deeply") from None
        if len(bundle.entities) < min_entities:
            raise ValueError(f"scoring needs at least {min_entities} entity prompts, "
                             f"got {len(bundle.entities)}")
        return bundle

    [bundle] = _read_files(read, [path], "--bundle")
    return bundle


def _warn_truncated(bundle: PromptBundle, cfg: PipelineConfig) -> None:
    """One stderr warning per prompt with more whitespace tokens than the
    text_tokens that embed_prompt keeps, naming the words it drops."""
    for text in (bundle.background, *bundle.entities):
        dropped = text.split()[cfg.text_tokens:]
        if dropped:
            click.echo(
                f"warning: --text-tokens {cfg.text_tokens} drops {' '.join(dropped)!r} "
                f"from {text!r}",
                err=True,
            )


def _pipeline_options(fn):
    """One --flag per PipelineConfig field, defaulting to the field's default."""
    for f in reversed(fields(PipelineConfig)):
        text = f"At most {MAX_SIZES[f.name]}." if f.name in MAX_SIZES else None
        fn = click.option("--" + f.name.replace("_", "-"), default=f.default, show_default=True,
                          help=STEPS_HELP if f.name == "steps" else text)(fn)
    return fn


def _checked(hint: str, build, *args, **kwargs):
    """build(*args, **kwargs); a ValueError it raises is a bad value of hint."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint=hint) from exc


def _from_flags(cls, **kw):
    """The cls of the --flags in kw, each checked on its own."""
    for name, value in kw.items():
        _checked("--" + name.replace("_", "-"), cls, **{name: value})
    return cls(**kw)


def _read_text(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_files(reader, paths, hint: str) -> list:
    """Read every path with reader; a malformed file is a bad parameter."""
    arrays = []
    for path in paths:
        try:
            arrays.append(reader(path))
        except ValueError as exc:
            raise click.BadParameter(f"{path}: {exc}", param_hint=hint) from exc
    return arrays


@contextmanager
def _output_file(path):
    """path opened for writing UTF-8 text whatever the locale (a path the locale
    could not decode keeps its bytes), before the work that fills it, so a bad
    path costs no work; work that raises removes the file it opened."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        try:
            yield fh
        except BaseException:
            Path(path).unlink()
            raise


def _parse_centers(spec: str) -> list[float]:
    """'3..12' expands to integer centers, counted from its ends first;
    otherwise a comma-separated list.  Either names 1 to MAX_STEPS centers."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        centers = range(int(lo), int(hi) + 1)
        count = max(0, centers.stop - centers.start)  # len() overflows above sys.maxsize
    else:
        centers = [float(tok) for tok in spec.split(",") if tok.strip()]
        count = len(centers)
    if count < 1:
        raise ValueError(f"{spec!r} names no center")
    if count > MAX_STEPS:
        raise ValueError(f"{spec!r} names {count} centers, at most {MAX_STEPS}")
    return [float(c) for c in centers]


@click.group()
def main():
    """Coupled image generation toolkit."""


@main.command("decompose")
@click.option("--prompts", "prompts_path", required=True, help="Text file, one prompt per line.")
@click.option("--fixture", default=None, help="Canned LLM reply file (offline mode).")
@click.option("--out", "out_path", required=True, help="Bundle JSON output path.")
def decompose_cmd(prompts_path, fixture, out_path):
    """Split prompts into a shared background and per-prompt entities."""
    [text] = _read_files(_read_text, [Path(prompts_path)], "--prompts")
    prompts = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(prompts) < 2:
        raise click.BadParameter(
            f"decompose needs at least 2 prompts, {prompts_path} holds {len(prompts)}",
            param_hint="--prompts",
        )
    endpoint = None if fixture is not None else _checked("--fixture", endpoint_from_env)
    with _output_file(out_path) as fh:
        if endpoint is None:
            [reply] = _read_files(_read_text, [Path(fixture)], "--fixture")
        else:
            reply = request_reply(prompts, endpoint)
        fh.write(decompose(prompts, reply).to_json() + "\n")
    click.echo(f"wrote {out_path}")


@main.command("schedule")
@click.option("--family", type=click.Choice(list(FAMILY_ORDER)), required=True)
@click.option("--center", type=float, required=True)
@click.option("--scale", type=float, default=ScheduleFamily.scale, show_default=True)
@click.option("--steps", type=int, default=PipelineConfig.steps, show_default=True, help=STEPS_HELP)
@click.option("--out", "out_path", required=True)
def schedule_cmd(family, center, scale, steps, out_path):
    """Write a theta schedule CSV for a parameterized family."""
    _checked("--scale", ScheduleFamily, family, 0.0, scale)
    fam = _checked("--center", ScheduleFamily, family, center, scale)
    sched = _checked("--steps", make_schedule, fam, steps)
    write_schedule_csv(out_path, sched)
    click.echo(f"wrote {out_path}")


@main.command("generate")
@click.option("--bundle", "bundle_path", required=True)
@click.option("--schedule", "schedule_path", required=True)
@click.option("--out-dir", required=True)
@click.option("--separate-noise", is_flag=True, help="Use a distinct noise stream per entity.")
@click.option("--dump-latents", is_flag=True,
              help="Write per-step image latents as float32 .npy files, one per entity and step.")
@_pipeline_options
def generate_cmd(bundle_path, schedule_path, out_dir, separate_noise, dump_latents, **kw):
    """Render per-entity images (PGM) plus auto-threshold masks."""
    bundle = _load_bundle(bundle_path)
    cfg = _from_flags(PipelineConfig, **kw)
    [sched] = _read_files(read_schedule_csv, [schedule_path], "--schedule")
    if len(sched) != cfg.steps:
        raise click.BadParameter(
            f"{schedule_path} has {len(sched)} steps but --steps is {cfg.steps}",
            param_hint="--schedule",
        )
    _warn_truncated(bundle, cfg)
    pipeline = init_pipeline(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    latent_log = [] if dump_latents else None
    images, background_image, masks = render(
        pipeline, bundle, sched, shared_noise=not separate_noise, latent_log=latent_log
    )
    if dump_latents:
        for j, steps_log in enumerate(latent_log, start=1):
            for i, latent in enumerate(steps_log, start=1):
                np.save(out / f"latent_e{j}_s{i:03d}.npy", latent.astype("<f4"))
    pnm.write_pgm(out / "background.pgm", background_image)
    for j, (img, mask) in enumerate(zip(images, masks), start=1):
        pnm.write_pgm(out / f"entity_{j}.pgm", img)
        pnm.write_mask(out / f"mask_{j}.pgm", mask)
    click.echo(f"wrote {len(images)} images to {out}")


@main.command("evaluate")
@click.option("--image", "image_paths", multiple=True, required=True)
@click.option("--mask", "mask_paths", multiple=True, required=True)
@click.option("--bundle", "bundle_path", required=True, help="Bundle JSON for alignment scoring.")
@click.option("--lambda-bg", default=Lambdas.lambda_bg, show_default=True)
@click.option("--lambda-ti", default=Lambdas.lambda_ti, show_default=True)
@click.option("--out", "out_path", required=True)
def evaluate_cmd(image_paths, mask_paths, bundle_path, lambda_bg, lambda_ti, out_path):
    """Score images + masks and write the metric report JSON."""
    if len(image_paths) != len(mask_paths):
        raise click.UsageError("need one --mask per --image")
    bundle = _load_bundle(bundle_path, min_entities=2)
    lambdas = _from_flags(Lambdas, lambda_bg=lambda_bg, lambda_ti=lambda_ti)
    if len(image_paths) != len(bundle.entities):
        raise click.UsageError(
            f"bundle has {len(bundle.entities)} entities but {len(image_paths)} images given"
        )
    images = _read_files(pnm.read_pgm, image_paths, "--image")
    masks = _read_files(pnm.read_mask, mask_paths, "--mask")
    h, w = images[0].shape
    for hint, paths, arrays in (("--image", image_paths, images), ("--mask", mask_paths, masks)):
        for path, a in zip(paths, arrays):
            if a.shape != (h, w):
                raise click.BadParameter(
                    f"{path} is {a.shape[1]}x{a.shape[0]}, {image_paths[0]} is {w}x{h}",
                    param_hint=hint,
                )
    try:
        report = score_images(images, masks, bundle.entities, lambdas)
    except DegenerateMaskError as exc:
        raise click.BadParameter(str(exc), param_hint="--mask") from exc
    except WeightOverflowError as exc:
        raise click.BadParameter(str(exc), param_hint="--" + exc.weight.replace("_", "-")) from exc
    Path(out_path).write_text(report.to_json() + "\n")
    click.echo(f"wrote {out_path}")


@main.command("optimize")
@click.option("--bundle", "bundle_path", required=True)
@click.option("--max-evals", default=200, show_default=True)
@click.option("--step-size", default=isotonic.SearchConfig.step, show_default=True,
              help=f"First search step, from {isotonic.MIN_STEP} to 1.")
@click.option("--search-seed", default=isotonic.SearchConfig.seed, show_default=True)
@click.option("--out-dir", required=True)
@_pipeline_options
def optimize_cmd(bundle_path, max_evals, step_size, search_seed, out_dir, **kw):
    """Pattern-search the schedule against the combined metric."""
    bundle = _load_bundle(bundle_path, min_entities=2)
    cfg = _from_flags(PipelineConfig, **kw)
    pipeline = init_pipeline(cfg)
    init = make_schedule(
        ScheduleFamily(kind="arctan", center=cfg.steps / 5.0, scale=0.5), cfg.steps
    )
    _checked("--max-evals", isotonic.SearchConfig, max_evals=max_evals, init=init)
    search = _checked(
        "--step-size", isotonic.SearchConfig,
        max_evals=max_evals, init=init, step=step_size, seed=search_seed,
    )
    out = Path(out_dir)
    trace_dir = out / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    _warn_truncated(bundle, cfg)
    best, value, trace = isotonic.coordinate_search(
        search, lambda sched: generate_and_score(pipeline, bundle, sched).f_c
    )

    write_schedule_csv(out / "best_schedule.csv", best)
    with _output_file(out / "trace.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(["eval_index", "value", "theta_csv_path"])
        for k, entry in enumerate(trace, start=1):
            path = trace_dir / f"eval_{k:05d}.csv"
            write_schedule_csv(path, entry.schedule)
            writer.writerow([k, f"{entry.value:.15g}", str(path)])
    click.echo(f"best value {value:.6g} after {len(trace)} evaluations")


@main.command("sweep")
@click.option("--family", type=click.Choice(list(FAMILY_ORDER)), required=True)
@click.option("--centers", required=True,
              help=f"Comma list or 'lo..hi' integer range, at most {MAX_STEPS} centers.")
@click.option("--scale", type=float, default=ScheduleFamily.scale, show_default=True)
@click.option("--bundle", "bundle_path", required=True)
@click.option("--noise-seeds", default=1, show_default=True,
              help=f"Noise seeds averaged per point, at most {MAX_STEPS}.")
@click.option("--out", "out_path", required=True)
@_pipeline_options
def sweep_cmd(family, centers, scale, bundle_path, noise_seeds, out_path, **kw):
    """Evaluate a grid of schedule centers and tabulate the metrics."""
    if not 1 <= noise_seeds <= MAX_STEPS:
        raise click.BadParameter(f"must be from 1 to {MAX_STEPS}, got {noise_seeds}",
                                 param_hint="--noise-seeds")
    bundle = _load_bundle(bundle_path, min_entities=2)
    cfg = _from_flags(PipelineConfig, **kw)
    pipeline = init_pipeline(cfg)
    grid_centers = _checked("--centers", _parse_centers, centers)
    _checked("--scale", ScheduleFamily, family, 0.0, scale)
    grid = [_checked("--centers", ScheduleFamily, family, c, scale) for c in grid_centers]
    _warn_truncated(bundle, cfg)
    with _output_file(out_path) as fh:
        # seeds outermost: every center of one seed shares the pipeline's theta == 0 trunk
        by_seed = [
            isotonic.grid_values(
                grid, cfg.steps,
                lambda sched: generate_and_score(pipeline, bundle, sched,
                                                 noise_seed=cfg.noise_seed + s),
            )
            for s in range(noise_seeds)
        ]
        writer = csv.DictWriter(fh, fieldnames=["family", "center", "scale", "f_bg", "f_ti_mean", "f_c"])
        writer.writeheader()
        for fam, reports in zip(grid, zip(*by_seed)):
            writer.writerow({
                "family": family,
                "center": fam.center,
                "scale": scale,
                "f_bg": float(np.mean([r.f_bg for r in reports])),
                "f_ti_mean": float(np.mean([np.mean(r.f_ti) for r in reports])),
                "f_c": float(np.mean([r.f_c for r in reports])),
            })
    click.echo(f"wrote {out_path}")


def run(argv) -> int:
    """Dispatch argv and map outcomes to exit codes (0 ok, 1 usage, 2 runtime)."""
    try:
        main.main(args=list(argv), standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Exit as exc:  # --help and friends
        return int(exc.exit_code)
    except Exception as exc:  # noqa: BLE001 - runtime failures map to exit 2
        # the CLI opens only the user's paths, so an OSError naming a path is bad input
        if isinstance(exc, OSError) and exc.filename is not None:
            click.echo(f"usage error: {exc}", err=True)
            return 1
        click.echo(f"runtime error: {exc}", err=True)
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
