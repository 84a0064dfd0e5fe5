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
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from . import isotonic, pnm
from .metric import Lambdas
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


def _checked(hint: str | None, build, *args, **kwargs):
    """build(*args, **kwargs).  A numerics.FieldError it raises is a bad value
    of the running command's flag whose parameter has the field's name, when
    there is one; any other ValueError is a bad value of hint."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        flags = {p.name: p.opts[0] for p in click.get_current_context().command.params}
        hint = flags.get(getattr(exc, "field", None), hint)
        raise click.BadParameter(str(exc), param_hint=hint) from exc


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


def _write_text(path, data) -> None:
    """data, a string or a list of CSV rows, as path's contents in UTF-8
    whatever the locale; a path the locale could not decode keeps its bytes."""
    with open(path, "w", newline="", encoding="utf-8", errors="surrogateescape") as fh:
        if isinstance(data, str):
            fh.write(data)
        else:
            csv.writer(fh).writerows(data)


@contextmanager
def _outputs(*paths, out_dir: Path | None = None):
    """A list for the work to fill with (path, write, data) entries, each
    written as write(path, data) once the work succeeds.

    Before the work, out_dir and its missing parents are made and paths are
    claimed; after it, every entry's path is claimed before the first write.
    To claim a path is to create it with O_EXCL when it is missing, or else
    to open it for writing without truncating it, so an input named as an
    output stays readable, and a directory or a dangling symlink fails
    before any write.  When anything raises, what this call made is removed,
    newest first, and what was there is left as it was; a directory that
    appears meanwhile is used and left alone."""
    made = []  # (remove, path) in the order made

    def claim(paths):
        for path in paths:
            try:
                os.close(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            except FileExistsError:
                os.close(os.open(path, os.O_WRONLY))
            else:
                made.append((os.unlink, path))

    writes = []
    try:
        missing = [out_dir] if out_dir is not None else []
        while missing and not os.path.lexists(missing[-1].parent):
            missing.append(missing[-1].parent)
        for directory in reversed(missing):
            try:
                directory.mkdir()
            except FileExistsError:
                if not directory.is_dir():
                    raise
            else:
                made.append((os.rmdir, directory))
        claim(paths)
        yield writes
        claim(path for path, _, _ in writes)
        for path, write, data in writes:
            write(path, data)
    except BaseException:
        for remove, path in reversed(made):
            with suppress(OSError):  # keep the first error, not the cleanup's
                remove(path)
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
    with _outputs(out_path) as writes:
        if endpoint is None:
            [reply] = _read_files(_read_text, [Path(fixture)], "--fixture")
        else:
            reply = request_reply(prompts, endpoint)
        writes.append((out_path, _write_text, decompose(prompts, reply).to_json() + "\n"))
    click.echo(f"wrote {out_path}")


@main.command("schedule")
@click.option("--family", type=click.Choice(list(FAMILY_ORDER)), required=True)
@click.option("--center", type=float, required=True)
@click.option("--scale", type=float, default=ScheduleFamily.scale, show_default=True)
@click.option("--steps", type=int, default=PipelineConfig.steps, show_default=True, help=STEPS_HELP)
@click.option("--out", "out_path", required=True)
def schedule_cmd(family, center, scale, steps, out_path):
    """Write a theta schedule CSV for a parameterized family."""
    fam = _checked(None, ScheduleFamily, family, center, scale)
    sched = _checked("--steps", make_schedule, fam, steps)
    with _outputs() as writes:
        writes.append((out_path, write_schedule_csv, sched))
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
    cfg = _checked(None, PipelineConfig, **kw)
    [sched] = _read_files(read_schedule_csv, [schedule_path], "--schedule")
    if len(sched) != cfg.steps:
        raise click.BadParameter(
            f"{schedule_path} has {len(sched)} steps but --steps is {cfg.steps}",
            param_hint="--schedule",
        )
    _warn_truncated(bundle, cfg)
    pipeline = init_pipeline(cfg)
    out = Path(out_dir)
    entities = range(1, len(bundle.entities) + 1)
    npy_paths = [out / f"latent_e{j}_s{i:03d}.npy" for j in entities
                 for i in range(1, cfg.steps + 1) if dump_latents]
    pgm_paths = [(out / f"entity_{j}.pgm", out / f"mask_{j}.pgm") for j in entities]
    latent_log = [] if dump_latents else None
    # every file is named before the render, so a path that cannot be written costs none
    with _outputs(*npy_paths, out / "background.pgm", *sum(pgm_paths, ()), out_dir=out) as writes:
        images, background_image, masks = render(
            pipeline, bundle, sched, shared_noise=not separate_noise, latent_log=latent_log
        )
        latents = (latent for steps_log in latent_log or [] for latent in steps_log)
        for path, latent in zip(npy_paths, latents):
            writes.append((path, np.save, latent.astype("<f4")))
        writes.append((out / "background.pgm", pnm.write_pgm, background_image))
        for (image_path, mask_path), img, mask in zip(pgm_paths, images, masks):
            writes.append((image_path, pnm.write_pgm, img))
            writes.append((mask_path, pnm.write_mask, mask))
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
    lambdas = _checked(None, Lambdas, lambda_bg, lambda_ti)
    if len(image_paths) != len(bundle.entities):
        raise click.BadParameter(
            f"{bundle_path} has {len(bundle.entities)} entities but {len(image_paths)} "
            "images given", param_hint="--bundle",
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
    with _outputs(out_path) as writes:
        # an overflowing weight names its --lambda flag; past the checks above, the one
        # other rejection is of masks that cover every pixel
        report = _checked("--mask", score_images, images, masks, bundle.entities, lambdas)
        writes.append((out_path, _write_text, report.to_json() + "\n"))
    click.echo(f"wrote {out_path}")


@main.command("optimize")
@click.option("--bundle", "bundle_path", required=True)
@click.option("--max-evals", default=200, show_default=True)
@click.option("--step-size", "step", default=isotonic.SearchConfig.step, show_default=True,
              help=f"First search step, from {isotonic.MIN_STEP} to 1.")
@click.option("--search-seed", default=isotonic.SearchConfig.seed, show_default=True)
@click.option("--out-dir", required=True)
@_pipeline_options
def optimize_cmd(bundle_path, max_evals, step, search_seed, out_dir, **kw):
    """Pattern-search the schedule against the combined metric."""
    bundle = _load_bundle(bundle_path, min_entities=2)
    cfg = _checked(None, PipelineConfig, **kw)
    pipeline = init_pipeline(cfg)
    init = make_schedule(
        ScheduleFamily(kind="arctan", center=cfg.steps / 5.0, scale=0.5), cfg.steps
    )
    search = _checked(None, isotonic.SearchConfig, max_evals, init, step, search_seed)
    out = Path(out_dir)
    _warn_truncated(bundle, cfg)
    with _outputs(out / "best_schedule.csv", out / "trace.csv", out_dir=out / "trace") as writes:
        best, value, trace = isotonic.coordinate_search(
            search, lambda sched: generate_and_score(pipeline, bundle, sched).f_c
        )
        writes.append((out / "best_schedule.csv", write_schedule_csv, best))
        rows = [["eval_index", "value", "theta_csv_path"]]
        for k, entry in enumerate(trace, start=1):
            path = out / "trace" / f"eval_{k:05d}.csv"
            writes.append((path, write_schedule_csv, entry.schedule))
            rows.append([k, f"{entry.value:.15g}", str(path)])
        writes.append((out / "trace.csv", _write_text, rows))
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
    cfg = _checked(None, PipelineConfig, **kw)
    pipeline = init_pipeline(cfg)
    grid_centers = _checked("--centers", _parse_centers, centers)
    grid = [_checked("--centers", ScheduleFamily, family, c, scale) for c in grid_centers]
    _warn_truncated(bundle, cfg)
    with _outputs(out_path) as writes:
        # seeds outermost: every center of one seed shares the pipeline's theta == 0 trunk
        by_seed = [
            isotonic.grid_values(
                grid, cfg.steps,
                lambda sched: generate_and_score(pipeline, bundle, sched,
                                                 noise_seed=cfg.noise_seed + s),
            )
            for s in range(noise_seeds)
        ]
        rows = [["family", "center", "scale", "f_bg", "f_ti_mean", "f_c"]]
        for fam, reports in zip(grid, zip(*by_seed)):
            rows.append([
                family, fam.center, scale,
                float(np.mean([r.f_bg for r in reports])),
                float(np.mean([np.mean(r.f_ti) for r in reports])),
                float(np.mean([r.f_c for r in reports])),
            ])
        writes.append((out_path, _write_text, rows))
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
