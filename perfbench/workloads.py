"""The three benchmark workloads: inputs drawn from a seed, one unit of work,
and the check of every operation's output.

Each workload is a closed loop with one client: the next unit starts when the
previous one has finished and been checked.  Inputs come from a
``random.Random(seed)`` stream over a fixed word pool; the program only ever
sees the generated bundle files and command-line flags.  Checks run outside
the timed interval and with tracing paused.

* ``roundtrip``: schedule (arctan) -> generate -> evaluate through
  ``couplegen.cli.run`` at the default config, a fresh noise seed per op.  The
  file path users take; no theta prefix repeats and no theta is 0 or 1, so it
  is the control for caches and boundary skips.
* ``optimize``: ``couplegen optimize --max-evals 200``; one op is one
  objective evaluation.  Re-renders the same reference, re-embeds the same
  texts and repeats theta prefixes, so memoisation shows here.
* ``sweep_mid``: a 9-center step01 sweep at d32, 16x16, 20 steps; one op is
  one row.  Attention dominates and every theta is exactly 0 or 1, so
  batched attention and dead-stream skipping show here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field

import couplegen.cli
import numpy as np
from couplegen.pipeline import PipelineConfig, generate_and_score, init_pipeline
from couplegen.prompt_io import PromptBundle
from couplegen.schedule import ScheduleFamily, ThetaSchedule, make_schedule

from tracer import Traffic

# Large enough that texts rarely repeat across roundtrip ops.
PLACES = (
    "a quiet harbor", "a sunlit meadow", "an old stone library", "a rainy city street",
    "a snowy mountain pass", "a desert canyon", "a cozy wooden kitchen",
    "a misty pine forest", "a crowded night market", "a calm lake shore",
    "a glass greenhouse", "a windswept beach",
)
TIMES = ("at dawn", "at noon", "at dusk", "at night", "in spring", "in autumn",
         "in winter", "after rain")
STYLES = ("soft light", "long shadows", "muted colors", "film grain", "wide angle",
          "overcast sky", "golden hour", "high contrast")
MOODS = ("calm", "busy", "lonely", "festive", "dreamy", "stormy")
SUBJECTS = (
    "fox", "robot", "cat", "fisherman", "lantern", "telescope", "dancer", "parrot",
    "bicycle", "dog", "violinist", "horse", "cactus", "owl", "kettle", "knight",
)
ADJECTIVES = ("small", "old", "shiny", "sleepy", "tall", "tiny", "proud", "curious",
              "wooden", "golden")
COLORS = ("red", "blue", "green", "white", "black", "orange", "grey", "purple")
POSES = ("sits", "stands", "rests", "waits", "looks left", "glows")

SWEEP_CENTERS = "3,5,7,9,11,13,15,17,21"
ZERO_THETA_CENTER = 21.0  # beyond the last of 20 steps: theta is 0 throughout


def draw_bundle(rng: random.Random, n_entities: int) -> PromptBundle:
    background = " ".join(
        (rng.choice(PLACES), rng.choice(TIMES), rng.choice(MOODS), "with", rng.choice(STYLES))
    )
    entities = tuple(
        f"a {rng.choice(ADJECTIVES)} {rng.choice(COLORS)} {subject} {rng.choice(POSES)}"
        for subject in rng.sample(SUBJECTS, n_entities)
    )
    return PromptBundle(background=background, entities=entities)


def run_cli(tracer, argv):
    """``couplegen.cli.run`` with its stdout captured; returns (code, stdout)."""
    out = io.StringIO()
    with tracer.span("cli.run"), contextlib.redirect_stdout(out):
        code = couplegen.cli.run([str(a) for a in argv])
    if code != 0:
        tracer.counts["cli.run.failed"] += 1
    return code, out.getvalue()


CAL_SHARE = 0.2  # calibration time per op, as a share of the op's time


class Calibrator:
    """A fixed three-stream softmax attention at one config's shapes.

    It shares no code with couplegen, so its time tracks only how fast the
    machine runs this kind of code at the moment.  Times scaled by
    ``ref_s / slice time`` are in reference-machine time; ``ref_s`` is a
    slice's time on a quiet 2-core 2.0 GHz Xeon VM.
    """

    def __init__(self, cfg: PipelineConfig, reps: int, ref_s: float):
        rng = np.random.default_rng(0)
        sizes = (cfg.text_tokens, cfg.text_tokens, cfg.image_tokens)
        self.streams = [rng.uniform(-1.0, 1.0, (n, cfg.d_model)) for n in sizes]
        self.weights = [rng.uniform(-0.1, 0.1, (cfg.d_model, cfg.d_model)) for _ in range(3)]
        self.reps = reps
        self.ref_s = ref_s

    def slice(self) -> float:
        w_q, w_k, w_v = self.weights
        t0 = time.perf_counter()
        for _ in range(self.reps):
            qs = [x @ w_q for x in self.streams]
            ks = [x @ w_k for x in self.streams]
            vs = [x @ w_v for x in self.streams]
            for q in qs:
                blocks = [q @ k.T for k in ks]
                top = np.max(np.concatenate(blocks, axis=1), axis=1)[:, None]
                weights = [np.exp(b - top) for b in blocks]
                denom = sum(w.sum(axis=1) for w in weights)[:, None]
                out = sum((w / denom) @ v for w, v in zip(weights, vs))
                np.tanh(out @ w_q)
        return time.perf_counter() - t0

    def __call__(self, seconds: float) -> float:
        """Mean time of the slices run for CAL_SHARE of ``seconds``."""
        spent, n = 0.0, 0
        while n == 0 or spent < CAL_SHARE * seconds:
            spent += self.slice()
            n += 1
        return spent / n


class Clock:
    """Op latencies, plus calibration slices timed right after each op.

    Ops that run inside one command (an objective evaluation, a sweep row) are
    timed by wrapping ``couplegen.cli.generate_and_score``.  The calibration
    time spent inside a command is kept in ``cal_s`` so it can be taken out
    of the command's wall time.
    """

    def __init__(self, calibrator: Calibrator | None):
        self.calibrator = calibrator
        self._reset()

    def _reset(self):
        self.latencies: list[float] = []
        self.cals: list[float] = []
        self.cal_s = 0.0

    def op_done(self, seconds: float) -> None:
        self.latencies.append(seconds)
        if self.calibrator is not None:
            t0 = time.perf_counter()
            self.cals.append(self.calibrator(seconds))
            self.cal_s += time.perf_counter() - t0

    def install(self):
        original = self.original = couplegen.cli.generate_and_score

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = original(*args, **kwargs)
            self.op_done(time.perf_counter() - t0)
            return result

        couplegen.cli.generate_and_score = timed

    def uninstall(self):
        couplegen.cli.generate_and_score = self.original

    def take(self):
        """(latencies, calibrations, calibration seconds) since the last take."""
        taken = self.latencies, self.cals, self.cal_s
        self._reset()
        return taken


@dataclass
class UnitResult:
    latencies: list[float]
    cals: list[float]  # mean calibration slice after each op; empty when not calibrating
    busy_s: float  # wall time inside the program's commands
    attempted: int
    failed: int
    digest_parts: list[bytes] = field(default_factory=list)
    best_f_c: float | None = None
    problems: list[str] = field(default_factory=list)

    @contextlib.contextmanager
    def checking(self):
        """Count an output check that cannot read the outputs as failed."""
        try:
            yield
        except (OSError, ValueError, KeyError) as exc:
            self.problems.append(f"output check raised {exc!r}")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    config = PipelineConfig()
    base_units = 1  # units in a traced pass and in the output digest
    cal_reps, cal_ref_s = 6, 0.0012  # a calibration slice and its reference time

    @classmethod
    def calibrator(cls) -> Calibrator:
        return Calibrator(cls.config, cls.cal_reps, cls.cal_ref_s)

    def __init__(self, seed: int, workdir, clock: Clock):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.clock = clock
        self.pipeline = init_pipeline(self.config)

    def draw(self):
        raise NotImplementedError

    def run_unit(self, spec, tracer) -> UnitResult:
        raise NotImplementedError

    def add_traffic(self, spec, traffic: Traffic) -> None:
        raise NotImplementedError

    def _fresh_dir(self):
        if self.workdir.exists():
            shutil.rmtree(self.workdir)
        self.workdir.mkdir(parents=True)
        return self.workdir

    def _write_bundle(self, bundle):
        path = self.workdir / "bundle.json"
        path.write_text(bundle.to_json() + "\n")
        return path


class RoundTrip(Workload):
    name = "roundtrip"
    base_units = 100

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        self._counts: list[int] = []
        self._noise_seeds: set[int] = set()

    def draw(self):
        if not self._counts:  # every 3 ops hold one bundle each of 2, 3 and 4 entities
            self._counts = [2, 3, 4]
            self.rng.shuffle(self._counts)
        bundle = draw_bundle(self.rng, self._counts.pop())
        center = self.rng.uniform(1.0, 10.0)
        scale = self.rng.uniform(0.3, 2.0)
        noise_seed = self.rng.getrandbits(32)
        while noise_seed in self._noise_seeds:
            noise_seed = self.rng.getrandbits(32)
        self._noise_seeds.add(noise_seed)
        return bundle, center, scale, noise_seed

    def _schedule(self, center, scale):
        return make_schedule(ScheduleFamily("arctan", center, scale), self.config.steps)

    def run_unit(self, spec, tracer):
        bundle, center, scale, noise_seed = spec
        d = self._fresh_dir()
        bundle_path = self._write_bundle(bundle)
        n = len(bundle.entities)
        images = [d / "out" / f"entity_{j}.pgm" for j in range(1, n + 1)]
        masks = [d / "out" / f"mask_{j}.pgm" for j in range(1, n + 1)]
        commands = [
            ["schedule", "--family", "arctan", "--center", repr(center), "--scale", repr(scale),
             "--steps", self.config.steps, "--out", d / "sched.csv"],
            ["generate", "--bundle", bundle_path, "--schedule", d / "sched.csv",
             "--out-dir", d / "out", "--noise-seed", noise_seed],
            ["evaluate", *[a for p in images for a in ("--image", p)],
             *[a for p in masks for a in ("--mask", p)],
             "--bundle", bundle_path, "--out", d / "report.json"],
        ]
        t0 = time.perf_counter()
        codes = []
        for argv in commands:
            codes.append(run_cli(tracer, argv)[0])
            if codes[-1] != 0:
                break
        busy = time.perf_counter() - t0
        self.clock.op_done(busy)
        latencies, cals, _ = self.clock.take()
        result = UnitResult(latencies, cals, busy, attempted=1, failed=0)
        if codes != [0, 0, 0]:
            result.problems.append(f"exit codes {codes}")
        else:
            with result.checking(), tracer.paused():
                direct = generate_and_score(
                    self.pipeline, bundle, self._schedule(center, scale), noise_seed=noise_seed
                )
                report_bytes = (d / "report.json").read_bytes()
                if json.loads(report_bytes) != direct.to_dict():
                    result.problems.append("evaluate report differs from generate_and_score")
                result.best_f_c = direct.f_c
                for path in [d / "sched.csv", d / "out" / "background.pgm", *images, *masks]:
                    result.digest_parts.append(path.read_bytes())
                result.digest_parts.append(report_bytes)
        result.failed = 1 if result.problems else 0
        return result

    def add_traffic(self, spec, traffic):
        bundle, center, scale, noise_seed = spec
        cfg = self.config
        traffic.sample(cfg, bundle, self._schedule(center, scale).values, noise_seed)
        traffic.reference(cfg, bundle.background, noise_seed)


class Optimize(Workload):
    name = "optimize"
    max_evals = 200

    def draw(self):
        return draw_bundle(self.rng, 3), self.rng.getrandbits(31)

    def run_unit(self, spec, tracer):
        bundle, search_seed = spec
        d = self._fresh_dir()
        bundle_path = self._write_bundle(bundle)
        self.clock.take()
        t0 = time.perf_counter()
        code, stdout = run_cli(tracer, [
            "optimize", "--bundle", bundle_path, "--max-evals", self.max_evals,
            "--search-seed", search_seed, "--out-dir", d / "search",
        ])
        wall = time.perf_counter() - t0
        latencies, cals, cal_s = self.clock.take()
        result = UnitResult(latencies, cals, wall - cal_s, attempted=self.max_evals, failed=0)
        if code != 0:
            result.problems.append(f"exit code {code}")
        else:
            with result.checking(), tracer.paused():
                self._check(bundle, d / "search", stdout, result)
        if result.problems:
            result.failed = result.attempted
        return result

    def _check(self, bundle, out, stdout, result):
        if len(result.latencies) != self.max_evals:
            result.problems.append(f"timed {len(result.latencies)} evaluations")
        if not stdout.rstrip().endswith(f"after {self.max_evals} evaluations"):
            result.problems.append(f"unexpected summary {stdout.strip()!r}")
        rows = _read_csv(out / "trace.csv")
        values = [float(r["value"]) for r in rows]
        best_rows = _read_csv(out / "best_schedule.csv")
        best = [float(r["theta"]) for r in best_rows]
        if len(rows) != self.max_evals:
            result.problems.append(f"trace.csv has {len(rows)} rows")
        if len(best) != self.config.steps or not all(0.0 <= t <= 1.0 for t in best):
            result.problems.append("best schedule is not in [0, 1] with one value per step")
        if any(b < a for a, b in zip(best, best[1:])):
            result.problems.append("best schedule decreases")
        if result.problems:
            return
        report = generate_and_score(self.pipeline, bundle, ThetaSchedule(best))
        best_value = float(f"{report.f_c:.15g}")  # as trace.csv writes values
        if best_value != max(values):
            result.problems.append("best schedule does not reproduce the best traced value")
        if not best_value >= values[0]:
            result.problems.append("best value is below the first evaluation")
        result.best_f_c = report.f_c
        result.digest_parts += [
            "\n".join(f"{r['eval_index']},{r['value']}" for r in rows).encode(),
            (out / "best_schedule.csv").read_bytes(),
            report.to_json().encode(),
        ]

    def add_traffic(self, spec, traffic):
        bundle, _ = spec
        cfg = self.config
        for row in _read_csv(self.workdir / "search" / "trace.csv"):
            thetas = [float(r["theta"]) for r in _read_csv(row["theta_csv_path"])]
            traffic.sample(cfg, bundle, thetas, cfg.noise_seed)
            traffic.reference(cfg, bundle.background, cfg.noise_seed)


class SweepMid(Workload):
    name = "sweep_mid"
    config = PipelineConfig(d_model=32, grid_side=16, steps=20)
    cal_reps, cal_ref_s = 1, 0.0016

    def draw(self):
        return draw_bundle(self.rng, 3), self.rng.getrandbits(31)

    def run_unit(self, spec, tracer):
        bundle, noise_seed = spec
        d = self._fresh_dir()
        bundle_path = self._write_bundle(bundle)
        cfg = self.config
        self.clock.take()
        t0 = time.perf_counter()
        code, _ = run_cli(tracer, [
            "sweep", "--family", "step01", "--centers", SWEEP_CENTERS,
            "--bundle", bundle_path, "--out", d / "sweep.csv",
            "--d-model", cfg.d_model, "--grid-side", cfg.grid_side, "--steps", cfg.steps,
            "--noise-seed", noise_seed,
        ])
        wall = time.perf_counter() - t0
        latencies, cals, cal_s = self.clock.take()
        n_rows = len(SWEEP_CENTERS.split(","))
        result = UnitResult(latencies, cals, wall - cal_s, attempted=n_rows, failed=0)
        rows = []
        if code == 0:
            with result.checking():
                rows = _read_csv(d / "sweep.csv")
                self._check(rows, result)
                result.digest_parts.append((d / "sweep.csv").read_bytes())
        if code != 0 or len(rows) != n_rows or len(result.latencies) != n_rows:
            result.problems.append(f"exit code {code}, {len(rows)} rows")
        if result.problems:
            result.failed = max(result.failed, n_rows if len(rows) != n_rows else 1)
        return result

    def _check(self, rows, result):
        """Every row finite; the theta = 0 row has f_bg exactly 0."""
        for row in rows:
            values = [float(row[k]) for k in ("f_bg", "f_ti_mean", "f_c")]
            if not all(math.isfinite(v) for v in values):
                result.failed += 1
                result.problems.append(f"row at center {row['center']} is not finite")
            elif float(row["center"]) == ZERO_THETA_CENTER and values[0] != 0.0:
                result.failed += 1
                result.problems.append(f"theta = 0 row has f_bg {values[0]!r}")
        result.best_f_c = max(float(row["f_c"]) for row in rows)

    def add_traffic(self, spec, traffic):
        bundle, noise_seed = spec
        cfg = self.config
        for center in SWEEP_CENTERS.split(","):
            sched = make_schedule(ScheduleFamily("step01", float(center)), cfg.steps)
            traffic.sample(cfg, bundle, sched.values, noise_seed)
            traffic.reference(cfg, bundle.background, noise_seed)


WORKLOADS = {w.name: w for w in (RoundTrip, Optimize, SweepMid)}
