"""Command-line workflow tests: schedule/generate/evaluate round trips,
deterministic re-runs, and exit codes."""

import json

import numpy as np
import pytest

from couplegen.cli import run
from couplegen.numerics import load_f32t
from couplegen.pipeline import PipelineConfig, generate_and_score, init_pipeline, sample
from couplegen.prompt_io import PromptBundle
from couplegen.schedule import ScheduleFamily, make_schedule, read_schedule_csv

FIXTURE_REPLY = (
    "Background: A cozy room bathed in warm sunshine.\n"
    "Entity 1: A cute Pikachu sits.\n"
    "Entity 2: A beautiful girl stands.\n"
)


@pytest.fixture()
def bundle_file(tmp_path):
    bundle = PromptBundle(
        "A cozy room bathed in warm sunshine.",
        ("A cute Pikachu sits.", "A beautiful girl stands."),
    )
    path = tmp_path / "bundle.json"
    path.write_text(bundle.to_json() + "\n")
    return path


@pytest.fixture()
def schedule_file(tmp_path):
    path = tmp_path / "schedule.csv"
    code = run(
        ["schedule", "--family", "arctan", "--center", "5", "--scale", "0.8",
         "--steps", "10", "--out", str(path)]
    )
    assert code == 0
    return path


class TestScheduleCommand:
    def test_writes_expected_csv(self, tmp_path):
        out = tmp_path / "sched.csv"
        code = run(
            ["schedule", "--family", "arctan", "--center", "6.7", "--scale", "0.5",
             "--steps", "50", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,theta"
        assert len(lines) == 51
        sched = read_schedule_csv(out)
        expected = make_schedule(ScheduleFamily("arctan", center=6.7, scale=0.5), 50)
        np.testing.assert_array_equal(sched.values, expected.values)

    def test_bad_family_is_usage_error(self, tmp_path):
        code = run(["schedule", "--family", "cosine", "--center", "5",
                    "--out", str(tmp_path / "x.csv")])
        assert code == 1


class TestGenerateCommand:
    def test_outputs(self, tmp_path, bundle_file, schedule_file):
        out_dir = tmp_path / "gen"
        code = run(["generate", "--bundle", str(bundle_file), "--schedule",
                    str(schedule_file), "--out-dir", str(out_dir)])
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == [
            "background.pgm", "entity_1.pgm", "entity_2.pgm", "mask_1.pgm", "mask_2.pgm",
        ]

    def test_reruns_byte_identical(self, tmp_path, bundle_file, schedule_file):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            assert run(["generate", "--bundle", str(bundle_file), "--schedule",
                        str(schedule_file), "--out-dir", str(d)]) == 0
        for name in ("background.pgm", "entity_1.pgm", "mask_2.pgm"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_dump_latents(self, tmp_path, bundle_file, schedule_file):
        out_dir = tmp_path / "gen"
        code = run(["generate", "--bundle", str(bundle_file), "--schedule",
                    str(schedule_file), "--out-dir", str(out_dir), "--dump-latents"])
        assert code == 0
        latents = sorted(out_dir.glob("latent_e*_s*.f32t"))
        assert len(latents) == 2 * 10

    def test_dump_latents_match_library(self, tmp_path, schedule_file):
        # the repeated entity's latents come from the first one's memo slot
        bundle = PromptBundle("A cozy room.", ("A cat sits.", "A dog naps.", "A cat sits."))
        bundle_path = tmp_path / "repeat.json"
        bundle_path.write_text(bundle.to_json())
        out_dir = tmp_path / "gen"
        assert run(["generate", "--bundle", str(bundle_path), "--schedule", str(schedule_file),
                    "--out-dir", str(out_dir), "--dump-latents"]) == 0
        sched = read_schedule_csv(schedule_file)
        for j, entity in enumerate(bundle.entities, start=1):
            log: list = []
            alone = PromptBundle(bundle.background, (entity,))
            sample(init_pipeline(PipelineConfig()), alone, sched, latent_log=log)
            for i, latent in enumerate(log[0], start=1):
                dumped = load_f32t(out_dir / f"latent_e{j}_s{i:03d}.f32t")
                assert np.array_equal(dumped, latent.astype(np.float32))

    @pytest.mark.parametrize(
        "rows",
        [
            ["1,0.5", "2,0.4"],
            ["1,0", "3,0"],
            ["1,0"],
            ["1,0", "2,1.5"],
            ["1,0", "2,nan"],
        ],
        ids=["decreasing", "step_gap", "short", "above_one", "nan"],
    )
    def test_bad_schedule_exit_1(self, tmp_path, bundle_file, rows):
        sched = tmp_path / "bad.csv"
        sched.write_text("step,theta\n" + "\n".join(rows) + "\n")
        code = run(["generate", "--bundle", str(bundle_file), "--schedule", str(sched),
                    "--out-dir", str(tmp_path / "o"), "--steps", "2"])
        assert code == 1
        assert not (tmp_path / "o").exists()

    def test_missing_bundle_exit_1(self, tmp_path, schedule_file):
        code = run(["generate", "--bundle", str(tmp_path / "nope.json"),
                    "--schedule", str(schedule_file), "--out-dir", str(tmp_path / "o")])
        assert code == 1


class TestEvaluateCommand:
    def test_identical_images_zero_background_cost(self, tmp_path, bundle_file):
        from couplegen import pnm

        img = np.full((8, 8), 0.5)
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", img)
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", mask)
        out = tmp_path / "report.json"
        code = run(["evaluate",
                    "--image", str(tmp_path / "img_1.pgm"),
                    "--image", str(tmp_path / "img_2.pgm"),
                    "--mask", str(tmp_path / "mask_1.pgm"),
                    "--mask", str(tmp_path / "mask_2.pgm"),
                    "--bundle", str(bundle_file), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["f_bg"] == 0.0
        assert report["validity_ratio"] == 1.0 - 1.0 / 64.0

    def test_generate_then_evaluate_matches_library(
        self, tmp_path, bundle_file, schedule_file
    ):
        out_dir = tmp_path / "gen"
        assert run(["generate", "--bundle", str(bundle_file), "--schedule",
                    str(schedule_file), "--out-dir", str(out_dir)]) == 0
        report_path = tmp_path / "report.json"
        assert run(["evaluate",
                    "--image", str(out_dir / "entity_1.pgm"),
                    "--image", str(out_dir / "entity_2.pgm"),
                    "--mask", str(out_dir / "mask_1.pgm"),
                    "--mask", str(out_dir / "mask_2.pgm"),
                    "--bundle", str(bundle_file), "--out", str(report_path)]) == 0
        file_report = json.loads(report_path.read_text())

        bundle = PromptBundle.from_dict(json.loads(bundle_file.read_text()))
        sched = read_schedule_csv(schedule_file)
        pipeline = init_pipeline(PipelineConfig())
        direct = generate_and_score(pipeline, bundle, sched).to_dict()
        assert file_report == direct

    @pytest.mark.parametrize(
        "image",
        [
            b"P5\n8 8\n255\n" + b"\x80" * 60,
            b"P5\n0 0\n255\n",
            b"P5\n-1 -1\n255\n",
            b"P5\nx y\n255\n",
            b"P5\n8 8\n255\n" + b"\x80" * 64 + b"\n",
        ],
        ids=["truncated", "zero_dims", "negative_dims", "word_dims", "trailing_bytes"],
    )
    def test_bad_image_exit_1(self, tmp_path, bundle_file, image):
        from couplegen import pnm

        (tmp_path / "bad.pgm").write_bytes(image)
        pnm.write_pgm(tmp_path / "ok.pgm", np.full((8, 8), 0.5))
        for j in (1, 2):
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", np.zeros((8, 8), dtype=bool))
        code = run(["evaluate", "--image", str(tmp_path / "bad.pgm"),
                    "--image", str(tmp_path / "ok.pgm"),
                    "--mask", str(tmp_path / "mask_1.pgm"), "--mask", str(tmp_path / "mask_2.pgm"),
                    "--bundle", str(bundle_file), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert not (tmp_path / "r.json").exists()

    def test_mask_shape_mismatch_exit_1(self, tmp_path, bundle_file):
        from couplegen import pnm

        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.5))
        pnm.write_mask(tmp_path / "mask_1.pgm", np.zeros((4, 4), dtype=bool))
        pnm.write_mask(tmp_path / "mask_2.pgm", np.zeros((8, 8), dtype=bool))
        code = run(["evaluate", "--image", str(tmp_path / "img_1.pgm"),
                    "--image", str(tmp_path / "img_2.pgm"),
                    "--mask", str(tmp_path / "mask_1.pgm"), "--mask", str(tmp_path / "mask_2.pgm"),
                    "--bundle", str(bundle_file), "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_full_cover_mask_exit_1(self, tmp_path, bundle_file):
        from couplegen import pnm

        args = ["evaluate", "--bundle", str(bundle_file), "--out", str(tmp_path / "r.json")]
        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.25 * j))
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", np.ones((8, 8), dtype=bool))
            args += ["--image", str(tmp_path / f"img_{j}.pgm"),
                     "--mask", str(tmp_path / f"mask_{j}.pgm")]
        assert run(args) == 1
        assert not (tmp_path / "r.json").exists()

    def test_count_mismatch_exit_1(self, tmp_path, bundle_file):
        code = run(["evaluate", "--image", "a.pgm", "--mask", "m1.pgm",
                    "--mask", "m2.pgm", "--bundle", str(bundle_file),
                    "--out", str(tmp_path / "r.json")])
        assert code == 1


class TestDecomposeCommand:
    def test_fixture_mode(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text(
            "A cute Pikachu sits in a cozy room.\nA beautiful girl stands in a cozy room.\n"
        )
        fixture = tmp_path / "reply.txt"
        fixture.write_text(FIXTURE_REPLY)
        out = tmp_path / "bundle.json"
        code = run(["decompose", "--prompts", str(prompts), "--fixture",
                    str(fixture), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["background"] == "A cozy room bathed in warm sunshine."
        assert data["entities"] == ["A cute Pikachu sits.", "A beautiful girl stands."]

    def test_malformed_fixture_exit_2(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text("nothing parseable here\n")
        code = run(["decompose", "--prompts", str(prompts), "--fixture",
                    str(fixture), "--out", str(tmp_path / "b.json")])
        assert code == 2


    def test_entity_count_mismatch_exit_2(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\nthree\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: bg\nEntity 1: only\n")
        code = run(["decompose", "--prompts", str(prompts), "--fixture",
                    str(fixture), "--out", str(tmp_path / "b.json")])
        assert code == 2


class TestSweepCommand:
    def test_table(self, tmp_path, bundle_file):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "step01", "--centers", "2,5,9",
                    "--bundle", str(bundle_file), "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,center,scale,f_bg,f_ti_mean,f_c"
        assert len(lines) == 4
        assert all(ln.startswith("step01,") for ln in lines[1:])

    def test_noise_seeds_rows_match_library(self, tmp_path, bundle_file):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "step01", "--centers", "3,6,11",
                    "--bundle", str(bundle_file), "--noise-seeds", "2", "--out", str(out)])
        assert code == 0
        bundle = PromptBundle.from_dict(json.loads(bundle_file.read_text()))
        expected = [["family", "center", "scale", "f_bg", "f_ti_mean", "f_c"]]
        for center in (3.0, 6.0, 11.0):
            sched = make_schedule(ScheduleFamily("step01", center=center), 10)
            reports = [
                generate_and_score(init_pipeline(PipelineConfig()), bundle, sched, noise_seed=s)
                for s in (0, 1)
            ]
            expected.append(["step01", str(center), "1.0",
                             str(float(np.mean([r.f_bg for r in reports]))),
                             str(float(np.mean([np.mean(r.f_ti) for r in reports]))),
                             str(float(np.mean([r.f_c for r in reports])))])
        assert [line.split(",") for line in out.read_text().splitlines()] == expected

    def test_zero_noise_seeds_exit_1(self, tmp_path, bundle_file):
        code = run(["sweep", "--family", "step01", "--centers", "3", "--bundle",
                    str(bundle_file), "--noise-seeds", "0", "--out", str(tmp_path / "s.csv")])
        assert code == 1

    @pytest.mark.parametrize("centers", [",", "3..2", " , "], ids=["comma", "empty_range", "blanks"])
    def test_no_centers_exit_1(self, tmp_path, bundle_file, centers):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "step01", "--centers", centers,
                    "--bundle", str(bundle_file), "--out", str(out)])
        assert code == 1
        assert not out.exists()

    def test_range_syntax(self, tmp_path, bundle_file):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "step01", "--centers", "3..5",
                    "--bundle", str(bundle_file), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 4


class TestOptimizeCommand:
    def test_small_run(self, tmp_path, bundle_file):
        out_dir = tmp_path / "opt"
        code = run(["optimize", "--bundle", str(bundle_file), "--max-evals", "5",
                    "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "best_schedule.csv").exists()
        assert (out_dir / "trace.csv").exists()
        trace_files = sorted((out_dir / "trace").glob("eval_*.csv"))
        assert 1 <= len(trace_files) <= 5
        best = read_schedule_csv(out_dir / "best_schedule.csv")
        assert np.all(np.diff(best.values) >= 0)


class TestExitCodes:
    def test_help_exit_0(self):
        assert run(["--help"]) == 0

    def test_unknown_command_exit_1(self):
        assert run(["frobnicate"]) == 1

    def test_missing_required_flag_exit_1(self):
        assert run(["schedule", "--family", "arctan"]) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--max-evals", "0"],
             "--max-evals"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--step-size", "0"],
             "--step-size"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--d-model", "0"],
             "--d-model"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--steps", "0"], "--steps"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--grid-side", "0"], "--grid-side"),
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{out}", "--d-model", "0"], "--d-model"),
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{out}", "--steps", "0"], "--steps"),
            (["sweep", "--family", "sin", "--centers", "3", "--scale", "0", "--bundle",
              "{bundle}", "--out", "{out}"], "--scale"),
            (["sweep", "--family", "step01", "--centers", "a..b", "--bundle", "{bundle}",
              "--out", "{out}"], "--centers"),
            (["schedule", "--family", "arctan", "--center", "3", "--scale", "0", "--out",
              "{out}"], "--scale"),
            (["schedule", "--family", "sin", "--center", "3", "--scale", "0", "--out",
              "{out}"], "--scale"),
            (["schedule", "--family", "arctan", "--center", "3", "--steps", "0", "--out",
              "{out}"], "--steps"),
        ],
        ids=["max_evals", "step_size", "optimize_d_model", "generate_steps",
             "generate_grid_side", "sweep_d_model", "sweep_steps", "sweep_scale",
             "sweep_centers", "arctan_scale", "sin_scale", "schedule_steps"],
    )
    def test_bad_number_exit_1_names_flag(
        self, tmp_path, bundle_file, schedule_file, capsys, argv, flag
    ):
        out = tmp_path / "out"
        paths = {"bundle": bundle_file, "schedule": schedule_file, "out": out}
        capsys.readouterr()
        assert run([a.format(**paths) for a in argv]) == 1
        assert f"Invalid value for {flag}:" in capsys.readouterr().err
        assert not out.exists()
