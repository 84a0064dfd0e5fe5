"""Command-line workflow tests: schedule/generate/evaluate round trips,
deterministic re-runs, and exit codes."""

import ast
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import couplegen.cli
import couplegen.prompt_io
from couplegen.cli import run
from couplegen.isotonic import SearchConfig
from couplegen.metric import Lambdas, MetricReport
from couplegen.numerics import FieldError
from couplegen.pipeline import MAX_SIZES, PipelineConfig, generate_and_score, init_pipeline
from couplegen.pipeline import render, sample, score_images
from couplegen.pnm import read_mask, read_pgm
from couplegen.prompt_io import PromptBundle
from couplegen.schedule import ScheduleFamily, make_schedule, read_schedule_csv
from test_cli_fuzz import _tree

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
def weight_draws(monkeypatch):
    """The configs couplegen.cli.init_pipeline is called with, one per draw
    of a pipeline's weights."""
    draws = []
    monkeypatch.setattr(couplegen.cli, "init_pipeline",
                        lambda cfg: draws.append(cfg) or init_pipeline(cfg))
    return draws


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

    def test_default_steps_chain_into_generate(self, tmp_path, bundle_file):
        sched = tmp_path / "sched.csv"
        assert run(["schedule", "--family", "arctan", "--center", "5", "--out", str(sched)]) == 0
        assert len(read_schedule_csv(sched)) == PipelineConfig().steps
        assert run(["generate", "--bundle", str(bundle_file), "--schedule", str(sched),
                    "--out-dir", str(tmp_path / "o")]) == 0


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
        assert sorted(p.name for p in out_dir.glob("latent_*")) == [
            f"latent_e{j}_s{i:03d}.npy" for j in (1, 2) for i in range(1, 11)
        ]
        cfg = PipelineConfig()
        for path in out_dir.glob("latent_*"):
            latent = np.load(path, allow_pickle=False)
            assert latent.dtype == np.float32
            assert latent.shape == (cfg.grid_side**2, cfg.d_model)

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
                dumped = np.load(out_dir / f"latent_e{j}_s{i:03d}.npy", allow_pickle=False)
                assert dumped.dtype == np.float32
                assert np.array_equal(dumped, latent.astype(np.float32))

    @pytest.mark.parametrize("flags", [[], ["--separate-noise", "--dump-latents"]])
    def test_files_decode_to_render(self, tmp_path, bundle_file, schedule_file, flags):
        out_dir = tmp_path / "gen"
        assert run(["generate", "--bundle", str(bundle_file), "--schedule", str(schedule_file),
                    "--out-dir", str(out_dir), *flags]) == 0
        bundle = PromptBundle.from_dict(json.loads(bundle_file.read_text()))
        log: list = []
        images, background_image, masks = render(
            init_pipeline(PipelineConfig()), bundle, read_schedule_csv(schedule_file),
            shared_noise=not flags, latent_log=log if flags else None,
        )
        assert np.array_equal(read_pgm(out_dir / "background.pgm"), background_image)
        for j, (image, mask) in enumerate(zip(images, masks), start=1):
            assert np.array_equal(read_pgm(out_dir / f"entity_{j}.pgm"), image)
            assert np.array_equal(read_mask(out_dir / f"mask_{j}.pgm"), mask)
        assert len(list(out_dir.glob("latent_*"))) == sum(len(steps) for steps in log)
        assert not list(out_dir.glob("*.f32t"))
        for j, steps in enumerate(log, start=1):
            for i, latent in enumerate(steps, start=1):
                dumped = np.load(out_dir / f"latent_e{j}_s{i:03d}.npy", allow_pickle=False)
                assert dumped.dtype == np.float32 and dumped.shape == latent.shape
                assert np.array_equal(dumped, latent.astype(np.float32))

    def test_dumps_load_without_couplegen(self, tmp_path, bundle_file, schedule_file):
        # the dumps are plain .npy files: an interpreter that never imports
        # couplegen reads them with numpy alone
        out_dir = tmp_path / "gen"
        assert run(["generate", "--bundle", str(bundle_file), "--schedule", str(schedule_file),
                    "--out-dir", str(out_dir), "--dump-latents"]) == 0
        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "import numpy as np\n"
            "arrays = [np.load(p, allow_pickle=False) for p in Path(sys.argv[1]).glob('*.npy')]\n"
            "assert not any(m.split('.')[0] == 'couplegen' for m in sys.modules)\n"
            "print(len(arrays), sorted({(a.dtype.str, a.shape) for a in arrays}))\n"
        )
        done = _fresh_python(script, str(out_dir))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "20 [('<f4', (64, 16))]"

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
    def test_bad_schedule_exit_1(self, tmp_path, bundle_file, capsys, rows):
        sched = tmp_path / "bad.csv"
        sched.write_text("step,theta\n" + "\n".join(rows) + "\n")
        capsys.readouterr()
        code = run(["generate", "--bundle", str(bundle_file), "--schedule", str(sched),
                    "--out-dir", str(tmp_path / "o"), "--steps", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "Invalid value for --schedule:" in err and str(sched) in err
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

    @pytest.mark.parametrize("out_name", ["bundle.json", "r.json"], ids=["bundle", "report"])
    def test_full_cover_mask_keeps_existing_out(self, tmp_path, bundle_file, out_name):
        # --out names the bundle, or an earlier report: a failed run leaves it as it was
        from couplegen import pnm

        out = tmp_path / out_name
        if not out.exists():
            out.write_text('{"f_c": 0.5}\n')
        before = out.read_bytes()
        args = ["evaluate", "--bundle", str(bundle_file), "--out", str(out)]
        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.25 * j))
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", np.ones((8, 8), dtype=bool))
            args += ["--image", str(tmp_path / f"img_{j}.pgm"),
                     "--mask", str(tmp_path / f"mask_{j}.pgm")]
        assert run(args) == 1
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "flag, value",
        [("--lambda-bg", "-1"), ("--lambda-bg", "nan"), ("--lambda-ti", "inf"),
         ("--lambda-ti", "-inf"), ("--lambda-ti", "1e308")],
        ids=["negative", "nan", "inf", "minus_inf", "overflow"],
    )
    def test_bad_lambda_exit_1_names_flag(self, tmp_path, bundle_file, capsys, flag, value):
        # -1 once exited 2 as a runtime error; nan, inf and a finite weight
        # whose term overflows (1e308 * f_ti) exited 0 and wrote a non-finite f_c
        from couplegen import pnm

        out = tmp_path / "r.json"
        args = ["evaluate", "--bundle", str(bundle_file), "--out", str(out), flag, value]
        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.25 * j))
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", np.zeros((8, 8), dtype=bool))
            args += ["--image", str(tmp_path / f"img_{j}.pgm"),
                     "--mask", str(tmp_path / f"mask_{j}.pgm")]
        capsys.readouterr()
        assert run(args) == 1
        assert f"Invalid value for {flag}:" in capsys.readouterr().err
        assert not out.exists()

    def test_entity_count_mismatch_names_bundle(self, tmp_path, capsys):
        # once a bare "usage error: bundle has 3 entities but 2 images given"
        from couplegen import pnm

        bundle = tmp_path / "three.json"
        bundle.write_text('{"background": "a room", "entities": ["a cat", "a fox", "a dog"]}')
        args = ["evaluate", "--bundle", str(bundle), "--out", str(tmp_path / "r.json")]
        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.5))
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", np.zeros((8, 8), dtype=bool))
            args += ["--image", str(tmp_path / f"img_{j}.pgm"),
                     "--mask", str(tmp_path / f"mask_{j}.pgm")]
        capsys.readouterr()
        assert run(args) == 1
        assert capsys.readouterr().err == (
            f"usage error: Invalid value for --bundle: {bundle} has 3 entities but 2 images "
            "given\n"
        )
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

    def test_fixture_named_as_out(self, tmp_path):
        # the fixture is read in full before --out, the same file, is written
        prompts = tmp_path / "prompts.txt"
        prompts.write_text(
            "A cute Pikachu sits in a cozy room.\nA beautiful girl stands in a cozy room.\n"
        )
        fixture = tmp_path / "reply.txt"
        fixture.write_text(FIXTURE_REPLY)
        code = run(["decompose", "--prompts", str(prompts), "--fixture",
                    str(fixture), "--out", str(fixture)])
        assert code == 0
        assert json.loads(fixture.read_text())["entities"] == ["A cute Pikachu sits.",
                                                               "A beautiful girl stands."]

    def test_malformed_fixture_exit_2(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text("nothing parseable here\n")
        code = run(["decompose", "--prompts", str(prompts), "--fixture",
                    str(fixture), "--out", str(tmp_path / "b.json")])
        assert code == 2


    def test_prompts_not_utf8_exit_1(self, tmp_path, capsys):
        # --bundle and --schedule reject the same bytes with exit 1
        prompts = tmp_path / "prompts.txt"
        prompts.write_bytes(b"a\xff\xfe cat\nb dog\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text(FIXTURE_REPLY)
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert run(["decompose", "--prompts", str(prompts), "--fixture", str(fixture),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Invalid value for --prompts:" in err and str(prompts) in err
        assert not out.exists()

    def test_entity_count_mismatch_exit_2(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\nthree\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: bg\nEntity 1: only\n")
        code = run(["decompose", "--prompts", str(prompts), "--fixture",
                    str(fixture), "--out", str(tmp_path / "b.json")])
        assert code == 2

    def test_fixture_not_utf8_exit_1(self, tmp_path, capsys):
        # as --prompts does; a fixture that decodes but does not parse exits 2
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_bytes(b"\xff\xfe bad")
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert run(["decompose", "--prompts", str(prompts), "--fixture", str(fixture),
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"usage error: Invalid value for --fixture: {fixture}: "
            "'utf-8' codec can't decode byte 0xff in position 0"
        )
        assert not out.exists()

    @pytest.mark.parametrize("source", ["fixture", "endpoint"])
    @pytest.mark.parametrize("out", ["missing_dir/b.json", "a_dir"], ids=["missing_dir", "dir"])
    def test_bad_out_exit_1_before_the_reply(self, tmp_path, capsys, monkeypatch, source, out):
        # --out is opened before the fixture is read or the endpoint asked
        calls = []

        def refused(*args, **kwargs):
            calls.append(args)
            raise ConnectionError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", refused)
        monkeypatch.setenv("COUPLEGEN_LLM_URL", "http://127.0.0.1:9")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text("nothing parseable here\n")
        (tmp_path / "a_dir").mkdir()
        out = tmp_path / out
        argv = ["decompose", "--prompts", str(prompts), "--out", str(out)]
        capsys.readouterr()
        assert run(argv + (["--fixture", str(fixture)] if source == "fixture" else [])) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(out) in err
        assert calls == []

    @pytest.mark.parametrize(
        "reply", [None, "nothing parseable here", "Background: bg\nEntity 1: only\n"],
        ids=["refused", "malformed", "entity_count"],
    )
    def test_failed_request_leaves_no_file(self, tmp_path, monkeypatch, reply):
        calls = []

        def answer(*args, **kwargs):
            calls.append(args)
            if reply is None:
                raise ConnectionError("connection refused")
            return io.BytesIO(json.dumps({"choices": [{"message": {"content": reply}}]}).encode())

        monkeypatch.setattr("urllib.request.urlopen", answer)
        monkeypatch.setattr(couplegen.prompt_io, "RETRY_BACKOFF_S", 0.0)
        monkeypatch.setenv("COUPLEGEN_LLM_URL", "http://127.0.0.1:9")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\n")
        out = tmp_path / "b.json"
        assert run(["decompose", "--prompts", str(prompts), "--out", str(out)]) == 2
        assert len(calls) == (3 if reply is None else 1)
        assert not out.exists()


    @pytest.mark.parametrize("url", [None, "ftp://x"], ids=["unset", "not_http"])
    def test_no_usable_endpoint_exit_1(self, tmp_path, capsys, monkeypatch, url):
        if url is None:
            monkeypatch.delenv("COUPLEGEN_LLM_URL", raising=False)
        else:
            monkeypatch.setenv("COUPLEGEN_LLM_URL", url)
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("one\ntwo\n")
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert run(["decompose", "--prompts", str(prompts), "--out", str(out)]) == 1
        assert "Invalid value for --fixture:" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_prompts_exit_1(self, tmp_path, capsys):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("\n  \n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text(FIXTURE_REPLY)
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert run(["decompose", "--prompts", str(prompts), "--fixture", str(fixture),
                    "--out", str(out)]) == 1
        assert "Invalid value for --prompts:" in capsys.readouterr().err
        assert not out.exists()

    def test_one_prompt_with_fixture_exit_1(self, tmp_path, capsys):
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("A cute Pikachu sits in a cozy room.\n")
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: A cozy room.\nEntity 1: A cute Pikachu sits.\n")
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert run(["decompose", "--prompts", str(prompts), "--fixture", str(fixture),
                    "--out", str(out)]) == 1
        assert "Invalid value for --prompts:" in capsys.readouterr().err
        assert not out.exists()

    def test_one_prompt_with_endpoint_exit_1_before_any_request(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_request(*args, **kwargs):
            raise AssertionError("decompose sent a request")

        monkeypatch.setattr("urllib.request.urlopen", no_request)
        monkeypatch.setenv("COUPLEGEN_LLM_URL", "http://localhost:9")
        prompts = tmp_path / "prompts.txt"
        prompts.write_text("A cute Pikachu sits in a cozy room.\n")
        out = tmp_path / "b.json"
        capsys.readouterr()
        assert run(["decompose", "--prompts", str(prompts), "--out", str(out)]) == 1
        assert "Invalid value for --prompts:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("module", ["couplegen", "couplegen.cli"])
class TestModuleEntry:
    """python -m couplegen and python -m couplegen.cli run the CLI from a
    checkout, without an install."""

    def _run(self, module, *args):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        return subprocess.run([sys.executable, "-m", module, *args],
                              env=env, capture_output=True, text=True, timeout=60)

    def test_help_exit_0(self, module):
        done = self._run(module, "--help")
        assert done.returncode == 0
        assert "decompose" in done.stdout

    def test_schedule_without_options_exit_1(self, module):
        done = self._run(module, "schedule")
        assert done.returncode == 1
        assert "usage error" in done.stderr


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

    @pytest.mark.parametrize("centers", ["3,6,11", "11,3,6,3"], ids=["sorted", "unsorted_repeat"])
    def test_noise_seeds_rows_match_library(self, tmp_path, bundle_file, centers):
        # rows keep the given order, and a repeated center is evaluated again
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "step01", "--centers", centers,
                    "--bundle", str(bundle_file), "--noise-seeds", "2", "--out", str(out)])
        assert code == 0
        bundle = PromptBundle.from_dict(json.loads(bundle_file.read_text()))
        expected = [["family", "center", "scale", "f_bg", "f_ti_mean", "f_c"]]
        for center in (float(c) for c in centers.split(",")):
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

    def test_failing_center_exit_2_without_csv(self, tmp_path, bundle_file, capsys, monkeypatch):
        calls = []

        def failing(pipeline, bundle, sched, **kwargs):
            calls.append(sched)
            if len(calls) == 2:
                raise RuntimeError("pipeline exploded")
            return generate_and_score(pipeline, bundle, sched, **kwargs)

        monkeypatch.setattr(couplegen.cli, "generate_and_score", failing)
        out = tmp_path / "sweep.csv"
        capsys.readouterr()
        code = run(["sweep", "--family", "step01", "--centers", "3,6,9",
                    "--bundle", str(bundle_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "center=6.0" in err
        assert "pipeline exploded" in err
        assert len(calls) == 2
        assert not out.exists()

    def test_failing_center_keeps_bundle_named_as_out(self, tmp_path, bundle_file, monkeypatch):
        def failing(pipeline, bundle, sched, **kwargs):
            raise RuntimeError("pipeline exploded")

        monkeypatch.setattr(couplegen.cli, "generate_and_score", failing)
        before = bundle_file.read_bytes()
        code = run(["sweep", "--family", "step01", "--centers", "3",
                    "--bundle", str(bundle_file), "--out", str(bundle_file)])
        assert code == 2
        assert bundle_file.read_bytes() == before

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

    def test_centers_bound(self):
        assert couplegen.cli._parse_centers("1..1000") == [float(c) for c in range(1, 1001)]
        assert len(couplegen.cli._parse_centers(",".join(["3"] * 1000))) == 1000
        for spec in ("1..1001", ",".join(["3"] * 1001)):
            with pytest.raises(ValueError, match="names 1001 centers, at most 1000"):
                couplegen.cli._parse_centers(spec)
        # counted from its ends: len() of a range above sys.maxsize overflows
        with pytest.raises(ValueError, match="names 100000000000000000001 centers"):
            couplegen.cli._parse_centers("0..100000000000000000000")

    def test_huge_range_exit_1_at_once(self, tmp_path, bundle_file):
        # counted from its ends, so the range is never built; the child's
        # 1 GiB address space keeps a range that were built from taking
        # the machine's memory
        out = tmp_path / "sweep.csv"
        done = _cli_under_rlimit_as(1 << 30, "sweep", "--family", "step01", "--centers",
                                    "0..100000000000", "--bundle", bundle_file, "--out", out)
        assert done.returncode == 1
        assert "Invalid value for --centers:" in done.stderr
        assert "names 100000000001 centers, at most 1000" in done.stderr
        assert not out.exists()

    def test_bad_centers_at_flux_size_exit_1_before_the_weights(self, tmp_path, bundle_file):
        # --d-model 3072 is legal, and its weights take about 2 GiB, more
        # than the child's 1.5 GiB address space: the bad flag is named
        # before any weight is drawn
        pytest.importorskip("resource")
        out = tmp_path / "sweep.csv"
        done = _cli_under_rlimit_as(3 << 29, "sweep", "--family", "step01", "--centers", "0..-1",
                                    "--bundle", bundle_file, "--out", out, "--d-model", "3072")
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("usage error: Invalid value for --centers:")
        assert not out.exists()


def _cli_under_rlimit_as(limit: int, *args) -> subprocess.CompletedProcess:
    """couplegen args in a child whose address space is limited to limit
    bytes, with OpenBLAS on one thread, so a large allocation fails there and
    never in the test process."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from couplegen.cli import run\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, timeout=60,
    )


def test_modules_import_only_used_or_perfbench_wrapped_names(monkeypatch):
    # a name a package module imports and never uses is dead, unless the
    # module is cli.py and perfbench/tracer.py wraps the name there
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    wrapped = {
        attr for targets in tracer.WRAPPED.values() for owner, attr in targets
        if owner is couplegen.cli
    }
    unused = {}
    for path in sorted(Path(couplegen.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead = imported - used - (wrapped if path.name == "cli.py" else set())
        if dead:
            unused[path.name] = sorted(dead)
    assert unused == {}


def _fresh_python(code: str, *args) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize(
    "module", ["concurrent.futures", "urllib.request", "http.client", "ssl", "email"]
)
def test_cli_import_leaves_module_unloaded(module):
    # the sampler imports concurrent.futures on its first call that submits a
    # loop to its pool, and decompose the HTTP stack when it sends a request;
    # loading them at start-up costs every command time and memory
    done = _fresh_python(f"import sys, couplegen.cli; print({module!r} in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_default_generate_starts_no_pool(tmp_path, schedule_file):
    # a default-config bundle of 2 entities is one chunk, which the calling
    # thread renders alone, so the pool and concurrent.futures never load
    bundle = tmp_path / "bundle.json"
    bundle.write_text('{"background": "a quiet room", "entities": ["a cat", "a dog"]}')
    script = (
        "import sys, threading\n"
        "from couplegen.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(code, 'concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    done = _fresh_python(script, "generate", "--bundle", str(bundle), "--schedule",
                         str(schedule_file), "--out-dir", str(tmp_path / "gen"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False 1"


def test_decompose_fixture_leaves_http_stack_unloaded(tmp_path):
    prompts = tmp_path / "prompts.txt"
    prompts.write_text(
        "A cute Pikachu sits in a cozy room.\nA beautiful girl stands in a cozy room.\n"
    )
    fixture = tmp_path / "reply.txt"
    fixture.write_text(FIXTURE_REPLY)
    out = tmp_path / "bundle.json"
    script = (
        "import sys\n"
        "from couplegen.cli import run\n"
        "code = run(sys.argv[1:])\n"
        "print(code, 'urllib.request' in sys.modules)\n"
    )
    done = _fresh_python(script, "decompose", "--prompts", str(prompts),
                         "--fixture", str(fixture), "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 False"
    assert json.loads(out.read_text())["entities"] == ["A cute Pikachu sits.",
                                                        "A beautiful girl stands."]


def test_commands_load_no_numpy_submodule(tmp_path):
    # under numpy 2.x, np.unique imports numpy.ma on its first call; under
    # numpy 1.x, import numpy already loads it
    bundle, sched = str(tmp_path / "bundle.json"), str(tmp_path / "s.csv")
    Path(bundle).write_text('{"background": "a quiet room", "entities": ["a cat", "a dog"]}')
    tiny = ["--d-model", "4", "--grid-side", "3", "--steps", "2", "--double-blocks", "1",
            "--single-blocks", "1"]
    pairs = [a for j in (1, 2) for a in ("--image", str(tmp_path / f"gen/entity_{j}.pgm"),
                                         "--mask", str(tmp_path / f"gen/mask_{j}.pgm"))]
    argvs = [
        ["schedule", "--family", "arctan", "--center", "1", "--steps", "2", "--out", sched],
        ["generate", "--bundle", bundle, "--schedule", sched, "--out-dir", str(tmp_path / "gen"),
         "--dump-latents", *tiny],
        ["evaluate", "--bundle", bundle, "--out", str(tmp_path / "r.json"), *pairs],
        ["optimize", "--bundle", bundle, "--max-evals", "2", "--out-dir", str(tmp_path / "opt"),
         *tiny],
        ["sweep", "--family", "step01", "--centers", "1", "--bundle", bundle,
         "--out", str(tmp_path / "sweep.csv"), *tiny],
    ]
    script = (
        "import json, sys\n"
        "import numpy\n"
        "loaded = set(sys.modules)\n"
        "from couplegen.cli import run\n"
        "codes = [run(argv) for argv in json.loads(sys.argv[1])]\n"
        "new = set(sys.modules) - loaded\n"
        "print(codes, sorted(m for m in new if m.split('.')[0] == 'numpy'))\n"
    )
    done = _fresh_python(script, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def _cli_in_locale(utf8: bool, *args) -> subprocess.CompletedProcess:
    """python -m couplegen under the C locale with locale coercion off: in UTF-8
    mode, or with UTF-8 mode off, where the locale encoding is ASCII."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}
    return subprocess.run(
        [sys.executable, "-X", f"utf8={int(utf8)}", "-m", "couplegen", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )


class TestInputTextIsUtf8:
    """Bundles, prompt files and fixtures are read as UTF-8 whatever the locale."""

    def test_generate_bundle_under_ascii_locale(self, tmp_path, schedule_file):
        bundle = tmp_path / "cafe.json"
        bundle.write_bytes(
            '{"background": "un café ancien", "entities": ["a cat", "a dog"]}\n'.encode()
        )
        outputs = []
        for utf8 in (True, False):
            out = tmp_path / f"utf8_{utf8}"
            done = _cli_in_locale(utf8, "generate", "--bundle", str(bundle),
                                  "--schedule", str(schedule_file), "--out-dir", str(out))
            assert done.returncode == 0, done.stderr
            outputs.append(_outputs(out))
        assert outputs[0] == outputs[1] and len(outputs[0]) == 5

    def test_decompose_prompts_and_fixture_under_ascii_locale(self, tmp_path):
        prompts = tmp_path / "prompts.txt"
        prompts.write_bytes("un chat dans un café\nun chien dans un café\n".encode())
        fixture = tmp_path / "reply.txt"
        fixture.write_bytes(
            "Background: un café ancien\nEntity 1: un chat\nEntity 2: un chien\n".encode()
        )
        bundles = []
        for utf8 in (True, False):
            out = tmp_path / f"bundle_{utf8}.json"
            done = _cli_in_locale(utf8, "decompose", "--prompts", str(prompts),
                                  "--fixture", str(fixture), "--out", str(out))
            assert done.returncode == 0, done.stderr
            bundles.append(json.loads(out.read_text(encoding="utf-8")))
        assert bundles[0] == bundles[1]
        assert bundles[1]["background"] == "un café ancien"


class TestOutputTextIsUtf8:
    def test_optimize_trace_under_ascii_locale(self, tmp_path, bundle_file):
        # trace.csv names the schedule files under --out-dir
        traces = []
        for utf8 in (True, False):
            out = tmp_path / f"opt_café_{utf8}"
            done = _cli_in_locale(utf8, "optimize", "--bundle", str(bundle_file),
                                  "--max-evals", "2", "--out-dir", str(out))
            assert done.returncode == 0, done.stderr
            traces.append((out / "trace.csv").read_bytes())
            assert f"{out}/trace/eval_00002.csv".encode() in traces[-1]
        assert traces[0] == traces[1].replace(b"_False", b"_True")


class TestOptimizeCommand:
    def test_small_run(self, tmp_path, bundle_file):
        out_dir = tmp_path / "opt"
        code = run(["optimize", "--bundle", str(bundle_file), "--max-evals", "5",
                    "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "best_schedule.csv").exists()
        trace_files = sorted((out_dir / "trace").glob("eval_*.csv"))
        assert 1 <= len(trace_files) <= 5
        best = read_schedule_csv(out_dir / "best_schedule.csv")
        assert np.all(np.diff(best.values) >= 0)
        # trace.csv: one row per evaluation, numbered from 1, with the value
        # of the schedule file it names
        with open(out_dir / "trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["eval_index", "value", "theta_csv_path"]
        assert [row[0] for row in rows[1:]] == [str(k) for k in range(1, len(trace_files) + 1)]
        assert [row[2] for row in rows[1:]] == [str(path) for path in trace_files]
        pipeline = init_pipeline(PipelineConfig())
        bundle = PromptBundle.from_dict(json.loads(bundle_file.read_text()))
        assert [row[1] for row in rows[1:]] == [
            f"{generate_and_score(pipeline, bundle, read_schedule_csv(path)).f_c:.15g}"
            for path in trace_files
        ]


# evaluate's --image and --mask flags for the 8x8 files under {dir}
_PAIRS = [a for j in (1, 2) for a in ("--image", f"{{dir}}/img_{j}.pgm",
                                      "--mask", f"{{dir}}/mask_{j}.pgm")]


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
            # below the step at which the search stops, so it would never move
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--step-size",
              "0.00005"], "--step-size"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--step-size", "inf"],
             "--step-size"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--step-size", "1e308"],
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
            # one step over the bound, rejected before any step is computed
            (["schedule", "--family", "arctan", "--center", "3", "--steps", "1001", "--out",
              "{out}"], "--steps"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--steps", "1001"], "--steps"),
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{out}", "--steps", "1001"], "--steps"),
            (["sweep", "--family", "step01", "--centers", "3", "--scale", "nan", "--bundle",
              "{bundle}", "--out", "{out}"], "--scale"),
            (["schedule", "--family", "step01", "--center", "3", "--scale", "inf", "--out",
              "{out}"], "--scale"),
            (["sweep", "--family", "step01", "--centers", "1..1001", "--bundle", "{bundle}",
              "--out", "{out}"], "--centers"),
            # sizes far past FLUX.1's, rejected before anything is allocated
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--grid-side", "2000000000"], "--grid-side"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--d-model", "5000000000"], "--d-model"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--text-tokens", "5000000000000000000"], "--text-tokens"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--double-blocks",
              "5000000000"], "--double-blocks"),
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{out}", "--single-blocks", "5000000000"], "--single-blocks"),
            # rejected before the first seed is rendered
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{out}", "--noise-seeds", "1000000000000"], "--noise-seeds"),
        ],
        ids=["max_evals", "step_size", "step_size_below_min", "step_size_inf", "step_size_wide",
             "optimize_d_model", "generate_steps",
             "generate_grid_side", "sweep_d_model", "sweep_steps", "sweep_scale",
             "sweep_centers", "arctan_scale", "sin_scale", "schedule_steps",
             "schedule_steps_bound", "generate_steps_bound", "sweep_steps_bound",
             "sweep_step01_scale_nan", "schedule_step01_scale_inf", "sweep_centers_bound",
             "generate_grid_side_bound", "generate_d_model_bound", "generate_text_tokens_bound",
             "optimize_double_blocks_bound", "sweep_single_blocks_bound",
             "sweep_noise_seeds_bound"],
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

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{file}"], "{file}"),
            (["optimize", "--bundle", "{bundle}", "--max-evals", "2", "--out-dir", "{file}"],
             "{file}"),
            (["schedule", "--family", "arctan", "--center", "3", "--out", "{dir}"], "{dir}"),
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{dir}"], "{dir}"),
            (["evaluate", "--image", "{img}", "--image", "{img}", "--mask", "{mask}", "--mask",
              "{mask}", "--bundle", "{bundle}", "--out", "{dir}"], "{dir}"),
            (["generate", "--bundle", "{dir}", "--schedule", "{schedule}", "--out-dir",
              "{out}"], "{dir}"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{dir}", "--out-dir",
              "{out}"], "{dir}"),
            (["evaluate", "--image", "{dir}", "--image", "{img}", "--mask", "{mask}", "--mask",
              "{mask}", "--bundle", "{bundle}", "--out", "{out}"], "{dir}"),
            # any OSError that names a path; these four once exited 2
            (["schedule", "--family", "arctan", "--center", "5", "--out", "{long}.csv"],
             "{long}.csv"),
            (["generate", "--bundle", "{long}.json", "--schedule", "{schedule}", "--out-dir",
              "{out}"], "{long}.json"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{long}"], "{long}"),
            (["schedule", "--family", "arctan", "--center", "5", "--out", "{loop}/s.csv"],
             "{loop}/s.csv"),
            (["evaluate", "--image", "{img}", "--image", "{img}", "--mask", "{mask}", "--mask",
              "{mask}", "--bundle", "{bundle}", "--out", "{out}/r.json"], "{out}/r.json"),
            # the missing parent that the failed call made is removed again
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}/" + "a" * 256], "{out}/" + "a" * 256),
            (["optimize", "--bundle", "{bundle}", "--max-evals", "2", "--out-dir",
              "{out}/" + "a" * 256], "{out}/" + "a" * 256),
        ],
        ids=["generate_out_dir_file", "optimize_out_dir_file", "schedule_out_dir",
             "sweep_out_dir", "evaluate_out_dir", "bundle_dir", "schedule_dir", "image_dir",
             "schedule_out_too_long", "bundle_too_long", "out_dir_too_long", "symlink_loop",
             "evaluate_out_missing_dir", "generate_out_dir_new_parent",
             "optimize_out_dir_new_parent"],
    )
    def test_wrong_path_kind_exit_1_names_path(
        self, tmp_path, bundle_file, schedule_file, capsys, monkeypatch, argv, bad
    ):
        from couplegen import pnm

        # the path is checked before anything renders or is scored
        renders = []
        monkeypatch.setattr(couplegen.cli, "generate_and_score",
                            lambda *a, **k: renders.append(a) or generate_and_score(*a, **k))
        monkeypatch.setattr(couplegen.cli, "score_images",
                            lambda *a, **k: renders.append(a) or score_images(*a, **k))
        mask = np.zeros((8, 8), dtype=bool)
        mask[0, 0] = True
        paths = {"bundle": bundle_file, "schedule": schedule_file, "out": tmp_path / "out",
                 "file": tmp_path / "a_file", "dir": tmp_path / "a_dir",
                 "img": tmp_path / "img.pgm", "mask": tmp_path / "mask.pgm",
                 "long": tmp_path / ("a" * 300), "loop": tmp_path / "loop"}
        paths["file"].write_text("x")
        paths["dir"].mkdir()
        paths["loop"].symlink_to("loop")
        pnm.write_pgm(paths["img"], np.full((8, 8), 0.5))
        pnm.write_mask(paths["mask"], mask)
        capsys.readouterr()
        assert run([a.format(**paths) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and bad.format(**paths) in err
        assert not paths["out"].exists()
        assert renders == []

    def test_failed_out_dir_keeps_a_parent_made_meanwhile(self, tmp_path, monkeypatch):
        # another process makes new/ after the CLI found it missing: the CLI
        # uses it and, when it fails later, leaves it
        parent = tmp_path / "new"
        lexists = os.path.lexists
        monkeypatch.setattr(couplegen.cli.os.path, "lexists",
                            lambda p: False if Path(p) == parent else lexists(p))
        parent.mkdir()
        long = parent / ("a" * 256)
        with pytest.raises(OSError) as raised:
            with couplegen.cli._outputs(out_dir=long):
                pass
        assert raised.value.filename == str(long)
        assert parent.is_dir()

    def test_failed_cleanup_keeps_the_first_error(self, tmp_path, monkeypatch):
        # new/ fills up before the CLI removes it again: the error that stopped
        # the command is reported, not the cleanup's "Directory not empty"
        parent, long = tmp_path / "new", tmp_path / "new" / ("a" * 256)
        mkdir = Path.mkdir

        def crowded(self, *args, **kwargs):
            if self == long:
                (parent / "other").write_text("x")
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", crowded)
        with pytest.raises(OSError) as raised:
            with couplegen.cli._outputs(out_dir=long):
                pass
        assert raised.value.filename == str(long)
        assert "File name too long" in str(raised.value)

    def test_generate_bad_entity_path_writes_nothing(
        self, tmp_path, bundle_file, schedule_file, capsys
    ):
        # entity_2.pgm is claimed before background.pgm, entity_1.pgm and
        # mask_1.pgm are written, so none of them is left behind
        out = tmp_path / "g"
        (out / "entity_2.pgm").mkdir(parents=True)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run(["generate", "--bundle", str(bundle_file), "--schedule", str(schedule_file),
                    "--out-dir", str(out)]) == 1
        assert str(out / "entity_2.pgm") in capsys.readouterr().err
        assert _tree(tmp_path) == before

    @pytest.mark.parametrize(
        "name, flags",
        [("entity_2.pgm", []), ("latent_e1_s001.npy", ["--dump-latents"])],
        ids=["entity", "latent"],
    )
    def test_generate_bad_output_path_costs_no_render(
        self, tmp_path, bundle_file, schedule_file, capsys, monkeypatch, weight_draws, name,
        flags
    ):
        # every file name is known from the bundle, --steps and --dump-latents,
        # so each is claimed before the weights are drawn
        renders = []
        monkeypatch.setattr(couplegen.cli, "render",
                            lambda *a, **k: renders.append(a) or render(*a, **k))
        out = tmp_path / "g"
        (out / name).mkdir(parents=True)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run(["generate", "--bundle", str(bundle_file), "--schedule", str(schedule_file),
                    "--out-dir", str(out), *flags]) == 1
        assert str(out / name) in capsys.readouterr().err
        assert _tree(tmp_path) == before
        assert renders == []
        assert weight_draws == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["schedule", "--family", "sin", "--center", "nan", "--scale", "0", "--out",
              "{out}"], "--scale"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--max-evals", "0",
              "--step-size", "0"], "--max-evals"),
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--d-model", "0", "--steps", "0"], "--d-model"),
            (["evaluate", "--bundle", "{bundle}", "--out", "{out}", "--lambda-bg", "-1",
              "--lambda-ti", "nan", *_PAIRS], "--lambda-bg"),
            (["sweep", "--family", "sin", "--centers", "3,nan", "--scale", "0", "--bundle",
              "{bundle}", "--out", "{out}"], "--scale"),
            # center is the field ScheduleFamily names; sweep has no --center
            (["sweep", "--family", "arctan", "--centers", "3,inf", "--bundle", "{bundle}",
              "--out", "{out}"], "--centers"),
            # a DegenerateMaskError names no field
            (["evaluate", "--bundle", "{bundle}", "--out", "{out}",
              *[a.replace("mask_", "cover_") for a in _PAIRS]], "--mask"),
        ],
        ids=["schedule", "optimize", "generate", "evaluate_lambdas", "sweep_scale",
             "sweep_centers", "evaluate_full_cover"],
    )
    def test_first_of_two_bad_values_names_flag(
        self, tmp_path, bundle_file, schedule_file, capsys, argv, flag
    ):
        from couplegen import pnm

        for j in (1, 2):
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.25 * j))
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", np.zeros((8, 8), dtype=bool))
            pnm.write_mask(tmp_path / f"cover_{j}.pgm", np.ones((8, 8), dtype=bool))
        out = tmp_path / "out"
        paths = {"bundle": bundle_file, "schedule": schedule_file, "out": out, "dir": tmp_path}
        capsys.readouterr()
        assert run([a.format(**paths) for a in argv]) == 1
        assert capsys.readouterr().err.startswith(f"usage error: Invalid value for {flag}:")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["trace.csv", "best_schedule.csv"])
    def test_optimize_bad_output_path_costs_no_search(
        self, tmp_path, bundle_file, capsys, monkeypatch, weight_draws, name
    ):
        renders = []
        monkeypatch.setattr(couplegen.cli, "generate_and_score",
                            lambda *a, **k: renders.append(a) or generate_and_score(*a, **k))
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run(["optimize", "--bundle", str(bundle_file), "--max-evals", "3",
                    "--out-dir", str(out)]) == 1
        assert str(out / name) in capsys.readouterr().err
        assert _tree(tmp_path) == before
        assert renders == []
        assert weight_draws == []

    @pytest.mark.parametrize("kind", ["directory", "dangling_symlink"])
    def test_sweep_bad_output_path_costs_no_sweep(
        self, tmp_path, capsys, monkeypatch, weight_draws, kind
    ):
        # the truncation warning is printed once the work starts, so not here
        bundle_file = tmp_path / "long.json"
        bundle_file.write_text(PromptBundle(LONG_BACKGROUND, ("a fox", "a dog")).to_json())
        renders = []
        monkeypatch.setattr(couplegen.cli, "generate_and_score",
                            lambda *a, **k: renders.append(a) or generate_and_score(*a, **k))
        out = tmp_path / "sweep.csv"
        if kind == "directory":
            out.mkdir()
        else:
            out.symlink_to("missing/target.csv")
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run(["sweep", "--family", "step01", "--centers", "3,6", "--bundle",
                    str(bundle_file), "--out", str(out)]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("usage error:") and str(out) in err
        assert _tree(tmp_path) == before
        assert renders == []
        assert weight_draws == []

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--step-size", "0"],
             "--step-size"),
            (["optimize", "--bundle", "{bundle}", "--out-dir", "{out}", "--max-evals", "0"],
             "--max-evals"),
            (["sweep", "--family", "step01", "--centers", "0..-1", "--bundle", "{bundle}",
              "--out", "{out}"], "--centers"),
            (["sweep", "--family", "step01", "--centers", "3", "--scale", "nan", "--bundle",
              "{bundle}", "--out", "{out}"], "--scale"),
            # a 10-step schedule for 9 steps
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{out}", "--steps", "9"], "--schedule"),
        ],
        ids=["optimize_step_size", "optimize_max_evals", "sweep_centers", "sweep_scale",
             "generate_schedule_length"],
    )
    def test_rejected_flag_draws_no_weights(
        self, tmp_path, schedule_file, capsys, weight_draws, argv, flag
    ):
        # every flag is checked before the weights are drawn, so a bad one
        # costs no init_pipeline, and no truncation warning is printed
        bundle_file = tmp_path / "long.json"
        bundle_file.write_text(PromptBundle(LONG_BACKGROUND, ("a fox", "a dog")).to_json())
        out = tmp_path / "out"
        paths = {"bundle": bundle_file, "schedule": schedule_file, "out": out}
        capsys.readouterr()
        assert run([a.format(**paths) for a in argv]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith(f"usage error: Invalid value for {flag}:")
        assert not out.exists()
        assert weight_draws == []

    @pytest.mark.parametrize("cover", [False, True], ids=["scores", "full_cover_mask"])
    def test_dangling_symlink_out_exit_1(self, tmp_path, bundle_file, capsys, cover):
        # an --out that is a dangling symlink is rejected before the work, and
        # its target is not created, whether or not the scoring would succeed
        from couplegen import pnm

        out = tmp_path / "dangling.json"
        out.symlink_to("target.json")
        args = ["evaluate", "--bundle", str(bundle_file), "--out", str(out)]
        for j in (1, 2):
            mask = np.full((8, 8), cover)
            mask[0, 0] = True
            pnm.write_pgm(tmp_path / f"img_{j}.pgm", np.full((8, 8), 0.25 * j))
            pnm.write_mask(tmp_path / f"mask_{j}.pgm", mask)
            args += ["--image", str(tmp_path / f"img_{j}.pgm"),
                     "--mask", str(tmp_path / f"mask_{j}.pgm")]
        before = _tree(tmp_path)
        capsys.readouterr()
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(out) in err
        assert _tree(tmp_path) == before

    @pytest.mark.skipif(not hasattr(os, "geteuid") or os.geteuid() == 0,
                        reason="root is not denied by a directory's mode bits")
    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["generate", "--bundle", "{bundle}", "--schedule", "{schedule}", "--out-dir",
              "{ro}/new"], "{ro}/new"),
            (["sweep", "--family", "step01", "--centers", "3", "--bundle", "{bundle}",
              "--out", "{ro}/s.csv"], "{ro}/s.csv"),
        ],
        ids=["generate", "sweep"],
    )
    def test_read_only_parent_exit_1(self, tmp_path, bundle_file, schedule_file, capsys,
                                     argv, bad):
        paths = {"bundle": bundle_file, "schedule": schedule_file, "ro": tmp_path / "ro"}
        paths["ro"].mkdir()
        paths["ro"].chmod(0o555)
        try:
            before = _tree(paths["ro"])
            capsys.readouterr()
            assert run([a.format(**paths) for a in argv]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and bad.format(**paths) in err
            assert _tree(paths["ro"]) == before
        finally:
            paths["ro"].chmod(0o755)

    def test_os_error_without_path_exit_2(self, tmp_path, monkeypatch, capsys):
        # a failed write names no path, so it stays a runtime error
        def full_disk(path, sched):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(couplegen.cli, "write_schedule_csv", full_disk)
        argv = ["schedule", "--family", "arctan", "--center", "5", "--out", str(tmp_path / "s.csv")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("runtime error: [Errno 28] No space left")


BAD_BUNDLES = {
    "not_json": "{background: a room",
    "top_level_list": '["a room", ["a cat", "a dog"]]',
    "no_background": '{"entities": ["a cat", "a dog"]}',
    "no_entities": '{"background": "a room"}',
    "empty_background": '{"background": "", "entities": ["a cat", "a dog"]}',
    "numeric_background": '{"background": 3, "entities": ["a cat", "a dog"]}',
    "string_entities": '{"background": "a room", "entities": "ab"}',
    "numeric_entities": '{"background": "a room", "entities": [1, 2]}',
    "empty_entity": '{"background": "a room", "entities": ["a cat", ""]}',
    "blank_background": '{"background": "   ", "entities": ["a cat", "a dog"]}',
    "blank_entity": '{"background": "a room", "entities": ["a cat", " \\t\\n"]}',
    "no_entity": '{"background": "a room", "entities": []}',
    # json.loads raises RecursionError, not ValueError, on this
    "deeply_nested": "[" * 200000,
    # JSON escapes of lone surrogates load as str, which UTF-8 cannot encode
    "surrogate_background": '{"background": "a \\ud800room", "entities": ["a cat", "a dog"]}',
    "surrogate_entity": '{"background": "a room", "entities": ["a cat", "a \\udc80dog"]}',
}
ONE_ENTITY = '{"background": "a room", "entities": ["a cat"]}'


def _bundle_argv(command: str, bundle, schedule, out) -> list:
    return {
        "generate": ["generate", "--bundle", bundle, "--schedule", schedule, "--out-dir", out],
        "evaluate": ["evaluate", "--image", "x.pgm", "--mask", "m.pgm", "--bundle", bundle,
                     "--out", out],
        "optimize": ["optimize", "--bundle", bundle, "--max-evals", "2", "--out-dir", out],
        "sweep": ["sweep", "--family", "step01", "--centers", "3", "--bundle", bundle,
                  "--out", out],
    }[command]


class TestBundleEdge:
    @pytest.mark.parametrize("command", ["generate", "evaluate", "optimize", "sweep"])
    @pytest.mark.parametrize("text", BAD_BUNDLES.values(), ids=BAD_BUNDLES.keys())
    def test_bad_bundle_exit_1(self, tmp_path, schedule_file, capsys, command, text):
        bundle = tmp_path / "bad.json"
        bundle.write_text(text)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(_bundle_argv(command, str(bundle), str(schedule_file), str(out))) == 1
        assert f"Invalid value for --bundle: {bundle}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["evaluate", "optimize", "sweep"])
    def test_scoring_one_entity_exit_1(self, tmp_path, schedule_file, capsys, command):
        bundle = tmp_path / "one.json"
        bundle.write_text(ONE_ENTITY)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(_bundle_argv(command, str(bundle), str(schedule_file), str(out))) == 1
        assert "at least 2 entity prompts" in capsys.readouterr().err
        assert not out.exists()

    def test_generate_one_entity_exit_0(self, tmp_path, schedule_file):
        bundle = tmp_path / "one.json"
        bundle.write_text(ONE_ENTITY)
        out = tmp_path / "out"
        assert run(_bundle_argv("generate", str(bundle), str(schedule_file), str(out))) == 0
        assert (out / "entity_1.pgm").exists()


LONG_BACKGROUND = "an old stone library in autumn busy with muted colors"  # 10 tokens


def _outputs(out) -> dict:
    """Name -> bytes of every file under out (or of out itself), then removes them."""
    if out.is_file():
        files = {out.name: out.read_bytes()}
        out.unlink()
        return files
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    shutil.rmtree(out)
    return files


class TestTruncationWarning:
    @pytest.mark.parametrize("command", ["generate", "optimize", "sweep"])
    def test_warns_and_leaves_outputs_unchanged(self, tmp_path, schedule_file, capsys, command):
        # the bundle cut to the 8 tokens embed_prompt keeps renders the same
        runs = []
        for background in (LONG_BACKGROUND, " ".join(LONG_BACKGROUND.split()[:8])):
            bundle = tmp_path / "bundle.json"
            bundle.write_text(PromptBundle(background, ("a small red fox", "an old robot")).to_json())
            out = tmp_path / "out"
            capsys.readouterr()
            assert run(_bundle_argv(command, str(bundle), str(schedule_file), str(out))) == 0
            runs.append((capsys.readouterr(), _outputs(out)))
        (long_io, long_files), (cut_io, cut_files) = runs
        assert long_io.out == cut_io.out
        assert long_files == cut_files
        assert long_io.err.splitlines() == [
            f"warning: --text-tokens 8 drops 'muted colors' from '{LONG_BACKGROUND}'"
        ]
        assert cut_io.err == ""

    def test_one_warning_per_long_prompt(self, tmp_path, schedule_file, capsys):
        entity = "a tall girl stands on a wooden floor by the window"  # 11 tokens
        bundle = tmp_path / "bundle.json"
        bundle.write_text(PromptBundle(LONG_BACKGROUND, ("a fox", entity, entity)).to_json())
        capsys.readouterr()
        assert run(["generate", "--bundle", str(bundle), "--schedule", str(schedule_file),
                    "--out-dir", str(tmp_path / "out"), "--text-tokens", "9"]) == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: --text-tokens 9 drops 'colors' from '{LONG_BACKGROUND}'",
            f"warning: --text-tokens 9 drops 'the window' from '{entity}'",
            f"warning: --text-tokens 9 drops 'the window' from '{entity}'",
        ]


_INIT = make_schedule(ScheduleFamily("step01", 1.0), 2)
# (build, the class whose fields the error names, field, today's message):
# every rejection of a config the CLI builds from its flags
CONFIG_REJECTIONS = [
    *[(partial(PipelineConfig, **{name: 0}), PipelineConfig, name,
       f"{name} must be >= 1, got 0") for name in MAX_SIZES],
    *[(partial(PipelineConfig, **{name: most + 1}), PipelineConfig, name,
       f"{name} must be <= {most}, got {most + 1}") for name, most in MAX_SIZES.items()],
    (partial(Lambdas, -1.0), Lambdas, "lambda_bg",
     "lambda_bg must be finite and nonnegative, got -1.0"),
    (partial(Lambdas, float("nan")), Lambdas, "lambda_bg",
     "lambda_bg must be finite and nonnegative, got nan"),
    (partial(Lambdas, 1.0, float("inf")), Lambdas, "lambda_ti",
     "lambda_ti must be finite and nonnegative, got inf"),
    (partial(Lambdas, float("-inf"), float("-inf")), Lambdas, "lambda_bg",
     "lambda_bg must be finite and nonnegative, got -inf"),
    (partial(SearchConfig, 0, _INIT), SearchConfig, "max_evals", "max_evals must be >= 1, got 0"),
    (partial(SearchConfig, 1, _INIT, 0.00005), SearchConfig, "step",
     "step must be in [0.0001, 1], got 5e-05"),
    (partial(SearchConfig, 1, _INIT, float("nan")), SearchConfig, "step",
     "step must be in [0.0001, 1], got nan"),
    (partial(SearchConfig, 0, _INIT, 2.0), SearchConfig, "max_evals",
     "max_evals must be >= 1, got 0"),
    (partial(ScheduleFamily, "cosine", 1.0), ScheduleFamily, "kind",
     "unknown family kind 'cosine'"),
    (partial(ScheduleFamily, "arctan", float("inf")), ScheduleFamily, "center",
     "center must be finite, got inf"),
    (partial(ScheduleFamily, "arctan", 1.0, 0.0), ScheduleFamily, "scale",
     "arctan requires a positive finite scale, got 0.0"),
    (partial(ScheduleFamily, "step01", 1.0, float("nan")), ScheduleFamily, "scale",
     "scale must be finite, got nan"),
    # scale is checked before center
    (partial(ScheduleFamily, "sin", float("nan"), -1.0), ScheduleFamily, "scale",
     "sin requires a positive finite scale, got -1.0"),
    (partial(MetricReport, -0.06, [41.0, 51.0], 1.0, Lambdas(300.0, 1e308)), Lambdas,
     "lambda_ti", "lambda_ti = 1e+308 makes f_c overflow to inf"),
    (partial(MetricReport, -1e10, [41.0, 51.0], 1.0, Lambdas(1e308, 1.0)), Lambdas,
     "lambda_bg", "lambda_bg = 1e+308 makes f_c overflow to -inf"),
]


@pytest.mark.parametrize(
    "build, owner, field, message", CONFIG_REJECTIONS,
    ids=[f"{i}-{owner.__name__}.{field}" for i, (_, owner, field, _) in enumerate(CONFIG_REJECTIONS)],
)
def test_config_rejection_names_its_field(build, owner, field, message):
    # cli._checked names the flag of the field, so each rejection must say
    # which field of its class it rejects, with the message it always had
    with pytest.raises(FieldError) as info:
        build()
    assert info.value.field == field
    assert field in {f.name for f in fields(owner)}
    assert str(info.value) == message
