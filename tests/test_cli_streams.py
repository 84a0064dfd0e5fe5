"""The CLI's output streams: `cli.run` keeps no stream it printed to, a
message the stream cannot encode is escaped rather than failing a run that
did its work, and an interrupt exits 130 naming itself."""

import gc
import io
import os
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import couplegen.cli
from couplegen.cli import run
from test_cli_fuzz import _tree

TINY = ["--d-model", "4", "--grid-side", "3", "--steps", "2", "--double-blocks", "1",
        "--single-blocks", "1"]
FIXTURE_REPLY = "Background: a quiet room\nEntity 1: a cat\nEntity 2: a dog\n"


@pytest.fixture()
def inputs(tmp_path):
    """The input files of every command, at the tiny config."""
    paths = {name: tmp_path / name for name in
             ("bundle.json", "s.csv", "prompts.txt", "reply.txt", "gen")}
    paths["bundle.json"].write_text(
        '{"background": "a quiet room", "entities": ["a cat", "a dog"]}'
    )
    paths["prompts.txt"].write_text("a cat in a quiet room\na dog in a quiet room\n")
    paths["reply.txt"].write_text(FIXTURE_REPLY)
    with redirect_stdout(io.StringIO()):
        assert run(["schedule", "--family", "arctan", "--center", "1", "--steps", "2",
                    "--out", str(paths["s.csv"])]) == 0
        assert run(["generate", "--bundle", str(paths["bundle.json"]), "--schedule",
                    str(paths["s.csv"]), "--out-dir", str(paths["gen"]), *TINY]) == 0
    return {name: str(path) for name, path in paths.items()}


def _argv(command: str, paths: dict, out: str) -> list:
    """A successful run of command on paths, writing to out."""
    pairs = [a for j in (1, 2) for a in ("--image", f"{paths['gen']}/entity_{j}.pgm",
                                         "--mask", f"{paths['gen']}/mask_{j}.pgm")]
    return {
        "decompose": ["decompose", "--prompts", paths["prompts.txt"], "--fixture",
                      paths["reply.txt"], "--out", out],
        "schedule": ["schedule", "--family", "arctan", "--center", "1", "--steps", "2",
                     "--out", out],
        # --text-tokens 2 adds a truncation warning on stderr
        "generate": ["generate", "--bundle", paths["bundle.json"], "--schedule", paths["s.csv"],
                     "--out-dir", out, *TINY, "--text-tokens", "2"],
        "evaluate": ["evaluate", "--bundle", paths["bundle.json"], "--out", out, *pairs],
        "optimize": ["optimize", "--bundle", paths["bundle.json"], "--max-evals", "2",
                     "--out-dir", out, *TINY],
        "sweep": ["sweep", "--family", "step01", "--centers", "1", "--bundle",
                  paths["bundle.json"], "--out", out, *TINY],
    }[command]


# per command: flags that make the success argv a usage error, and the name in
# couplegen.cli of a call of its work that is made to fail
USAGE_FLAGS = {
    "decompose": ["--prompts", "missing.txt"],
    "schedule": ["--steps", "0"],
    "generate": ["--schedule", "missing.csv"],
    "evaluate": ["--lambda-bg", "-1"],
    "optimize": ["--max-evals", "0"],
    "sweep": ["--noise-seeds", "0"],
}
FAILING_CALL = {
    "decompose": "decompose",
    "schedule": "make_schedule",
    "generate": "render",
    "evaluate": "score_images",
    "optimize": "generate_and_score",
    "sweep": "generate_and_score",
}


def _run_on_fresh_streams(argv) -> tuple:
    """cli.run(argv) with a new StringIO as stdout and as stderr: the exit
    code, both texts, and whether each stream is still alive once the call
    has returned and a collection has run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    texts = out.getvalue(), err.getvalue()
    refs = weakref.ref(out), weakref.ref(err)
    del out, err
    gc.collect()
    return code, texts, [ref() is not None for ref in refs]


# every outcome of every command, and the --help page of each and of the
# top level, the command ""
STREAM_CASES = [(command, outcome) for command in FAILING_CALL
                for outcome in ("success", "usage", "runtime", "help")] + [("", "help")]


@pytest.mark.parametrize("command, outcome", STREAM_CASES,
                         ids=[f"{command or 'main'}-{outcome}" for command, outcome in STREAM_CASES])
def test_run_keeps_no_stream(tmp_path, inputs, monkeypatch, command, outcome):
    if outcome == "help":
        code, (out, err), kept = _run_on_fresh_streams([command, "--help"] if command
                                                       else ["--help"])
        assert code == 0 and err == ""
        assert out.startswith("Usage: ") and "Show this message and exit.\n" in out
        assert kept == [False, False]
        return
    argv = _argv(command, inputs, str(tmp_path / "out"))
    if outcome == "usage":
        argv += USAGE_FLAGS[command]
    if outcome == "runtime":
        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(couplegen.cli, FAILING_CALL[command], fail)
    code, (out, err), kept = _run_on_fresh_streams(argv)
    assert code == {"success": 0, "usage": 1, "runtime": 2}[outcome], err
    if outcome == "success":
        assert out.count("\n") == 1 and err.count("warning:") == (command == "generate")
    else:
        assert out == "" and err.splitlines()[-1].startswith(f"{outcome} error: ")
    assert kept == [False, False]


@pytest.mark.parametrize("existing", [False, True], ids=["new_out_dir", "existing_out_dir"])
def test_interrupt_exits_130(tmp_path, inputs, monkeypatch, existing):
    # under standalone_mode=False click turns a KeyboardInterrupt into an Abort,
    # which carries no message
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(couplegen.cli, "render", interrupt)
    out_dir = tmp_path / "out"
    if existing:
        out_dir.mkdir()
        (out_dir / "entity_1.pgm").write_bytes(b"kept")
    before = _tree(tmp_path)
    code, (out, err), kept = _run_on_fresh_streams(_argv("generate", inputs, str(out_dir)))
    assert code == 130
    assert out == "" and err.endswith("interrupted\n")
    assert _tree(tmp_path) == before
    assert kept == [False, False]


@pytest.mark.parametrize("encoding", ["latin-1", "ascii", "utf-8"])
@pytest.mark.parametrize("command", ["schedule", "generate"])
def test_unencodable_summary_is_escaped(tmp_path, inputs, encoding, command):
    # the work is done before the summary line, so failing over it would
    # report a runtime error for a run that succeeded
    out = tmp_path / "out_€"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": encoding}
    done = subprocess.run([sys.executable, "-m", "couplegen", *_argv(command, inputs, str(out))],
                          env=env, capture_output=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert out.is_file() if command == "schedule" else (out / "mask_2.pgm").is_file()
    line = f"wrote {out}\n" if command == "schedule" else f"wrote 2 images to {out}\n"
    assert done.stdout == line.encode(encoding, "backslashreplace")
