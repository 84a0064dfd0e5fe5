"""The scripts CI runs over the base commit and the head, run here so that a
rename in `src/` breaks tier-1 before it breaks a CI runner."""

import re
import subprocess
import sys
from pathlib import Path

import code_lines
import render_hashes

ROOT = Path(__file__).resolve().parents[1]


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    source = (
        '"""Module\n\ndocstring."""\n'
        "\n"
        "import os  # a comment\n"
        "# a comment line\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    return (x +\n"
        "            1)\n"
        "\n"
        "class C:\n"
        '    """Two\n    lines."""\n'
        '    doc = """not a docstring"""\n'
    )
    # import, def, the two lines of the return, class and doc
    assert code_lines.code_lines(source) == 6


def test_code_lines_over_src():
    paths = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "src" / "couplegen").glob("*.py"))
    done = subprocess.run([sys.executable, "tests/code_lines.py", *paths], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    *rows, total = [line.split() for line in done.stdout.splitlines()]
    assert [path for _, path in rows] == paths
    assert all(int(count) > 0 for count, _ in rows)
    assert total == [str(sum(int(count) for count, _ in rows)), "total"]


def test_render_hashes_over_the_default_config(capsys):
    render_hashes.main({"default": render_hashes.CONFIGS["default"]})
    lines = capsys.readouterr().out.splitlines()
    renders = [f"default {kind} {noise}" for kind in render_hashes.FAMILIES
               for noise in ("shared", "separate")]
    assert [line.split(" ", 1)[1] for line in lines] == [
        f"{render} {part}" for render in renders for part in ("images", "latents", "reference")
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", line.split(" ", 1)[0]) for line in lines)
