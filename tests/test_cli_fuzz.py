"""A grammar fuzz of the CLI edge: `--centers` specs, the float and int flags,
the bytes of the `--bundle`, `--schedule`, `--prompts` and `--fixture` files
and of the `evaluate --image` and `--mask` PGM files, and the `--out` and
`--out-dir` paths.

Each case mutates one input of one command and runs `cli.run` in-process at
d4, 3x3, 2 steps, one double and one single block, with 2 entities.  A case
exits 0 or 1, and exit 1 is a usage error; the one exit 2 it may reach is a
`--fixture` reply that decodes but does not parse or names the wrong number
of entities.  An accepted case writes only finite numbers, and a rejected
one writes no file.

Memory and time are bounded by the grammars: no legal size drawn is above the
tiny config (`--d-model 3072` is legal and allocates gigabytes), and the
noise-seed and center counts are at most 3 or above the bound of 1000, which
is rejected before anything renders.
"""

import contextlib
import csv
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from couplegen.cli import run
from couplegen.prompt_io import ParseError, decompose
from couplegen.schedule import FAMILY_ORDER

TINY = {"--d-model": "4", "--grid-side": "3", "--steps": "2", "--double-blocks": "1",
        "--single-blocks": "1"}
BUNDLE = '{"background": "a quiet room", "entities": ["a cat", "a dog"]}\n'
SCHEDULE = "step,theta\n1,0.25\n2,0.75\n"
PROMPTS = "a cat in a quiet room\na dog in a quiet room\n"
FIXTURE = "Background: a quiet room\nEntity 1: a cat\nEntity 2: a dog\n"

# command -> its flags at a run that exits 0: the value of a FILES flag is
# the text of its file, and an OUTS value names the output under the case's
# directory
COMMANDS = {
    "schedule": {"--family": "arctan", "--center": "1", "--steps": "2", "--out": "out.csv"},
    "generate": {"--bundle": BUNDLE, "--schedule": SCHEDULE, "--out-dir": "out", **TINY},
    "evaluate": {"--bundle": BUNDLE, "--out": "out.json"},
    "optimize": {"--bundle": BUNDLE, "--max-evals": "2", "--out-dir": "out", **TINY},
    "sweep": {"--family": "step01", "--centers": "1", "--bundle": BUNDLE, "--out": "out.csv",
              **TINY},
    "decompose": {"--prompts": PROMPTS, "--fixture": FIXTURE, "--out": "out.json"},
}
FILES = {"--bundle": "bundle.json", "--schedule": "schedule.csv", "--prompts": "prompts.txt",
         "--fixture": "fixture.txt"}
OUTS = ("--out", "--out-dir")

# --- numbers ---------------------------------------------------------------

FLOATS = ["0", "-0", "5e-324", "-5e-324", "2.2250738585072009e-308", "1e308", "-1e308",
          "inf", "-inf", "nan", "1e309", "", " ", "abc", "1,5", "0x10", "1e", "--1"]
FLOAT_FLAGS = {"schedule": ["--center", "--scale"], "sweep": ["--scale"],
               "optimize": ["--step-size"], "evaluate": ["--lambda-bg", "--lambda-ti"]}

SIZES = {"--d-model": 3072, "--text-tokens": 512, "--grid-side": 64, "--double-blocks": 19,
         "--single-blocks": 38, "--steps": 1000}
SEEDS = ["--weight-seed", "--noise-seed"]
INTS = [-1, 0, 1, 2, 10**20, "1e3"]


def _int_cases():
    """(command, flag, values): each bound and bound + 1, but no legal value
    that renders above the tiny config or more than a few times."""
    yield "schedule", "--steps", INTS + [1000, 1001]  # a 1000-row CSV is cheap
    for command in ("generate", "optimize", "sweep"):
        for flag, most in SIZES.items():
            yield command, flag, INTS[:4] + [most + 1] + INTS[4:]
        for flag in SEEDS:
            yield command, flag, INTS
    yield "optimize", "--max-evals", INTS  # the search stops itself, after 49 here
    yield "optimize", "--search-seed", INTS
    yield "sweep", "--noise-seeds", INTS[:4] + [3, 1001] + INTS[4:]


def _centers():
    """Signed ints and floats, nan, inf, 1e309 and blanks, joined by ',' or
    '..': a range of at most 3 or above 1000 centers, 1 to 3 list items, or 1001."""
    ints = st.integers(-3, 12)
    token = st.one_of(ints.map(str), st.sampled_from(
        ["-0", "+2", "1.5", "-0.5", "2e0", "nan", "inf", "-inf", "1e309", "", " "]))
    span = st.sampled_from([-1, 0, 1, 2, 1000, 10**20])
    int_range = st.builds(lambda lo, d: f"{lo}..{lo + d}", ints, span)
    any_range = st.builds(lambda lo, hi: f"{lo}..{hi}", token, token)
    items = st.lists(token, min_size=1, max_size=3).map(",".join)
    return st.one_of(int_range, any_range, items, token.map(lambda t: ",".join([t or "3"] * 1001)))


# --- file bytes ------------------------------------------------------------

# the text of each file flag, the tokens a mutation replaces, and what it
# puts in their place
GRAMMARS = {
    "--bundle": (BUNDLE, r'"(?:[^"\\]|\\.)*"|[\[\]{},:]', [
        '""', '"   "', '"a \\ud800room"', '"\\udc80"', "1e999", "NaN", "-Infinity", "null",
        "true", "3", "[]", "{}", '["a cat"]', '"a cat", "a fox"', "[" * 50, '"entities"', ",",
    ]),
    "--schedule": (SCHEDULE, r"[^,\n]+|\n", [
        "nan", "inf", "-inf", "1e309", "-0", "0", "1", "2", "3", "-1", "0.5", "1.0", "5e-324",
        "", "x", "1,2", '"0.5"', "\n", "\n\n", "\n3,1\n", "step", "theta",
    ]),
    "--prompts": (PROMPTS, r"[^\n]+|\n", ["", " ", "\t", "a fox", "a fox\na cat", "\n", "\x0b"]),
    "--fixture": (FIXTURE, r"[^\n:]+|:|\n", [
        "Background", "Entity 1", "Entity 2", "Entity 3", "Entity 0", "Entity 01", "entity 1",
        "", " ", "a fox", ":", "\n", "\n\n", "\nEntity 3: a fox\n", " ",
    ]),
}
BYTE_EDITS = [b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x00", b"\xef\xbb\xbf", b"\r", b"\r\n"]


@st.composite
def _file_bytes(draw, flag):
    """The flag's text with up to two tokens replaced, then up to two byte
    edits: an invalid UTF-8 sequence, NUL, BOM or CR inserted, every newline
    made CRLF, or the tail cut."""
    text, pattern, replacements = GRAMMARS[flag]
    for _ in range(draw(st.integers(0, 2))):
        tokens = [m.span() for m in re.finditer(pattern, text)] or [(0, 0)]
        start, end = draw(st.sampled_from(tokens))
        text = text[:start] + draw(st.sampled_from(replacements)) + text[end:]
    data = text.encode("utf-8")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(["insert", "crlf", "cut"]))
        if edit == "insert":
            data = data[:at] + draw(st.sampled_from(BYTE_EDITS)) + data[at:]
        elif edit == "crlf":
            data = data.replace(b"\n", b"\r\n")
        else:
            data = data[:at]
    return data


# --- PGM bytes -------------------------------------------------------------

PGM_HEADER = [b"P5", b"3", b"3", b"255"]  # magic, width, height, maxval
# the 3x3 rasters of the two images and the masks that evaluate reads
IMAGES = [bytes([64] + [128] * 8), bytes([128] + [255] * 8)]
MASK = bytes([255] + [0] * 8)
HEADER_TOKENS = [b"P2", b"P6", b"p5", b"", b"0", b"1", b"2", b"3", b"4", b"9", b"-3", b"+3",
                 b"03", b"3.0", b"255", b"256", b"65535", b"0255", b"1e2", b"x", b"9" * 30]
SEPARATORS = [b"\n", b" ", b"\t", b"\r\n", b"  ", b"", b"\n# a comment\n", b" #c 3\n", b"#\n"]
# mask values other than 0 and 255, and bytes a header reader could take for its own
RASTER_BYTES = [0, 1, 9, 10, 13, 32, 35, 128, 254, 255]


def _pgm(raster: bytes) -> bytes:
    return b"P5\n3 3\n255\n" + raster


@st.composite
def _pgm_bytes(draw, flag):
    """The first --image or --mask file of evaluate with up to two header
    tokens replaced, every separator drawn (comments among them), and its
    raster's bytes changed, cut short or run long."""
    header = list(PGM_HEADER)
    for _ in range(draw(st.integers(0, 2))):
        header[draw(st.integers(0, 3))] = draw(st.sampled_from(HEADER_TOKENS))
    data = header[0]
    for token in header[1:]:
        data += draw(st.sampled_from(SEPARATORS)) + token
    data += draw(st.sampled_from([b"\n", b" ", b"\r\n", b"\n#c\n", b""]))
    raster = bytearray(MASK if flag == "--mask" else IMAGES[0])
    for _ in range(draw(st.integers(0, 2))):
        raster[draw(st.integers(0, 8))] = draw(st.sampled_from(RASTER_BYTES))
    return data + (raster * 2)[:draw(st.sampled_from([9, 0, 8, 10, 18]))]


# --- output paths ----------------------------------------------------------

# a regular file, a directory and a symlink to itself, which _argv makes under
# the case's directory; "missing" and "café" are not made
EXISTING = ["a_file", "a_dir", "loop"]
THROUGH = ["", "a_file/", "a_dir/", "loop/", "missing/", "café/"]
NAMES = ["out", "café", "猫 🙂", os.fsdecode(b"\xff\xfe")]  # the last is not UTF-8


@st.composite
def _out_path(draw, suffix):
    """An output path under the case's directory, maybe through a file, a
    directory, a symlink loop or a missing directory: an existing path, a
    non-ASCII or undecodable name, or a last component of 254 to 256 bytes."""
    path = draw(st.sampled_from(THROUGH))
    kind = draw(st.sampled_from(["existing", "name", "long"]))
    if kind == "existing":
        return path + draw(st.sampled_from(EXISTING))
    name = draw(st.sampled_from(NAMES)) if kind == "name" else draw(st.sampled_from("aé")) * 120
    if kind == "long":
        name += "b" * (draw(st.integers(254, 256)) - len((name + suffix).encode()))
    return path + name + suffix


def _cases():
    """(command, flag, value): one input of one command, mutated."""
    floats = [st.tuples(st.just(c), st.sampled_from(flags), st.sampled_from(FLOATS))
              for c, flags in FLOAT_FLAGS.items()]
    ints = [st.tuples(st.just(c), st.just(flag), st.sampled_from(values).map(str))
            for c, flag, values in _int_cases()]
    files = [st.tuples(st.just(c), st.just(flag), _file_bytes(flag))
             for c, flags in COMMANDS.items() for flag in flags if flag in FILES]
    families = st.tuples(st.sampled_from(["schedule", "sweep"]), st.just("--family"),
                         st.sampled_from(list(FAMILY_ORDER)))
    centers = st.tuples(st.just("sweep"), st.just("--centers"), _centers())
    return st.one_of(*floats, *ints, *files, families, centers)


# --- the run ---------------------------------------------------------------


def _argv(tmp: Path, command: str, flag: str, value) -> list:
    flags = {**COMMANDS[command], flag: value}
    argv = [command]
    (tmp / "a_file").write_text("x")
    (tmp / "a_dir").mkdir()
    (tmp / "loop").symlink_to("loop")
    if command == "evaluate":
        for j, image in enumerate(IMAGES, start=1):
            (tmp / f"entity_{j}.pgm").write_bytes(_pgm(image))
            (tmp / f"mask_{j}.pgm").write_bytes(_pgm(MASK))
            argv += ["--image", str(tmp / f"entity_{j}.pgm"), "--mask", str(tmp / f"mask_{j}.pgm")]
        if flag in ("--image", "--mask"):
            first = "entity_1.pgm" if flag == "--image" else "mask_1.pgm"
            (tmp / first).write_bytes(flags.pop(flag))
    for name, text in flags.items():
        if name in FILES:
            path = tmp / FILES[name]
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            text = str(path)
        elif name in OUTS:
            text = str(tmp / text)
        argv += [name, text]
    return argv


def _files(tmp: Path) -> dict:
    """The bytes of every regular file under tmp, by path; symlinks are not
    followed."""
    return {path: path.read_bytes() for root, _, names in os.walk(tmp)
            for path in (Path(root, name) for name in names) if path.is_file()}


def _pinned_reply_error(tmp: Path) -> bool:
    """Whether decompose's prompts read and its fixture decodes, but the reply
    does not parse or names another number of entities than there are prompts."""
    try:
        text = (tmp / "prompts.txt").read_text(encoding="utf-8")
        reply = (tmp / "fixture.txt").read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return False
    prompts = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(prompts) < 2:
        return False
    try:
        decompose(prompts, reply)
    except ParseError:
        return True
    return False


def _numbers(path: Path) -> list:
    """Every number in an output file: each CSV field that parses as a float
    and each number in a JSON document; images hold bytes and count none."""
    numbers = []
    if path.suffix == ".csv":
        # trace.csv keeps the bytes of an output path that is not UTF-8
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            for field in (f for row in csv.reader(fh) for f in row):
                try:
                    numbers.append(float(field))
                except ValueError:
                    pass
    elif path.suffix == ".json":
        def keep(text):
            numbers.append(float(text))

        json.loads(path.read_text(encoding="utf-8"), parse_float=keep, parse_constant=keep)
    return numbers


def _check(command: str, flag: str, value) -> None:
    """Run the case: it exits 0 and writes only finite numbers, or exits 1
    with a usage error and writes no file, or is decompose's pinned exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        argv = _argv(tmp, command, flag, value)
        before = _files(tmp)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        written = [path for path, data in _files(tmp).items() if before.get(path) != data]
        if command == "decompose" and _pinned_reply_error(tmp):
            assert code == 2 and err.getvalue().startswith("runtime error:"), err.getvalue()
            assert written == []
            return
        assert code in (0, 1), err.getvalue()
        if code == 1:
            assert err.getvalue().startswith("usage error:"), err.getvalue()
            assert written == []
            return
        assert written
        for path in written:
            assert all(math.isfinite(x) for x in _numbers(path)), path


@settings(max_examples=300, deadline=None)
@given(case=_cases())
def test_cli_edge(case):
    _check(*case)


@settings(max_examples=100, deadline=None)
@given(flag=st.sampled_from(["--image", "--mask"]), data=st.data())
def test_pgm_edge(flag, data):
    _check("evaluate", flag, data.draw(_pgm_bytes(flag)))


OUT_FLAGS = [(command, flag, Path(value).suffix) for command, flags in COMMANDS.items()
             for flag, value in flags.items() if flag in OUTS]


@settings(max_examples=100, deadline=None)
@given(out=st.sampled_from(OUT_FLAGS), data=st.data())
def test_out_path_edge(out, data):
    command, flag, suffix = out
    _check(command, flag, data.draw(_out_path(suffix)))
