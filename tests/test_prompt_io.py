"""Prompt decomposition request/parse tests, fixture-mode decompose, and the
deterministic hash embedding."""

import gc
import io
import json
import re
import threading
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplegen.prompt_io as prompt_io
from couplegen.metric import HashAlignmentScorer
from couplegen.prompt_io import (
    INSTRUCTION_MESSAGE,
    SYSTEM_MESSAGE,
    LlmEndpoint,
    ParseError,
    PromptBundle,
    TransportError,
    build_decomposition_request,
    decompose,
    embed_prompt,
    parse_decomposition,
    request_reply,
)

from oracles import oracle_embed_prompt

# Empty, short and long texts; repeated tokens; non-ASCII and odd whitespace.
TEXTS = st.text() | st.lists(
    st.sampled_from(["a", "cozy", "room", "Pikachu", "café", "猫", "🙂", "a\tb", " "]),
    max_size=12,
).map(" ".join)

# Any code point: hypothesis leaves out category Cs, the surrogates, unless
# asked, and JSON's \ud800 escapes load as such str.
ANY_TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"]),
                   max_size=10) | TEXTS

PIKACHU = (
    "A cute Pikachu sits in a cozy room bathed in warm sunshine. "
    "The room has wooden flooring and a peaceful, homely atmosphere."
)
GIRL = (
    "A beautiful girl stands in a cozy room bathed in warm sunshine. "
    "The room has wooden flooring and a peaceful, homely atmosphere."
)

FIGURE_REPLY = (
    "Background: A cozy room bathed in warm sunshine with wooden flooring "
    "and a peaceful, homely atmosphere.\n"
    "Entity 1: A cute Pikachu sits.\n"
    "Entity 2: A beautiful girl stands.\n"
)


def fake_response(content) -> io.BytesIO:
    """What urlopen returns for a chat completion whose reply is content."""
    return io.BytesIO(json.dumps({"choices": [{"message": {"content": content}}]}).encode())


def normalize_ws(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


class TestBuildRequest:
    def test_reference_example_payload(self):
        payload = build_decomposition_request([PIKACHU, GIRL], model="m")
        assert payload["model"] == "m"
        roles = [m["role"] for m in payload["messages"]]
        assert roles == ["system", "user", "user"]
        assert payload["messages"][0]["content"] == SYSTEM_MESSAGE
        assert payload["messages"][1]["content"] == INSTRUCTION_MESSAGE
        expected_final = f"Prompt 1: {PIKACHU} Prompt 2: {GIRL}"
        assert normalize_ws(payload["messages"][2]["content"]) == normalize_ws(expected_final)

    def test_single_prompt_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_decomposition_request(["only one"])

    def test_three_prompts_three_lines(self):
        payload = build_decomposition_request(["a", "b", "c"])
        lines = payload["messages"][2]["content"].splitlines()
        assert lines == ["Prompt 1: a", "Prompt 2: b", "Prompt 3: c"]


class TestParseDecomposition:
    def test_figure_reply(self):
        bundle = parse_decomposition(FIGURE_REPLY)
        assert bundle.background == (
            "A cozy room bathed in warm sunshine with wooden flooring and a "
            "peaceful, homely atmosphere."
        )
        assert bundle.entities == ("A cute Pikachu sits.", "A beautiful girl stands.")

    def test_out_of_order_entities_sorted(self):
        reply = "Background: bg\nEntity 2: second\nEntity 1: first\n"
        bundle = parse_decomposition(reply)
        assert bundle.entities == ("first", "second")

    def test_missing_background(self):
        with pytest.raises(ParseError) as err:
            parse_decomposition("Entity 1: lonely\n")
        assert "lonely" in err.value.reply

    def test_missing_entities(self):
        with pytest.raises(ParseError, match="Entity"):
            parse_decomposition("Background: something\n")

    @pytest.mark.parametrize(
        "numbers", [(1, 5, 5), (1, 1), (2, 3), (0, 1)], ids=["gap_dup", "dup", "from_2", "from_0"]
    )
    def test_numbering_must_be_1_to_n(self, numbers):
        reply = "Background: bg\n" + "".join(f"Entity {k}: e{k}\n" for k in numbers)
        with pytest.raises(ParseError, match="1.."):
            parse_decomposition(reply)

    def test_roundtrip_with_build(self):
        # a well-formed reply parses losslessly back into its lines
        bundle = parse_decomposition(FIGURE_REPLY)
        rebuilt = (
            f"Background: {bundle.background}\n"
            + "\n".join(f"Entity {i}: {e}" for i, e in enumerate(bundle.entities, 1))
            + "\n"
        )
        assert rebuilt == FIGURE_REPLY


def oracle_decomposition(reply: str):
    """The bundle a reply must parse to, or None when it must be rejected.

    Lines are split on "\n" only and stripped of whitespace, so a CRLF
    reply reads like an LF one.  The first line that starts with
    "Background:" gives the background; every line of the form
    "Entity <ASCII digits>: ..." gives an entity; other lines are ignored.
    Every value must be non-empty, the entity numbers exactly 1..n and the
    values a PromptBundle's (no lone surrogate).
    """
    background, entities = None, []
    for line in reply.split("\n"):
        body = line.strip()
        if body.startswith("Background:"):
            if background is None:
                background = body[len("Background:"):].strip()
        elif body.startswith("Entity") and body[6:7].isspace():
            num, colon, value = body[6:].lstrip().partition(":")
            if colon and num.isascii() and num.isdigit():
                entities.append((int(num), value.strip()))
    entities.sort(key=lambda pair: pair[0])
    if (
        not background
        or not entities
        or not all(value for _, value in entities)
        or [num for num, _ in entities] != list(range(1, len(entities) + 1))
    ):
        return None
    try:
        return PromptBundle(background, tuple(value for _, value in entities))
    except ValueError:
        return None


BLANKS = st.sampled_from(["", " ", "  ", "\t", "\u00a0", "\u3000"])
VALUES = st.text(st.characters(exclude_characters="\n"), max_size=8) | st.sampled_from(
    ["", " ", "a fox", "café au lait", "猫", "🙂 smile", "\r", "Entity 2: a cat"]
)


@st.composite
def replies(draw):
    """Background/Entity replies with missing lines, empty values, CRLF,
    extra text, duplicate or missing numbers and unicode."""
    lines = []
    if draw(st.integers(0, 3)):  # present 3 times in 4
        lines.append(f"{draw(BLANKS)}Background:{draw(BLANKS)}{draw(VALUES)}{draw(BLANKS)}")
    numbers = list(range(1, draw(st.integers(0, 4)) + 1))
    if not draw(st.integers(0, 3)):  # duplicate, missing or out-of-range numbers
        numbers = draw(st.lists(st.integers(0, 5), max_size=4))
    for k in numbers:
        lines.append(f"{draw(BLANKS)}Entity{draw(BLANKS)}{k}:{draw(BLANKS)}{draw(VALUES)}")
    lines.extend(draw(st.lists(VALUES, max_size=2)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(draw(st.permutations(lines))) + draw(st.sampled_from(["", end]))


class TestParseFuzz:
    @settings(max_examples=400, deadline=None)
    @given(replies())
    def test_matches_oracle(self, reply):
        want = oracle_decomposition(reply)
        if want is None:
            with pytest.raises(ParseError):
                parse_decomposition(reply)
        else:
            assert parse_decomposition(reply) == want

    @pytest.mark.parametrize(
        "reply",
        [
            "Background:\nEntity 1: a fox\nEntity 2: a cat",
            "Background: park\nEntity 1:\nEntity 2: a cat",
            "Background: park\r\nEntity 1: \r\nEntity 2: a cat\r\n",
            "Background: park\nEntity\n1: a fox",
        ],
        ids=["empty_background", "empty_entity", "empty_entity_crlf", "split_entity"],
    )
    def test_empty_value_does_not_take_the_next_line(self, reply):
        with pytest.raises(ParseError):
            parse_decomposition(reply)

    @pytest.mark.parametrize("reply", ["Background:0\nEntity 1:\ud800",
                                       "Background: a \udfff room\nEntity 1: a fox"],
                             ids=["entity", "background"])
    def test_lone_surrogate_is_a_parse_error(self, reply):
        # the oracle found it: the bundle's ValueError once escaped without the reply
        with pytest.raises(ParseError, match="lone surrogate") as caught:
            parse_decomposition(reply)
        assert caught.value.reply == reply

    def test_crlf_reply(self):
        assert parse_decomposition(FIGURE_REPLY.replace("\n", "\r\n")) == parse_decomposition(
            FIGURE_REPLY
        )


class TestDecompose:
    def test_fixture_mode(self, tmp_path):
        fixture = tmp_path / "reply.txt"
        fixture.write_text(FIGURE_REPLY)
        bundle = decompose([PIKACHU, GIRL], fixture.read_text())
        assert bundle == parse_decomposition(FIGURE_REPLY)

    def test_fixture_with_three_entities(self, tmp_path):
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: bg\nEntity 1: a\nEntity 2: b\nEntity 3: c\n")
        bundle = decompose(["p1", "p2", "p3"], fixture.read_text())
        assert len(bundle.entities) == 3

    def test_fixture_entity_count_must_match_prompts(self, tmp_path):
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: bg\nEntity 1: a\n")
        with pytest.raises(ParseError, match="1 entities for 3 prompts"):
            decompose(["p1", "p2", "p3"], fixture.read_text())

    def test_network_entity_count_must_match_prompts(self, monkeypatch):
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: fake_response(FIGURE_REPLY))
        ep = LlmEndpoint(base_url="http://example.invalid/v1", model="m")
        with pytest.raises(ParseError, match="2 entities for 3 prompts"):
            p = [PIKACHU, GIRL, "a third prompt"]
            decompose(p, request_reply(p, ep, sleep=lambda s: None))

    def test_unreachable_endpoint_retries_then_fails(self, monkeypatch):
        attempts = []

        def failing_post(*args, **kwargs):
            attempts.append(1)
            raise ConnectionError("no route to host")

        monkeypatch.setattr("urllib.request.urlopen", failing_post)
        ep = LlmEndpoint(base_url="http://unreachable.invalid/v1", model="m")
        with pytest.raises(TransportError, match="after 3 attempts"):
            request_reply([PIKACHU, GIRL], ep, sleep=lambda s: None)
        assert len(attempts) == 3

    @pytest.mark.parametrize("content", [None, 42], ids=["null", "number"])
    def test_non_string_content_retries_then_fails(self, monkeypatch, content):
        # counted as a failed attempt, as a reply without the key is
        attempts, sleeps = [], []

        def reply(*args, **kwargs):
            attempts.append(1)
            return fake_response(content)

        monkeypatch.setattr("urllib.request.urlopen", reply)
        ep = LlmEndpoint(base_url="http://example.invalid/v1", model="m")
        with pytest.raises(TransportError, match=f"after 3 attempts: reply content is "
                                                 f"{type(content).__name__}, not a string"):
            request_reply([PIKACHU, GIRL], ep, sleep=sleeps.append)
        assert len(attempts) == 3
        assert len(sleeps) == 2

    def test_network_mode_parses_choices(self, monkeypatch):
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: fake_response(FIGURE_REPLY))
        ep = LlmEndpoint(base_url="http://example.invalid/v1", model="m")
        p = [PIKACHU, GIRL]
        bundle = decompose(p, request_reply(p, ep, sleep=lambda s: None))
        assert bundle.entities == ("A cute Pikachu sits.", "A beautiful girl stands.")

    def test_posts_json_to_local_server_and_retries_non_2xx(self, monkeypatch):
        # the real transport against a loopback server: 503, then 200; the
        # 503's socket was once left open until garbage collection
        monkeypatch.setenv("no_proxy", "*")
        statuses, seen = [503, 200], []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                seen.append((self.headers["Content-Type"], self.headers["Authorization"],
                             json.loads(body)))
                reply = fake_response(FIGURE_REPLY).getvalue()
                self.send_response(statuses[len(seen) - 1])
                self.send_header("Content-Length", str(len(reply)))
                self.end_headers()
                self.wfile.write(reply)

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        sleeps = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                ep = LlmEndpoint(f"http://127.0.0.1:{server.server_port}/v1", "m", api_key="k")
                p = [PIKACHU, GIRL]
                bundle = decompose(p, request_reply(p, ep, sleep=sleeps.append))
                gc.collect()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert bundle == parse_decomposition(FIGURE_REPLY)
        assert sleeps == [prompt_io.RETRY_BACKOFF_S]
        want = build_decomposition_request([PIKACHU, GIRL], model="m")
        assert seen == [("application/json", "Bearer k", want)] * 2

    def test_bad_url_rejected(self):
        with pytest.raises(ValueError, match="http"):
            LlmEndpoint(base_url="ftp://nope", model="m")


class TestPromptBundle:
    def test_json_roundtrip(self):
        bundle = PromptBundle("bg", ("e1", "e2"))
        assert PromptBundle.from_dict(bundle.to_dict()) == bundle

    def test_invariants(self):
        with pytest.raises(ValueError):
            PromptBundle("", ("e",))
        with pytest.raises(ValueError):
            PromptBundle("bg", ())

    @pytest.mark.parametrize(
        "background, entities, name",
        [("   ", ("e1", "e2"), "background prompt"), ("\u3000\t", ("e1",), "background prompt"),
         ("bg", ("e1", " "), "entity prompt 2"), ("bg", ("\n", "e2", "\u00a0"), "entity prompt 1")],
        ids=["spaces", "unicode_blank", "one_entity", "two_entities"],
    )
    def test_blank_prompt_rejected(self, background, entities, name):
        # a blank prompt embeds to padding alone, the same for every blank text
        with pytest.raises(ValueError, match=f"{name} is blank"):
            PromptBundle(background, entities)
        with pytest.raises(ValueError, match=f"{name} is blank"):
            PromptBundle.from_dict({"background": background, "entities": list(entities)})

    @settings(max_examples=200, deadline=None)
    @given(ANY_TEXT, st.lists(ANY_TEXT, min_size=1, max_size=3))
    def test_accepted_prompts_embed(self, background, entities):
        # a bundle rejects, naming it, a prompt the text hash cannot take
        try:
            bundle = PromptBundle(background, tuple(entities))
        except ValueError as err:
            assert re.match(r"(background|entity) prompt", str(err))
            return
        scorer = HashAlignmentScorer()
        for text in (bundle.background, *bundle.entities):
            embed_prompt(text, 4, 3, seed=1)
            scorer.text_embedding(text)


class TestEmbedPrompt:
    def test_deterministic(self):
        a = embed_prompt("a cute pikachu", 8, 6, seed=1)
        b = embed_prompt("a cute pikachu", 8, 6, seed=1)
        assert np.array_equal(a, b)

    def test_one_word_difference_changes_a_row(self):
        a = embed_prompt("a cute pikachu", 8, 6, seed=1)
        b = embed_prompt("a cute girl", 8, 6, seed=1)
        assert not np.array_equal(a, b)

    def test_empty_text_is_padding_with_position_channel(self):
        m = embed_prompt("", 4, 5, seed=0)
        assert m.shape == (5, 4)
        np.testing.assert_array_equal(m[:, 1:], 0.0)
        np.testing.assert_allclose(m[:, 0], np.arange(5) / 5)

    def test_truncation_and_padding(self):
        long = embed_prompt("one two three four five", 4, 2, seed=0)
        assert long.shape == (2, 4)
        short = embed_prompt("one", 4, 3, seed=0)
        np.testing.assert_array_equal(short[1:, 1:], 0.0)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            embed_prompt("x", 0, 3)

    @settings(max_examples=200, deadline=None)
    @given(TEXTS, st.integers(1, 9), st.integers(1, 6), st.integers(0, 2**64 - 1))
    def test_matches_scalar_oracle(self, text, d_model, n_tokens, seed):
        assert np.array_equal(
            embed_prompt(text, d_model, n_tokens, seed=seed),
            oracle_embed_prompt(text, d_model, n_tokens, seed=seed),
        )

    def test_injective_on_1000_strings(self):
        seen = {}
        for i in range(1000):
            text = f"prompt number {i} with salt {i * 31}"
            key = embed_prompt(text, 6, 4, seed=7).tobytes()
            assert key not in seen
            seen[key] = text
