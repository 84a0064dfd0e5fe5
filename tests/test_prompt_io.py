"""Prompt decomposition request/parse tests, fixture-mode decompose, and the
deterministic hash embedding."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import couplegen.prompt_io as prompt_io
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
)

from oracles import oracle_embed_prompt

# Empty, short and long texts; repeated tokens; non-ASCII and odd whitespace.
TEXTS = st.text() | st.lists(
    st.sampled_from(["a", "cozy", "room", "Pikachu", "café", "猫", "🙂", "a\tb", " "]),
    max_size=12,
).map(" ".join)

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


class TestDecompose:
    def test_fixture_mode(self, tmp_path):
        fixture = tmp_path / "reply.txt"
        fixture.write_text(FIGURE_REPLY)
        bundle = decompose([PIKACHU, GIRL], fixture)
        assert bundle == parse_decomposition(FIGURE_REPLY)

    def test_fixture_with_three_entities(self, tmp_path):
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: bg\nEntity 1: a\nEntity 2: b\nEntity 3: c\n")
        bundle = decompose(["p1", "p2", "p3"], fixture)
        assert len(bundle.entities) == 3

    def test_fixture_entity_count_must_match_prompts(self, tmp_path):
        fixture = tmp_path / "reply.txt"
        fixture.write_text("Background: bg\nEntity 1: a\n")
        with pytest.raises(ParseError, match="1 entities for 3 prompts"):
            decompose(["p1", "p2", "p3"], fixture)

    def test_network_entity_count_must_match_prompts(self, monkeypatch):
        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": FIGURE_REPLY}}]}

        monkeypatch.setattr(prompt_io.requests, "post", lambda *a, **k: FakeResponse())
        ep = LlmEndpoint(base_url="http://example.invalid/v1", model="m")
        with pytest.raises(ParseError, match="2 entities for 3 prompts"):
            decompose([PIKACHU, GIRL, "a third prompt"], ep, sleep=lambda s: None)

    def test_unreachable_endpoint_retries_then_fails(self, monkeypatch):
        attempts = []

        def failing_post(*args, **kwargs):
            attempts.append(1)
            raise ConnectionError("no route to host")

        monkeypatch.setattr(prompt_io.requests, "post", failing_post)
        ep = LlmEndpoint(base_url="http://unreachable.invalid/v1", model="m")
        with pytest.raises(TransportError) as err:
            decompose([PIKACHU, GIRL], ep, sleep=lambda s: None)
        assert err.value.attempts == 3
        assert len(attempts) == 3

    def test_network_mode_parses_choices(self, monkeypatch):
        class FakeResponse:
            def raise_for_status(self):
                pass

            def json(self):
                return {"choices": [{"message": {"content": FIGURE_REPLY}}]}

        monkeypatch.setattr(prompt_io.requests, "post", lambda *a, **k: FakeResponse())
        ep = LlmEndpoint(base_url="http://example.invalid/v1", model="m")
        bundle = decompose([PIKACHU, GIRL], ep, sleep=lambda s: None)
        assert bundle.entities == ("A cute Pikachu sits.", "A beautiful girl stands.")

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
