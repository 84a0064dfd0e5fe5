"""Prompt decomposition via an external chat endpoint, plus the deterministic
hash embedding used by the toy pipeline.

The decomposition asks a language model to pull the shared background out of
a set of prompts and keep one entity description per prompt.  `request_reply`
asks an endpoint and `decompose` parses a reply; this module opens no files.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import text_seed, uniform_rows

__all__ = [
    "PromptBundle",
    "LlmEndpoint",
    "ParseError",
    "TransportError",
    "SYSTEM_MESSAGE",
    "INSTRUCTION_MESSAGE",
    "build_decomposition_request",
    "parse_decomposition",
    "decompose",
    "request_reply",
    "endpoint_from_env",
    "embed_prompt",
]

ENV_URL = "COUPLEGEN_LLM_URL"
ENV_KEY = "COUPLEGEN_LLM_KEY"
ENV_MODEL = "COUPLEGEN_LLM_MODEL"

SYSTEM_MESSAGE = "You are a helpful assistant to arrange prompts for text-to-image generation."

INSTRUCTION_MESSAGE = (
    "You are given a set of prompts for text-to-image generation. Your task is "
    "to first identify and extract the common background shared across all "
    "prompts. Then, for each individual prompt, present the distinct entity "
    "description. Please format your output as follows:\n"
    "Background: [shared background]\n"
    "Entity 1: [description of the first unique entity]\n"
    "Entity 2: [description of the second unique entity]\n"
    "... and so on."
)

REQUEST_TIMEOUT_S = 30.0
RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0


class ParseError(ValueError):
    """Model reply did not match the expected Background/Entity layout."""

    def __init__(self, message: str, reply: str):
        super().__init__(message)
        self.reply = reply


class TransportError(RuntimeError):
    """Every one of the RETRY_ATTEMPTS requests failed."""


@dataclass(frozen=True)
class PromptBundle:
    """One shared background prompt plus one entity prompt per input."""

    background: str
    entities: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        names = [f"entity prompt {j}" for j in range(1, len(self.entities) + 1)]
        for name, text in zip(["background prompt", *names], (self.background, *self.entities)):
            if not text.strip():
                raise ValueError(f"{name} is blank: {text!r}")
            # lone surrogates, which JSON's \ud800 escapes load to, are the
            # only code points UTF-8, and so the text hash, cannot encode
            if lone := re.search("[\ud800-\udfff]", text):
                raise ValueError(f"{name} has a lone surrogate {lone[0]!r} at index "
                                 f"{lone.start()}, which UTF-8 cannot encode")
        if not self.entities:
            raise ValueError("at least one entity prompt is required")

    def to_dict(self) -> dict:
        return {"background": self.background, "entities": list(self.entities)}

    @classmethod
    def from_dict(cls, d) -> "PromptBundle":
        """The bundle of a decoded JSON object; ValueError unless it has a
        string background and a list of string entities that make a bundle."""
        if not isinstance(d, dict):
            raise ValueError(f"bundle must be a JSON object, got {type(d).__name__}")
        background, entities = d.get("background"), d.get("entities")
        if not isinstance(background, str):
            raise ValueError(f"background must be a string, got {background!r}")
        if not isinstance(entities, list) or not all(isinstance(e, str) for e in entities):
            raise ValueError(f"entities must be a list of strings, got {entities!r}")
        return cls(background=background, entities=tuple(entities))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass(frozen=True)
class LlmEndpoint:
    base_url: str
    model: str
    api_key: str | None = None

    def __post_init__(self):
        if not re.match(r"^https?://", self.base_url):
            raise ValueError(f"base_url must be an http(s) URL, got {self.base_url!r}")


def endpoint_from_env() -> LlmEndpoint:
    url = os.environ.get(ENV_URL)
    if not url:
        raise ValueError(f"{ENV_URL} is not set; pass a fixture file for offline use")
    return LlmEndpoint(
        base_url=url,
        model=os.environ.get(ENV_MODEL, ""),
        api_key=os.environ.get(ENV_KEY),
    )


def build_decomposition_request(prompts: Sequence[str], model: str = "") -> dict:
    """Chat-completion payload carrying the decomposition instructions."""
    if len(prompts) < 2:
        raise ValueError(f"need at least 2 prompts to decompose, got {len(prompts)}")
    numbered = "\n".join(f"Prompt {i}: {p}" for i, p in enumerate(prompts, start=1))
    return {
        "model": model,
        "messages": [
            {"role": "system", "content": SYSTEM_MESSAGE},
            {"role": "user", "content": INSTRUCTION_MESSAGE},
            {"role": "user", "content": numbered},
        ],
    }


# [^\S\n] is whitespace within a line: a value never reaches into the next
# line, and a CRLF reply's "\r" is trimmed like a space.
_BACKGROUND_RE = re.compile(r"^[^\S\n]*Background:[^\S\n]*(.*?)[^\S\n]*$", re.MULTILINE)
_ENTITY_RE = re.compile(r"^[^\S\n]*Entity[^\S\n]+([0-9]+):[^\S\n]*(.*?)[^\S\n]*$", re.MULTILINE)


def parse_decomposition(reply: str) -> PromptBundle:
    """Extract the first Background line and the numbered Entity lines;
    every value must be non-empty."""
    bg = _BACKGROUND_RE.search(reply)
    if bg is None:
        raise ParseError("reply has no 'Background:' line", reply)
    if not bg.group(1):
        raise ParseError("reply has an empty 'Background:' line", reply)
    entities = [(int(num), text) for num, text in _ENTITY_RE.findall(reply)]
    if not entities:
        raise ParseError("reply has no 'Entity k:' lines", reply)
    empty = [num for num, text in entities if not text]
    if empty:
        raise ParseError(f"reply has empty 'Entity k:' lines for k = {empty}", reply)
    entities.sort(key=lambda pair: pair[0])
    numbers = [num for num, _ in entities]
    if numbers != list(range(1, len(entities) + 1)):
        raise ParseError(f"entity numbers {numbers} are not exactly 1..{len(entities)}", reply)
    return PromptBundle(background=bg.group(1), entities=tuple(t for _, t in entities))


def decompose(prompts: Sequence[str], reply: str) -> PromptBundle:
    """The bundle of a model reply to the decomposition of prompts.  A reply
    that does not parse, or whose entity count differs from the number of
    prompts, raises ParseError."""
    bundle = parse_decomposition(reply)
    if len(bundle.entities) != len(prompts):
        raise ParseError(
            f"reply has {len(bundle.entities)} entities for {len(prompts)} prompts", reply
        )
    return bundle


def request_reply(prompts: Sequence[str], endpoint: LlmEndpoint, sleep=time.sleep) -> str:
    """The endpoint's reply to the decomposition request for prompts; failed
    requests are retried with exponential backoff, then raise TransportError."""
    # imported here: the HTTP stack (http.client, email, ssl, socket) is only
    # needed by a request, and loading it costs every other command start-up
    from urllib.request import Request, urlopen

    payload = build_decomposition_request(prompts, model=endpoint.model)
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    request = Request(endpoint.base_url, data=json.dumps(payload).encode("utf-8"), headers=headers)

    last_error: Exception | None = None
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
        try:
            # urlopen follows redirects and raises HTTPError for any other non-2xx status
            with urlopen(request, timeout=REQUEST_TIMEOUT_S) as resp:
                return json.load(resp)["choices"][0]["message"]["content"]
        except Exception as exc:  # noqa: BLE001 - network/HTTP/JSON failures all retry
            last_error = exc
    raise TransportError(f"decomposition failed after {RETRY_ATTEMPTS} attempts: {last_error}")


def embed_prompt(text: str, d_model: int, n_tokens: int, seed: int = 0) -> np.ndarray:
    """Deterministic stand-in for a text encoder.

    Each whitespace token seeds the kernel PRNG through a keyed hash and
    emits one row of values in [-1, 1]; the token list is padded with zero
    rows or truncated to n_tokens, and channel 0 carries a fixed positional
    offset (index / n_tokens).
    """
    if d_model < 1 or n_tokens < 1:
        raise ValueError(f"d_model and n_tokens must be >= 1, got {d_model}, {n_tokens}")
    rows = np.zeros((n_tokens, d_model), dtype=np.float64)
    seeds = [text_seed(token, seed) for token in text.split()[:n_tokens]]
    rows[: len(seeds)] = uniform_rows(seeds, d_model, -1.0, 1.0)
    rows[:, 0] += np.arange(n_tokens) / n_tokens
    return rows
