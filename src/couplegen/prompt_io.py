"""Prompt decomposition via an external chat endpoint, plus offline fixtures
and the deterministic hash embedding used by the toy pipeline.

The decomposition asks a language model to pull the shared background out of
a set of prompts and keep one entity description per prompt.  Tests and
offline runs read a canned reply from a fixture file instead of the network.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
import requests

from .numerics import uniform_rows

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

RETRY_ATTEMPTS = 3
RETRY_BACKOFF_S = 1.0


class ParseError(ValueError):
    """Model reply did not match the expected Background/Entity layout."""

    def __init__(self, message: str, reply: str):
        super().__init__(message)
        self.reply = reply


class TransportError(RuntimeError):
    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class PromptBundle:
    """One shared background prompt plus one entity prompt per input."""

    background: str
    entities: tuple[str, ...]

    def __post_init__(self):
        if not self.background:
            raise ValueError("background prompt must be non-empty")
        if len(self.entities) < 1:
            raise ValueError("at least one entity prompt is required")
        object.__setattr__(self, "entities", tuple(self.entities))

    def to_dict(self) -> dict:
        return {"background": self.background, "entities": list(self.entities)}

    @classmethod
    def from_dict(cls, d: dict) -> "PromptBundle":
        return cls(background=d["background"], entities=tuple(d["entities"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


@dataclass(frozen=True)
class LlmEndpoint:
    base_url: str
    model: str
    api_key: str | None = None
    timeout: float = 30.0

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


_BACKGROUND_RE = re.compile(r"^\s*Background:\s*(.+?)\s*$", re.MULTILINE)
_ENTITY_RE = re.compile(r"^\s*Entity\s+(\d+):\s*(.+?)\s*$", re.MULTILINE)


def parse_decomposition(reply: str) -> PromptBundle:
    """Extract the Background line and the numbered Entity lines."""
    bg = _BACKGROUND_RE.search(reply)
    if bg is None:
        raise ParseError("reply has no 'Background:' line", reply)
    entities = [(int(num), text) for num, text in _ENTITY_RE.findall(reply)]
    if not entities:
        raise ParseError("reply has no 'Entity k:' lines", reply)
    entities.sort(key=lambda pair: pair[0])
    numbers = [num for num, _ in entities]
    if numbers != list(range(1, len(entities) + 1)):
        raise ParseError(f"entity numbers {numbers} are not exactly 1..{len(entities)}", reply)
    return PromptBundle(background=bg.group(1), entities=tuple(t for _, t in entities))


def decompose(
    prompts: Sequence[str],
    endpoint: LlmEndpoint | str | Path,
    sleep=time.sleep,
) -> PromptBundle:
    """Run the decomposition against an endpoint or an offline fixture.

    A string/Path endpoint is read as the raw text of a canned model reply
    (no network).  Network failures are retried with exponential backoff
    before surfacing a TransportError.  A reply that does not parse, or whose
    entity count differs from the number of prompts, raises ParseError.
    """
    if isinstance(endpoint, (str, Path)):
        reply = Path(endpoint).read_text()
    else:
        reply = _request_reply(prompts, endpoint, sleep)
    bundle = parse_decomposition(reply)
    if len(bundle.entities) != len(prompts):
        raise ParseError(
            f"reply has {len(bundle.entities)} entities for {len(prompts)} prompts", reply
        )
    return bundle


def _request_reply(prompts: Sequence[str], endpoint: LlmEndpoint, sleep) -> str:
    payload = build_decomposition_request(prompts, model=endpoint.model)
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"

    last_error: Exception | None = None
    for attempt in range(RETRY_ATTEMPTS):
        if attempt:
            sleep(RETRY_BACKOFF_S * 2 ** (attempt - 1))
        try:
            resp = requests.post(
                endpoint.base_url, json=payload, headers=headers, timeout=endpoint.timeout
            )
            resp.raise_for_status()
            return resp.json()["choices"][0]["message"]["content"]
        except Exception as exc:  # noqa: BLE001 - network/JSON failures all retry
            last_error = exc
    raise TransportError(
        f"decomposition failed after {RETRY_ATTEMPTS} attempts: {last_error}",
        attempts=RETRY_ATTEMPTS,
    )


def _token_seed(token: str, seed: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=(seed & (2**64 - 1)).to_bytes(8, "little")
    ).digest()
    return int.from_bytes(digest, "little")


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
    seeds = [_token_seed(token, seed) for token in text.split()[:n_tokens]]
    rows[: len(seeds)] = uniform_rows(seeds, d_model, -1.0, 1.0)
    rows[:, 0] += np.arange(n_tokens) / n_tokens
    return rows
