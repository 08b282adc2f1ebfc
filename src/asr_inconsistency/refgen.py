"""LLM reference generation.

A correction client asks a chat-style model to repair the greedy text; the
repaired text is the reference the greedy transcript is scored against.
(The other reference, the LM-fused beam search, lives in decoder.) The
deterministic MockCorrector stands in for the live endpoint in tests and
offline runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Protocol
from urllib.parse import urlsplit

from .errors import AuthError, EmptyReplyError, TransportError
from .transcript import Transcript

BRACKETED = "bracketed"
FALLBACK_WHOLE_REPLY = "fallback_whole_reply"

ENV_ENDPOINT = "LLM_ENDPOINT_URL"
ENV_API_KEY = "LLM_API_KEY"
ENV_MODEL = "LLM_MODEL_NAME"

# the live client's retry policy: attempts after the first, the per-attempt
# socket timeout, and the first backoff delay, doubled on each retry
MAX_RETRIES = 3
TIMEOUT_S = 60.0
BACKOFF_BASE_S = 1.0

PROMPT_TEMPLATE = (
    "The following is the output of an automatic speech recognition system "
    "for an utterance of a speaker with speech pathology in {language}: {sentence}\n"
    "\n"
    "Please correct the sentence. Please put the corrected sentence within "
    "square brackets [like this].\n"
    "If the sentence is already correct, repeat the sentence within square brackets."
)


def build_prompt(language: str, sentence: str) -> str:
    """Fill the correction prompt frame; nothing but the two slots varies."""
    return PROMPT_TEMPLATE.replace("{language}", language).replace("{sentence}", sentence)


def extract_bracketed(reply: str) -> tuple[str, str]:
    """Contents of the first balanced [...] span, or the whole trimmed reply.

    Returns (text, extraction) with extraction one of BRACKETED or
    FALLBACK_WHOLE_REPLY.
    """
    if not reply.strip():
        raise EmptyReplyError("reply is empty")
    start = reply.find("[")
    if start >= 0:
        depth = 0
        for i in range(start, len(reply)):
            if reply[i] == "[":
                depth += 1
            elif reply[i] == "]":
                depth -= 1
                if depth == 0:
                    return reply[start + 1:i], BRACKETED
    return reply.strip(), FALLBACK_WHOLE_REPLY


@dataclass(frozen=True)
class CorrectionRequest:
    language: str
    sentence: str
    model_name: str
    temperature: float = 0.0
    run_index: int = 0

    def __post_init__(self) -> None:
        if not self.sentence.strip():
            raise ValueError("sentence is empty")
        # json.dumps would write a non-finite one as NaN or Infinity, not JSON
        if not (self.temperature >= 0 and math.isfinite(self.temperature)):
            raise ValueError("temperature must be a finite number >= 0")


@dataclass(frozen=True)
class CorrectionResult:
    corrected: Transcript
    raw_reply: str
    run_index: int
    extraction: str
    retries: int = 0


class CorrectionClient(Protocol):
    def complete(self, request: CorrectionRequest) -> tuple[str, int]:
        """Return (raw reply text, retry count)."""


class MockCorrector:
    """Deterministic offline stand-in for the live correction endpoint.

    Replies come from an exact-sentence substitution table; sentences not in
    the table are echoed back inside brackets.
    """

    def __init__(self, replies: dict[str, str] | None = None) -> None:
        self.replies = dict(replies or {})

    @classmethod
    def from_json(cls, path: str) -> "MockCorrector":
        with open(path, encoding="utf-8") as fin:
            return cls(json.load(fin))

    def complete(self, request: CorrectionRequest) -> tuple[str, int]:
        reply = self.replies.get(request.sentence)
        if reply is None:
            reply = f"[{request.sentence}]"
        return reply, 0


class HttpChatClient:
    """Chat-completion style HTTP client with bounded retries.

    A connection error, a timeout, 429 and 5xx are retried MAX_RETRIES times
    with exponential backoff (BACKOFF_BASE_S, doubling); 401 and 403 raise
    AuthError at once; any other status but 200, a redirect included, and a
    malformed body raise TransportError without a retry.
    """

    def __init__(self, endpoint_url: str, api_key: str) -> None:
        if urlsplit(endpoint_url).scheme not in ("http", "https"):
            raise ValueError(f"endpoint URL {endpoint_url!r} is not http or https")
        self.endpoint_url = endpoint_url
        self.api_key = api_key

    @classmethod
    def from_env(cls) -> "HttpChatClient":
        missing = [name for name in (ENV_ENDPOINT, ENV_API_KEY) if not os.environ.get(name)]
        if missing:
            raise AuthError(f"{' and '.join(missing)} must be set")
        return cls(os.environ[ENV_ENDPOINT], os.environ[ENV_API_KEY])

    def complete(self, request: CorrectionRequest) -> tuple[str, int]:
        # imported here so that loading the toolkit does not pay for them
        import http.client
        import urllib.error
        import urllib.request

        class RefuseRedirects(urllib.request.HTTPRedirectHandler):
            # following one would send the bearer key wherever it points
            def redirect_request(self, *args):
                return None

        opener = urllib.request.build_opener(RefuseRedirects)
        body = json.dumps({
            "model": request.model_name,
            "temperature": request.temperature,
            "messages": [
                {"role": "user",
                 "content": build_prompt(request.language, request.sentence)},
            ],
        }).encode("utf-8")
        headers = {"Authorization": f"Bearer {self.api_key}",
                   "Content-Type": "application/json"}
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            # a new Request each time: a proxy handler rewrites the one it
            # is given, and a rewritten https Request sent again would go
            # through the proxy's tunnel as plain http, key and all
            http_request = urllib.request.Request(
                self.endpoint_url, data=body, method="POST", headers=headers)
            try:
                with opener.open(http_request, timeout=TIMEOUT_S) as resp:
                    status, payload = resp.status, resp.read()
            except urllib.error.HTTPError as exc:
                # an OSError too, so it is caught first
                status = exc.code
                exc.close()
            except (OSError, http.client.HTTPException) as exc:
                error = TransportError(str(exc))
                continue
            if status in (401, 403):
                raise AuthError(f"endpoint returned {status}")
            if status == 429:
                error = TransportError("rate limited by endpoint")
                continue
            if status >= 500:
                error = TransportError(f"server error {status}")
                continue
            if status != 200:
                raise TransportError(f"unexpected status {status}")
            try:
                content = json.loads(payload)["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"malformed response body: {exc}") from exc
            if not isinstance(content, str):
                raise TransportError(
                    f"malformed response body: content is {type(content).__name__}")
            return content, attempt
        raise error


def correct_with_llm(client: CorrectionClient, w_greedy: Transcript,
                     language: str, model_name: str,
                     *, runs: int = 3, temperature: float = 0.0) -> list[CorrectionResult]:
    """One independent correction request per run.

    Runs are never cached across run_index: the endpoint is stochastic even
    at temperature 0, and the spread across runs is part of the output.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    results: list[CorrectionResult] = []
    for run_index in range(runs):
        request = CorrectionRequest(language=language, sentence=w_greedy.text(),
                                    model_name=model_name,
                                    temperature=temperature, run_index=run_index)
        reply, retries = client.complete(request)
        text, extraction = extract_bracketed(reply)
        results.append(CorrectionResult(
            corrected=Transcript.from_raw(text),
            raw_reply=reply,
            run_index=run_index,
            extraction=extraction,
            retries=retries,
        ))
    return results
