"""Normalized word-sequence transcripts with their provenance tag."""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from enum import Enum

from .errors import TranscriptInvariantError
from .textnorm import normalize_text


class TranscriptSource(str, Enum):
    GREEDY = "greedy"
    NGRAM_REFERENCE = "ngram_reference"
    LLM_REFERENCE = "llm_reference"
    GROUND_TRUTH = "ground_truth"


@dataclass(frozen=True)
class Transcript:
    """Word sequence plus the raw text it was normalized from.

    The words are always exactly normalize_text(raw_text); construct through
    from_raw unless you already hold normalized tokens.
    """

    words: tuple[str, ...]
    raw_text: str
    source: TranscriptSource
    # set only by from_raw, whose words are normalize_text(raw_text) by
    # construction, so the text is not normalised a second time
    _normalized: InitVar[bool] = False

    def __post_init__(self, _normalized: bool) -> None:
        if any(not w or "|" in w for w in self.words):
            raise TranscriptInvariantError(
                f"bad token in transcript words: {self.words!r}")
        if not _normalized and list(self.words) != normalize_text(self.raw_text):
            raise TranscriptInvariantError(
                f"words {self.words!r} do not match normalize({self.raw_text!r})")

    @classmethod
    def from_raw(cls, raw_text: str, source: TranscriptSource) -> "Transcript":
        return cls(tuple(normalize_text(raw_text)), raw_text, source, _normalized=True)

    @property
    def word_count(self) -> int:
        return len(self.words)

    def text(self) -> str:
        """Space-joined normalized words."""
        return " ".join(self.words)
