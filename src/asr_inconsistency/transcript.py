"""Normalized word-sequence transcripts and the normalization rules.

Every transcript (greedy, beam reference, LLM reference, ground truth) goes
through the same rules so that word-level comparisons are consistent. A
transcript carries only its words; which two transcripts a score compares
is recorded by the scoring method (metrics.WER_SOURCES).
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

from .errors import TranscriptInvariantError

# Punctuation kept when it sits directly between two word characters
# ("it's", "o-k"); includes the typographic apostrophe.
_INTRA_WORD = {"'", "’", "-"}


def normalize_text(text: str) -> list[str]:
    """Normalize raw text to a list of comparable word tokens.

    NFC-normalize, lowercase, drop punctuation (Unicode category P*) except
    intra-word apostrophes/hyphens, treat the word-delimiter bar as
    whitespace, collapse whitespace, and split. Empty input gives an empty
    list.
    """
    chars = list(unicodedata.normalize("NFC", text).lower())
    n = len(chars)
    kept: list[str] = []
    for i, ch in enumerate(chars):
        if ch == "|":
            # the CTC word delimiter is a boundary, never part of a word
            kept.append(" ")
            continue
        if unicodedata.category(ch).startswith("P"):
            if ch in _INTRA_WORD:
                prev_ok = i > 0 and chars[i - 1].isalnum()
                next_ok = i + 1 < n and chars[i + 1].isalnum()
                if prev_ok and next_ok:
                    kept.append(ch)
            continue
        kept.append(ch)
    return "".join(kept).split()


@dataclass(frozen=True)
class Transcript:
    """Normalized word sequence; build one from text with from_raw."""

    words: tuple[str, ...]

    def __post_init__(self) -> None:
        if any(not w or "|" in w for w in self.words):
            raise TranscriptInvariantError(
                f"bad token in transcript words: {self.words!r}")

    @classmethod
    def from_raw(cls, text: str) -> "Transcript":
        return cls(tuple(normalize_text(text)))

    @property
    def word_count(self) -> int:
        return len(self.words)

    def text(self) -> str:
        """Space-joined normalized words."""
        return " ".join(self.words)
