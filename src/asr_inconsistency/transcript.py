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
# Decimal marks kept between two digits ("3.5", "3,5")
_DECIMAL = {".", ","}


def normalize_text(text: str) -> list[str]:
    """Normalize raw text to a list of comparable word tokens.

    NFC-normalize, lowercase, and split at whitespace. Punctuation (Unicode
    category P*) is a word boundary, as is the word-delimiter bar, so
    "hello,world" and "niño—niña" are two words each. Two kinds of mark are
    kept inside a token: an apostrophe or hyphen between two word characters
    ("it's", "zo'n", "well-known"; a leading or trailing one is a boundary,
    so "'t" is "t"), and a decimal point or comma between two digits, so a
    decimal number is one token ("3.5", "3,5"). Empty input gives an empty
    list.
    """
    chars = unicodedata.normalize("NFC", text).lower()
    n = len(chars)
    kept: list[str] = []
    for i, ch in enumerate(chars):
        if ch == "|" or unicodedata.category(ch).startswith("P"):
            prev = chars[i - 1] if i > 0 else ""
            after = chars[i + 1] if i + 1 < n else ""
            if ((ch in _INTRA_WORD and prev.isalnum() and after.isalnum())
                    or (ch in _DECIMAL and prev.isdecimal() and after.isdecimal())):
                kept.append(ch)
            else:
                kept.append(" ")
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
