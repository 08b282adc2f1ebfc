"""CTC symbol inventory: ordered units plus blank and word-delimiter markers."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .errors import VocabularyError

BLANK_MARKER = "<blank>"
DELIMITER_MARKER = "|"


@dataclass(frozen=True)
class Vocabulary:
    """Ordered CTC unit inventory; index = position in the sidecar file."""

    symbols: tuple[str, ...]
    blank_index: int
    delimiter_index: int

    def __post_init__(self) -> None:
        if not self.symbols:
            raise VocabularyError("vocabulary has no symbols")
        if any(not s for s in self.symbols):
            raise VocabularyError("vocabulary contains an empty symbol")
        if len(set(self.symbols)) != len(self.symbols):
            seen: set[str] = set()
            for s in self.symbols:
                if s in seen:
                    raise VocabularyError(f"duplicate symbol {s!r}")
                seen.add(s)
        for name, idx in (("blank_index", self.blank_index),
                          ("delimiter_index", self.delimiter_index)):
            if not 0 <= idx < len(self.symbols):
                raise VocabularyError(f"{name} {idx} out of range")
        if self.blank_index == self.delimiter_index:
            raise VocabularyError("blank and delimiter must be distinct symbols")

    def __len__(self) -> int:
        return len(self.symbols)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Load a one-symbol-per-line vocabulary file.

    The file must contain the reserved lines "<blank>" and "|"; their line
    numbers become the blank and delimiter indices.
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise VocabularyError(f"{path}: not UTF-8 text") from exc
    if not lines:
        raise VocabularyError(f"{path}: empty vocabulary file")
    for i, sym in enumerate(lines):
        if not sym:
            raise VocabularyError(f"{path}:{i + 1}: empty symbol")
    symbols = tuple(lines)
    try:
        blank = symbols.index(BLANK_MARKER)
    except ValueError:
        raise VocabularyError(f"{path}: no {BLANK_MARKER!r} line") from None
    try:
        delim = symbols.index(DELIMITER_MARKER)
    except ValueError:
        raise VocabularyError(f"{path}: no {DELIMITER_MARKER!r} line") from None
    return Vocabulary(symbols=symbols, blank_index=blank, delimiter_index=delim)
