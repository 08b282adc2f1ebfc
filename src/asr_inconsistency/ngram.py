"""ARPA back-off n-gram language models.

Probabilities are stored as read from the file (log base 10) and converted
to natural log at the query boundary, so everything downstream (fusion,
sequence scoring) works in one base.
"""

from __future__ import annotations

import gzip
import math
import re
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ArpaFormatError

LN10 = math.log(10.0)
# ln P of a word the model has no entry for, when it has no <unk> either
OOV_FLOOR_LN = math.log(1e-10)

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"

# (log10_prob, log10_backoff or None) keyed by the n-gram word tuple
NGramTable = dict[tuple[str, ...], tuple[float, float | None]]


@dataclass
class NGramModel:
    order: int
    tables: tuple[NGramTable, ...]
    unk_token: str | None = field(init=False, default=None)
    has_bos: bool = field(init=False, default=False)
    has_eos: bool = field(init=False, default=False)
    # every word of every n-gram key; a history word outside it matches no
    # entry, so neither it nor the words before it change a score
    known_words: frozenset[str] = field(init=False, default=frozenset(), repr=False)
    # the beam search's lexicon tries of known_words, one per vocabulary,
    # built on first use (decoder.lexicon_of); not part of the model's value
    lexicons: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        unigrams = self.tables[0]
        self.unk_token = UNK if (UNK,) in unigrams else None
        self.has_bos = (BOS,) in unigrams
        self.has_eos = (EOS,) in unigrams
        self.known_words = frozenset(w for table in self.tables for key in table for w in key)

    # --- queries (natural log) ---------------------------------------------

    def word_logprob(self, word: str, history: tuple[str, ...] = ()) -> float:
        """Back-off conditional log-probability ln P(word | history).

        Queries are lowercased to match transcript normalization (the
        reserved boundary tokens already are). An out-of-vocabulary word maps
        to the model's unk token when it has one, otherwise the OOV floor
        applies. A history word that no n-gram contains matches no entry and
        backs off with weight 0, so only the words after it count.
        """
        word = word.lower()
        if (word,) not in self.tables[0]:
            if self.unk_token is None:
                return OOV_FLOOR_LN
            word = self.unk_token
        history = tuple(w.lower() for w in history)
        if self.order > 1:
            history = history[-(self.order - 1):]
        else:
            history = ()
        return self._logprob10(history + (word,)) * LN10

    def sequence_logprob(self, words: list[str] | tuple[str, ...]) -> float:
        """Sum of per-word conditionals; boundary tokens applied when the
        model defines them."""
        if not words:
            raise ValueError("cannot score an empty word sequence")
        context = self.initial_context()
        total = 0.0
        for w in words:
            logp, context = self.advance(context, w)
            total += logp
        return total + self.final_logprob(context)

    # --- incremental interface used by the decoder --------------------------

    def initial_context(self) -> tuple[str, ...]:
        return (BOS,) if self.has_bos else ()

    def advance(self, context: tuple[str, ...], word: str) -> tuple[float, tuple[str, ...]]:
        """Score one word in context and return the shifted context.

        The context returned is the shortest equivalent one: it keeps only
        the words after the last word that no n-gram contains, because every
        query scores the same with or without the words up to that one.
        """
        logp = self.word_logprob(word, context)
        if self.order == 1:
            return logp, ()
        context = (*context, word.lower())[-(self.order - 1):]
        for i in range(len(context) - 1, -1, -1):
            if context[i] not in self.known_words:
                return logp, context[i + 1:]
        return logp, context

    def final_logprob(self, context: tuple[str, ...]) -> float:
        return self.word_logprob(EOS, context) if self.has_eos else 0.0

    # --- internals -----------------------------------------------------------

    def _logprob10(self, ngram: tuple[str, ...]) -> float:
        n = len(ngram)
        entry = self.tables[n - 1].get(ngram) if n <= self.order else None
        if entry is not None:
            return entry[0]
        if n == 1:
            # word was already mapped to <unk>/floor in word_logprob; reaching
            # here means an in-vocabulary word without a unigram entry, which
            # a well-formed model cannot produce
            return OOV_FLOOR_LN / LN10
        back = self.tables[n - 2].get(ngram[:-1])
        weight = back[1] if back is not None and back[1] is not None else 0.0
        return weight + self._logprob10(ngram[1:])


_NGRAM_COUNT_RE = re.compile(r"^ngram\s+(\d+)\s*=\s*(\d+)$")
_SECTION_RE = re.compile(r"^\\(\d+)-grams:$")


def parse_arpa(text: str) -> NGramModel:
    """Parse ARPA text into an NGramModel, verifying declared counts."""
    lines = text.splitlines()
    i = 0
    n_lines = len(lines)

    def err(lineno: int, msg: str) -> ArpaFormatError:
        return ArpaFormatError(f"line {lineno}: {msg}")

    # preamble up to \data\
    while i < n_lines and lines[i].strip() != "\\data\\":
        i += 1
    if i == n_lines:
        raise ArpaFormatError("missing \\data\\ section")
    i += 1

    counts: dict[int, int] = {}
    while i < n_lines:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        m = _NGRAM_COUNT_RE.match(line)
        if m is None:
            break
        counts[int(m.group(1))] = int(m.group(2))
        i += 1
    if not counts:
        raise ArpaFormatError("\\data\\ section declares no ngram counts")
    order = max(counts)
    if sorted(counts) != list(range(1, order + 1)):
        raise ArpaFormatError("ngram counts must cover orders 1..N")

    tables: list[NGramTable] = [dict() for _ in range(order)]
    current: int | None = None
    saw_end = False
    while i < n_lines:
        line = lines[i].strip()
        i += 1
        if not line:
            continue
        if line == "\\end\\":
            saw_end = True
            break
        m = _SECTION_RE.match(line)
        if m is not None:
            current = int(m.group(1))
            if not 1 <= current <= order:
                raise err(i, f"section order {current} outside declared 1..{order}")
            continue
        if current is None:
            raise err(i, f"entry before any \\N-grams: section: {line!r}")
        parts = line.split()
        has_backoff = len(parts) == current + 2
        if not has_backoff and len(parts) != current + 1:
            raise err(i, f"expected {current + 1} or {current + 2} fields")
        if has_backoff and current == order:
            raise err(i, "backoff weight on a highest-order ngram")
        try:
            logp = float(parts[0])
            backoff = float(parts[-1]) if has_backoff else None
        except ValueError:
            raise err(i, "bad log-probability") from None
        if not math.isfinite(logp) or (
                backoff is not None and not math.isfinite(backoff)):
            raise err(i, "log-probability and back-off must be finite")
        words = tuple(parts[1:current + 1])
        tables[current - 1][words] = (logp, backoff)
    if not saw_end:
        raise ArpaFormatError("missing \\end\\ marker")

    for n, declared in counts.items():
        actual = len(tables[n - 1])
        if actual != declared:
            raise ArpaFormatError(f"declared {declared} {n}-grams, found {actual}")

    return NGramModel(order=order, tables=tuple(tables))


def load_arpa(path: str | Path) -> NGramModel:
    """Load an ARPA file, transparently decompressing gzip; format errors
    name the file."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise ArpaFormatError(f"{path}: corrupt gzip data: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ArpaFormatError(f"{path}: not UTF-8 text") from exc
    try:
        return parse_arpa(text)
    except ArpaFormatError as exc:
        raise ArpaFormatError(f"{path}: {exc}") from exc


def write_arpa(model: NGramModel) -> str:
    """Serialize back to ARPA text; parse(write(m)) answers queries identically."""
    out = ["", "\\data\\"]
    for n in range(1, model.order + 1):
        out.append(f"ngram {n}={len(model.tables[n - 1])}")
    for n in range(1, model.order + 1):
        out.append("")
        out.append(f"\\{n}-grams:")
        for words in sorted(model.tables[n - 1]):
            logp, backoff = model.tables[n - 1][words]
            fields = [repr(logp), *words]
            if backoff is not None:
                fields.append(repr(backoff))
            out.append("\t".join(fields))
    out.extend(["", "\\end\\", ""])
    return "\n".join(out)
