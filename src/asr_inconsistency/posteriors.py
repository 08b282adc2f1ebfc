"""Per-utterance CTC posterior matrices and their two file formats.

Matrices hold natural-log probabilities, one row per frame, one column per
vocabulary unit. Two on-disk representations are supported: a binary "CTCP"
container (float32, exact round trip) and a human-writable text matrix for
fixtures.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PosteriorFormatError
from .vocab import Vocabulary

CTCP_MAGIC = b"CTCP"
CTCP_VERSION = 1
ROW_SUM_TOL = 1e-3


@dataclass(frozen=True)
class PosteriorMatrix:
    utterance_id: str
    frames: np.ndarray  # (T, V) float64 natural-log probabilities, read-only

    @classmethod
    def from_array(cls, utterance_id: str, array: np.ndarray) -> "PosteriorMatrix":
        """Validated, read-only copy: finite, no positive entry, and every
        row's probabilities sum to 1 within ROW_SUM_TOL."""
        arr = np.asarray(array, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise PosteriorFormatError(
                f"{utterance_id}: expected a T x V matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise PosteriorFormatError(f"{utterance_id}: non-finite log-probability")
        if np.any(arr > 0.0):
            raise PosteriorFormatError(
                f"{utterance_id}: positive log-probability entry")
        sums = np.exp(arr).sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL)[0]
        if bad.size:
            raise PosteriorFormatError(
                f"{utterance_id}: row {bad[0]} sums to {sums[bad[0]]:.6f}")
        arr = arr.copy()
        arr.setflags(write=False)
        return cls(utterance_id=utterance_id, frames=arr)

    @property
    def frame_count(self) -> int:
        return int(self.frames.shape[0])

    @property
    def vocab_size(self) -> int:
        return int(self.frames.shape[1])


def load_posteriors(path: str | Path, vocab: Vocabulary) -> PosteriorMatrix:
    """Load a posterior file (binary CTCP or text), checking it against vocab.

    The utterance id is taken from the file stem.
    """
    path = Path(path)
    raw = path.read_bytes()
    if raw[:4] == CTCP_MAGIC:
        arr = _parse_ctcp(raw, str(path))
    else:
        arr = _parse_text(raw, str(path))
    if arr.shape[1] != len(vocab):
        raise PosteriorFormatError(
            f"{path}: {arr.shape[1]} columns vs vocabulary of {len(vocab)}")
    return PosteriorMatrix.from_array(path.stem, arr)


def write_posteriors(matrix: PosteriorMatrix, path: str | Path, fmt: str = "ctcp") -> None:
    path = Path(path)
    if fmt == "ctcp":
        t, v = matrix.frames.shape
        header = CTCP_MAGIC + struct.pack("<III", CTCP_VERSION, t, v)
        payload = matrix.frames.astype("<f4").tobytes()
        path.write_bytes(header + payload)
    elif fmt == "text":
        t, v = matrix.frames.shape
        lines = [f"{t} {v}"]
        for row in matrix.frames:
            lines.append(" ".join(repr(float(x)) for x in row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        raise ValueError(f"unknown posterior format {fmt!r}")


def _parse_ctcp(raw: bytes, origin: str) -> np.ndarray:
    if len(raw) < 16:
        raise PosteriorFormatError(f"{origin}: truncated CTCP header")
    version, t, v = struct.unpack_from("<III", raw, 4)
    if version != CTCP_VERSION:
        raise PosteriorFormatError(f"{origin}: unsupported CTCP version {version}")
    expected = 16 + 4 * t * v
    if len(raw) != expected:
        raise PosteriorFormatError(
            f"{origin}: payload is {len(raw)} bytes, expected {expected}")
    data = np.frombuffer(raw, dtype="<f4", offset=16)
    return data.astype(np.float64).reshape(t, v)


def _parse_text(raw: bytes, origin: str) -> np.ndarray:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PosteriorFormatError(f"{origin}: not CTCP and not UTF-8 text") from exc
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PosteriorFormatError(f"{origin}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise PosteriorFormatError(f"{origin}:1: expected 'T V' header")
    try:
        t, v = int(head[0]), int(head[1])
    except ValueError as exc:
        raise PosteriorFormatError(f"{origin}:1: bad header {lines[0]!r}") from exc
    if len(lines) - 1 != t:
        raise PosteriorFormatError(
            f"{origin}: header says {t} rows, file has {len(lines) - 1}")
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != v:
            raise PosteriorFormatError(
                f"{origin}:{i}: expected {v} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise PosteriorFormatError(f"{origin}:{i}: bad number") from exc
    return np.asarray(rows, dtype=np.float64)
