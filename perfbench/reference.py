"""Reference computations the benchmark checks the program's outputs against.

Written apart from the program on purpose: nothing here imports
asr_inconsistency, so a fault in the program cannot hide itself by also
being in the check. Every function has a brute-force test in
test_reference.py.
"""

from __future__ import annotations

import math
import struct

import numpy as np

CTCP_MAGIC = b"CTCP"


def read_ctcp(path) -> np.ndarray:
    """(T, V) float64 log-probabilities from a binary CTCP posterior file."""
    with open(path, "rb") as fin:
        raw = fin.read()
    if raw[:4] != CTCP_MAGIC:
        raise ValueError(f"{path}: not a CTCP file")
    _version, t, v = struct.unpack_from("<III", raw, 4)
    data = np.frombuffer(raw, dtype="<f4", offset=16, count=t * v)
    return data.astype(np.float64).reshape(t, v)


def greedy_labels(frames: np.ndarray, blank: int) -> list[int]:
    """Per-frame argmax (lowest index on ties), runs merged, blanks dropped."""
    out: list[int] = []
    prev = None
    for lab in np.argmax(frames, axis=1).tolist():
        if lab != prev and lab != blank:
            out.append(lab)
        prev = lab
    return out


def labels_to_text(labels: list[int], symbols: list[str], delimiter: int) -> str:
    """Space-joined words of a collapsed label sequence."""
    words, current = [], []
    for lab in labels:
        if lab == delimiter:
            if current:
                words.append("".join(current))
            current = []
        else:
            current.append(symbols[lab])
    if current:
        words.append("".join(current))
    return " ".join(words)


def edit_distance(hyp: list[str], ref: list[str]) -> int:
    """Levenshtein distance over words with unit costs."""
    prev = list(range(len(ref) + 1))
    for i, h in enumerate(hyp, start=1):
        row = [i]
        for j, r in enumerate(ref, start=1):
            row.append(min(prev[j - 1] + (h != r), prev[j] + 1, row[j - 1] + 1))
        prev = row
    return prev[-1]


def word_error_rate(hyp: list[str], ref: list[str]) -> float:
    """Edits over reference length; an empty reference scores min(len(hyp), 1)."""
    if not ref:
        return min(float(len(hyp)), 1.0)
    return edit_distance(hyp, ref) / len(ref)


def ctc_forward_logp(frames: np.ndarray, labels: list[int], blank: int) -> float:
    """ln of the summed probability of every frame path collapsing to labels."""
    ext = [blank]
    for lab in labels:
        ext += [lab, blank]
    ext_arr = np.asarray(ext)
    s = len(ext)
    # a skip over the blank between two labels is allowed unless they repeat
    skip = np.zeros(s, dtype=bool)
    for i in range(2, s):
        skip[i] = ext[i] != blank and ext[i] != ext[i - 2]
    alpha = np.full(s, -np.inf)
    alpha[0] = frames[0, blank]
    if s > 1:
        alpha[1] = frames[0, ext[1]]
    for t in range(1, frames.shape[0]):
        stay = alpha
        step = np.concatenate(([-np.inf], alpha[:-1]))
        jump = np.where(skip, np.concatenate(([-np.inf, -np.inf], alpha[:-2])), -np.inf)
        alpha = np.logaddexp(np.logaddexp(stay, step), jump) + frames[t, ext_arr]
    if s == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def pearson(x: list[float], y: list[float]) -> float:
    """Sample Pearson correlation."""
    return float(np.corrcoef(np.asarray(x, dtype=np.float64),
                             np.asarray(y, dtype=np.float64))[0, 1])


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)
