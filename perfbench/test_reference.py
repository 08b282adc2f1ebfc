"""Brute-force tests of the benchmark's reference computations.

Run with: python -m pytest perfbench/test_reference.py
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np

import reference

BLANK = 0


def _log_softmax_rows(rng: np.random.Generator, t: int, v: int) -> np.ndarray:
    logits = rng.normal(size=(t, v)) * 2.0
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def _collapse(path) -> list[int]:
    merged = [lab for i, lab in enumerate(path) if i == 0 or lab != path[i - 1]]
    return [lab for lab in merged if lab != BLANK]


def test_ctc_forward_matches_sum_over_all_paths():
    rng = np.random.default_rng(7)
    for t, v in ((1, 2), (2, 3), (3, 3), (4, 3), (5, 2)):
        frames = _log_softmax_rows(rng, t, v)
        totals: dict[tuple, float] = {}
        for path in itertools.product(range(v), repeat=t):
            lp = sum(frames[i, lab] for i, lab in enumerate(path))
            key = tuple(_collapse(path))
            totals[key] = totals.get(key, 0.0) + math.exp(lp)
        assert math.isclose(sum(totals.values()), 1.0, rel_tol=1e-9)
        for labels, prob in totals.items():
            got = reference.ctc_forward_logp(frames, list(labels), BLANK)
            assert math.isclose(got, math.log(prob), rel_tol=1e-9, abs_tol=1e-9)


def test_ctc_forward_of_unreachable_sequence_is_minus_inf():
    frames = _log_softmax_rows(np.random.default_rng(1), 2, 3)
    # "1 1" needs a blank between the repeats: three frames at least
    assert reference.ctc_forward_logp(frames, [1, 1], BLANK) == -math.inf


def test_greedy_labels_is_collapse_of_the_most_probable_path():
    rng = np.random.default_rng(11)
    for _ in range(20):
        t, v = int(rng.integers(1, 6)), int(rng.integers(2, 4))
        frames = _log_softmax_rows(rng, t, v)
        best = max(itertools.product(range(v), repeat=t),
                   key=lambda p: sum(frames[i, lab] for i, lab in enumerate(p)))
        assert reference.greedy_labels(frames, BLANK) == _collapse(best)


def test_labels_to_text_splits_at_the_delimiter():
    symbols = ["<blank>", "|", "a", "b"]
    assert reference.labels_to_text([1, 2, 3, 1, 1, 2, 1], symbols, 1) == "ab a"
    assert reference.labels_to_text([], symbols, 1) == ""


def _brute_edits(hyp: tuple, ref: tuple) -> int:
    if not hyp:
        return len(ref)
    if not ref:
        return len(hyp)
    return min(_brute_edits(hyp[1:], ref[1:]) + (hyp[0] != ref[0]),
               _brute_edits(hyp[1:], ref) + 1,
               _brute_edits(hyp, ref[1:]) + 1)


def test_edit_distance_matches_exhaustive_recursion():
    words = ("a", "b", "c")
    for n in range(5):
        for m in range(5):
            for hyp in itertools.islice(itertools.product(words, repeat=n), 30):
                for ref in itertools.islice(itertools.product(words, repeat=m), 30):
                    assert reference.edit_distance(list(hyp), list(ref)) == \
                        _brute_edits(hyp, ref)


def test_word_error_rate_caps_an_empty_reference():
    assert reference.word_error_rate([], []) == 0.0
    assert reference.word_error_rate(["a", "b"], []) == 1.0
    assert reference.word_error_rate(["a"], ["a", "b"]) == 0.5


def test_pearson_matches_the_textbook_formula():
    rng = np.random.default_rng(3)
    for n in (3, 5, 12):
        x = rng.normal(size=n).tolist()
        y = (0.5 * np.asarray(x) + rng.normal(size=n)).tolist()
        mx, my = math.fsum(x) / n, math.fsum(y) / n
        sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
        sxx = math.fsum((a - mx) ** 2 for a in x)
        syy = math.fsum((b - my) ** 2 for b in y)
        assert math.isclose(reference.pearson(x, y), sxy / math.sqrt(sxx * syy),
                            rel_tol=1e-12)


def test_read_ctcp_round_trips_float32(tmp_path):
    arr = _log_softmax_rows(np.random.default_rng(5), 4, 3).astype("<f4")
    path = tmp_path / "u.ctcp"
    path.write_bytes(b"CTCP" + struct.pack("<III", 1, 4, 3) + arr.tobytes())
    assert np.array_equal(reference.read_ctcp(path), arr.astype(np.float64))
