"""Word-level edit alignment, WER, the inconsistency score, and diffs.

The inconsistency score is the WER between the greedy (acoustic-driven)
transcript and a generated reference transcript, with the reference in the
denominator role: higher disagreement means lower estimated intelligibility.
Which two transcripts a WER-type score compares follows from its method
alone, and WER_SOURCES is the one table that records it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import MissingInputError
from .transcript import Transcript

# method -> (hypothesis, reference) transcripts its WER compares
WER_SOURCES = {
    "ngram": ("greedy", "ngram_reference"),
    "llm": ("greedy", "llm_reference"),
    "reference_wer": ("greedy", "ground_truth"),
    "llm_accuracy": ("llm_reference", "ground_truth"),
}

MATCH = "match"
SUBSTITUTE = "substitute"
INSERT = "insert"    # extra hypothesis word
DELETE = "delete"    # reference word missing from the hypothesis


@dataclass(frozen=True)
class EditOp:
    op: str
    hyp_index: int | None = None
    ref_index: int | None = None
    hyp_word: str | None = None
    ref_word: str | None = None


@dataclass(frozen=True)
class EditAlignment:
    ops: tuple[EditOp, ...]
    n_match: int
    n_sub: int
    n_ins: int
    n_del: int
    hyp_len: int
    ref_len: int

    @property
    def cost(self) -> int:
        return self.n_sub + self.n_ins + self.n_del


@dataclass(frozen=True)
class ScoreRecord:
    """One scored quantity for one utterance."""

    utterance_id: str
    method: str
    value: float
    model_name: str | None = None
    run_index: int | None = None
    n_edits: int | None = None
    ref_len: int | None = None

    def __post_init__(self) -> None:
        if self.method in WER_SOURCES and self.value < 0:
            raise ValueError(f"{self.method} score must be >= 0")


def align_words(hyp: list[str] | tuple[str, ...],
                ref: list[str] | tuple[str, ...]) -> EditAlignment:
    """Minimal-cost edit alignment with unit costs.

    Backtrace ties are resolved preferring substitute over delete over
    insert, so identical inputs always produce identical alignments.
    """
    h, r = len(hyp), len(ref)
    # dp[i][j] = minimal edits aligning hyp[:i] with ref[:j]
    dp = [[0] * (r + 1) for _ in range(h + 1)]
    for i in range(1, h + 1):
        dp[i][0] = i
    for j in range(1, r + 1):
        dp[0][j] = j
    for i in range(1, h + 1):
        row = dp[i]
        prev = dp[i - 1]
        hyp_word = hyp[i - 1]
        for j in range(1, r + 1):
            diag = prev[j - 1] + (0 if hyp_word == ref[j - 1] else 1)
            up = prev[j] + 1      # insert: extra hyp word
            left = row[j - 1] + 1  # delete: missed ref word
            best = diag
            if up < best:
                best = up
            if left < best:
                best = left
            row[j] = best

    ops: list[EditOp] = []
    i, j = h, r
    while i > 0 or j > 0:
        if i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + (
                0 if hyp[i - 1] == ref[j - 1] else 1):
            op = MATCH if hyp[i - 1] == ref[j - 1] else SUBSTITUTE
            ops.append(EditOp(op, i - 1, j - 1, hyp[i - 1], ref[j - 1]))
            i -= 1
            j -= 1
        elif j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            ops.append(EditOp(DELETE, None, j - 1, None, ref[j - 1]))
            j -= 1
        else:
            ops.append(EditOp(INSERT, i - 1, None, hyp[i - 1], None))
            i -= 1
    ops.reverse()

    n_match = sum(1 for o in ops if o.op == MATCH)
    n_sub = sum(1 for o in ops if o.op == SUBSTITUTE)
    n_ins = sum(1 for o in ops if o.op == INSERT)
    n_del = sum(1 for o in ops if o.op == DELETE)
    return EditAlignment(tuple(ops), n_match, n_sub, n_ins, n_del, h, r)


def wer(alignment: EditAlignment) -> float:
    """(substitutions + insertions + deletions) / reference length.

    An empty reference against a non-empty hypothesis scores 1.0 instead of
    dividing by zero.
    """
    if alignment.ref_len == 0:
        return 0.0 if alignment.hyp_len == 0 else 1.0
    return alignment.cost / alignment.ref_len


def inconsistency_score(hyp: Transcript, ref: Transcript,
                        utterance_id: str = "",
                        *, method: str,
                        model_name: str | None = None,
                        run_index: int | None = None) -> ScoreRecord:
    """WER of hyp against ref, recorded under a WER_SOURCES method.

    The reference takes the denominator role; for the ngram and llm methods
    it is the generated reference, and higher values mean the acoustics
    deviate further from the inferred intended message.
    """
    alignment = align_words(hyp.words, ref.words)
    return ScoreRecord(
        utterance_id=utterance_id,
        method=method,
        value=wer(alignment),
        model_name=model_name,
        run_index=run_index,
        n_edits=alignment.cost,
        ref_len=alignment.ref_len,
    )


def reference_wer(hyp: Transcript, ground_truth: Transcript | None,
                  utterance_id: str = "",
                  *, method: str = "reference_wer",
                  model_name: str | None = None,
                  run_index: int | None = None) -> ScoreRecord:
    """Standard WER against the ground-truth transcription."""
    if ground_truth is None:
        raise MissingInputError(f"{utterance_id}: no ground-truth text")
    return inconsistency_score(hyp, ground_truth, utterance_id, method=method,
                               model_name=model_name, run_index=run_index)


def diff_report(alignment: EditAlignment) -> tuple[EditOp, ...]:
    """Highlight spans: every alignment op that is not a match, in order."""
    return tuple(op for op in alignment.ops if op.op != MATCH)


def render_diff(alignment: EditAlignment) -> str:
    """Side-by-side text rendering with differences marked by asterisks."""
    hyp_cells: list[str] = []
    ref_cells: list[str] = []
    for op in alignment.ops:
        hyp_word = op.hyp_word if op.hyp_word is not None else ""
        ref_word = op.ref_word if op.ref_word is not None else ""
        if op.op != MATCH:
            hyp_word = f"*{hyp_word}*" if hyp_word else "*"
            ref_word = f"*{ref_word}*" if ref_word else "*"
        width = max(len(hyp_word), len(ref_word))
        hyp_cells.append(hyp_word.ljust(width))
        ref_cells.append(ref_word.ljust(width))
    return f"hyp: {' '.join(hyp_cells).rstrip()}\nref: {' '.join(ref_cells).rstrip()}"


def diff_to_jsonl(spans: tuple[EditOp, ...]) -> str:
    """Machine-readable diff: one JSON object per span."""
    return "\n".join(json.dumps(asdict(op), ensure_ascii=False) for op in spans)
