"""Independent oracles the tests check the library against.

Everything here is deliberately written from definitions (exhaustive
enumeration, direct formulas, plain quadrature) and shares no code with
the implementations under test. The one exception is
`reference_decode_beams`, the previous prefix beam search kept verbatim:
it builds every child hypothesis as a dataclass, and the lazy search must
return exactly its `DecodedBeam` lists.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from asr_inconsistency.decoder import (
    DecodedBeam,
    DecoderConfig,
    fused_score,
    labels_to_words,
)
from asr_inconsistency.errors import EmptyBeamError
from asr_inconsistency.ngram import NGramModel
from asr_inconsistency.posteriors import PosteriorMatrix
from asr_inconsistency.vocab import Vocabulary

NEG_INF = float("-inf")


# --- CTC ---------------------------------------------------------------------

def collapse_by_definition(path, blank):
    """Merge runs of identical labels, then remove blanks."""
    merged = [k for k, _ in itertools.groupby(path)]
    return tuple(k for k in merged if k != blank)


def alignment_sums(frames: np.ndarray, blank: int) -> dict[tuple[int, ...], float]:
    """Log probability mass of every collapsed string, by full enumeration."""
    t, v = frames.shape
    masses: dict[tuple[int, ...], list[float]] = {}
    for path in itertools.product(range(v), repeat=t):
        logp = sum(frames[i][k] for i, k in enumerate(path))
        masses.setdefault(collapse_by_definition(path, blank), []).append(logp)
    out = {}
    for prefix, logps in masses.items():
        m = max(logps)
        out[prefix] = m + math.log(sum(math.exp(x - m) for x in logps))
    return out


def best_collapsed(frames: np.ndarray, blank: int) -> tuple[tuple[int, ...], float]:
    """Argmax collapsed string; ties go to the lexicographically smallest."""
    sums = alignment_sums(frames, blank)
    best = min(sums.items(), key=lambda kv: (-kv[1], kv[0]))
    return best[0], best[1]


def ctc_string_logprob(frames: np.ndarray, blank: int,
                       target: tuple[int, ...]) -> float:
    """Mass of one specific collapsed string (enumeration)."""
    sums = alignment_sums(frames, blank)
    return sums.get(target, float("-inf"))


def argmax_by_scan(row) -> int:
    """Linear scan argmax with lowest-index tie-break."""
    best_i, best_v = 0, row[0]
    for i, v in enumerate(row):
        if v > best_v:
            best_i, best_v = i, v
    return best_i


# --- the previous prefix beam search -----------------------------------------

def _logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass
class BeamHypothesis:
    """One collapsed prefix tracked during the search.

    All fields besides the two mass slots are functions of the prefix, so
    hypotheses reaching the same prefix from different parents can be merged
    by adding their masses.
    """

    prefix: tuple[int, ...]
    logp_blank: float = NEG_INF      # mass of alignments ending in blank
    logp_nonblank: float = NEG_INF   # mass ending in the last prefix symbol
    lm_state: tuple[str, ...] = ()
    lm_logp: float = 0.0             # accumulated ln P of completed words
    word_count: int = 0
    partial_word: str = ""

    @property
    def total_logp(self) -> float:
        return _logaddexp(self.logp_blank, self.logp_nonblank)


def reference_decode_beams(post: PosteriorMatrix, vocab: Vocabulary,
                           lm: NGramModel | None, cfg: DecoderConfig) -> list[DecodedBeam]:
    """Run the prefix beam search and return surviving hypotheses, best first.

    With lm=None (or alpha=0) the score of a hypothesis is exactly the
    log-sum of all alignment paths that collapse to its prefix. Ties are
    broken toward the lexicographically smallest prefix, which makes the
    search fully deterministic.
    """
    blank = vocab.blank_index
    delim = vocab.delimiter_index
    symbols = vocab.symbols
    n_symbols = len(symbols)
    ctx0 = lm.initial_context() if lm is not None else ()

    def child_of(parent: BeamHypothesis, label: int) -> BeamHypothesis:
        if label == delim and parent.partial_word:
            if lm is not None:
                word_lp, state = lm.advance(parent.lm_state, parent.partial_word)
            else:
                word_lp, state = 0.0, ()
            return BeamHypothesis(
                prefix=parent.prefix + (label,),
                lm_state=state,
                lm_logp=parent.lm_logp + word_lp,
                word_count=parent.word_count + 1,
                partial_word="",
            )
        partial = parent.partial_word
        if label != delim:
            partial = partial + symbols[label]
        return BeamHypothesis(
            prefix=parent.prefix + (label,),
            lm_state=parent.lm_state,
            lm_logp=parent.lm_logp,
            word_count=parent.word_count,
            partial_word=partial,
        )

    beams: dict[tuple[int, ...], BeamHypothesis] = {
        (): BeamHypothesis(prefix=(), logp_blank=0.0, lm_state=ctx0)
    }

    for t in range(post.frame_count):
        row = post.frames[t].tolist()
        next_beams: dict[tuple[int, ...], BeamHypothesis] = {}
        for prefix, hyp in beams.items():
            p_total = hyp.total_logp
            if p_total == NEG_INF:
                continue
            # blank keeps the prefix
            same = next_beams.get(prefix)
            if same is None:
                same = BeamHypothesis(
                    prefix=prefix, lm_state=hyp.lm_state, lm_logp=hyp.lm_logp,
                    word_count=hyp.word_count, partial_word=hyp.partial_word)
                next_beams[prefix] = same
            same.logp_blank = _logaddexp(same.logp_blank, p_total + row[blank])
            # repeating the last symbol also keeps the prefix
            if prefix:
                same.logp_nonblank = _logaddexp(
                    same.logp_nonblank, hyp.logp_nonblank + row[prefix[-1]])
            # extensions with a new non-blank symbol
            for k in range(n_symbols):
                if k == blank:
                    continue
                # a repeated symbol needs an intervening blank; only the
                # blank-ending mass may extend with it
                src = hyp.logp_blank if (prefix and k == prefix[-1]) else p_total
                if src == NEG_INF:
                    continue
                new_prefix = prefix + (k,)
                child = next_beams.get(new_prefix)
                if child is None:
                    child = child_of(hyp, k)
                    next_beams[new_prefix] = child
                child.logp_nonblank = _logaddexp(child.logp_nonblank, src + row[k])
        if not next_beams:
            raise EmptyBeamError(f"{post.utterance_id}: no surviving hypothesis")
        best_total = max(h.total_logp for h in next_beams.values())
        if best_total == NEG_INF:
            raise EmptyBeamError(f"{post.utterance_id}: all hypotheses at -inf mass")
        floor = best_total + cfg.prune_logp_floor
        ranked = sorted(
            (h for h in next_beams.values() if h.total_logp >= floor),
            key=lambda h: (-fused_score(h.total_logp, h.lm_logp, h.word_count, cfg),
                           h.prefix),
        )
        beams = {h.prefix: h for h in ranked[:cfg.beam_width]}

    finished: list[DecodedBeam] = []
    for hyp in beams.values():
        lm_total = hyp.lm_logp
        word_count = hyp.word_count
        state = hyp.lm_state
        if hyp.partial_word:
            if lm is not None:
                word_lp, state = lm.advance(state, hyp.partial_word)
                lm_total += word_lp
            word_count += 1
        if lm is not None:
            lm_total += lm.final_logprob(state)
        finished.append(DecodedBeam(
            prefix=hyp.prefix,
            words=tuple(labels_to_words(list(hyp.prefix), vocab)),
            acoustic_logp=hyp.total_logp,
            lm_logp=lm_total,
            word_count=word_count,
            score=fused_score(hyp.total_logp, lm_total, word_count, cfg),
        ))
    finished.sort(key=lambda b: (-b.score, b.prefix))
    return finished


# --- edit distance ------------------------------------------------------------

def edit_cost_recursive(a, b) -> int:
    """Memoized textbook recurrence, independent of the DP implementation."""
    memo: dict[tuple[int, int], int] = {}

    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        key = (i, j)
        if key in memo:
            return memo[key]
        same = 0 if a[i - 1] == b[j - 1] else 1
        val = min(go(i - 1, j - 1) + same, go(i - 1, j) + 1, go(i, j - 1) + 1)
        memo[key] = val
        return val

    return go(len(a), len(b))


def edit_costs_batch(pairs_a: np.ndarray, pairs_b: np.ndarray) -> np.ndarray:
    """Vectorized DP cost over a batch of equal-length integer sequences.

    pairs_a has shape (n, la), pairs_b (n, lb); returns (n,) costs.
    """
    n, la = pairs_a.shape
    _, lb = pairs_b.shape
    prev = np.broadcast_to(np.arange(lb + 1), (n, lb + 1)).copy()
    for i in range(1, la + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = pairs_a[:, i - 1]
        for j in range(1, lb + 1):
            sub = prev[:, j - 1] + (ai != pairs_b[:, j - 1])
            np.minimum(sub, prev[:, j] + 1, out=sub)
            np.minimum(sub, cur[:, j - 1] + 1, out=sub)
            cur[:, j] = sub
        prev = cur
    return prev[:, lb]


# --- statistics ----------------------------------------------------------------

def pearson_direct(x, y) -> float:
    """Textbook covariance over product of standard deviations."""
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def t_pdf(x: float, df: float) -> float:
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def t_sf_numeric(t: float, df: float) -> float:
    """P(T > t) by trapezoid quadrature of the density (t >= 0)."""
    # integrate the right tail on a substituted grid u = t + tan(theta)
    # to cover (t, inf) with a finite grid
    thetas = np.linspace(0.0, math.pi / 2 - 1e-9, 200001)
    xs = t + np.tan(thetas)
    jac = 1.0 / np.cos(thetas) ** 2
    ys = np.array([t_pdf(float(x), df) for x in xs]) * jac
    # the trapezoid rule written out (np.trapezoid needs numpy >= 2.0)
    return float(np.sum((ys[1:] + ys[:-1]) * np.diff(thetas)) / 2.0)


def welch_oracle(a, b) -> tuple[float, float]:
    """Welch statistic, dof and two-sided p via the numeric tail integral."""
    na, nb = len(a), len(b)
    ma = sum(a) / na
    mb = sum(b) / nb
    va = sum((x - ma) ** 2 for x in a) / (na - 1)
    vb = sum((x - mb) ** 2 for x in b) / (nb - 1)
    se2 = va / na + vb / nb
    t = (ma - mb) / math.sqrt(se2)
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    p = 2.0 * t_sf_numeric(abs(t), df)
    return t, min(1.0, p)
