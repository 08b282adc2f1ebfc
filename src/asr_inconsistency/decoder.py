"""Greedy and beam CTC decoding over log-posterior matrices.

Greedy decoding takes the per-frame argmax and collapses the raw path
(merge runs of identical labels, then drop blanks). Beam decoding is a
prefix beam search: hypotheses are collapsed label prefixes carrying
separate probability mass for paths ending in blank vs. non-blank, merged
by log-sum-exp, with a word-level language model fused in at every word
boundary and once more at the end of the utterance.

Children are built lazily. Each frame scores every extension of every
surviving prefix as a plain mass in one array. An extension whose prefix is
already in the beam is merged into that prefix's slot, which is found
through a prefix trie rather than by hashing tuples. Every other extension
is a new child, and its mass is that single term. Then the frame's best
total is known before any child exists, and the floor (best total plus
`prune_logp_floor`) drops exactly the children the full search would have
built and dropped. Prefix tuples, partial words and LM states are built
only for the `beam_width` survivors. `lm.advance` runs for a word boundary
that survives the floor, and is cached per (LM state, word).

The search is still exact. A prefix's mass has at most two non-blank terms
(a repeat of its last symbol and an extension of its parent prefix) and one
blank term, and log-sum-exp of two terms does not depend on their order. So
the masses, scores and tie-breaks equal those of building every child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBeamError
from .ngram import NGramModel
from .posteriors import PosteriorMatrix
from .transcript import Transcript, TranscriptSource
from .vocab import Vocabulary

NEG_INF = float("-inf")


def _logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


@dataclass(frozen=True)
class RawPath:
    """Per-frame label indices before collapsing."""

    labels: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DecoderConfig:
    alpha: float = 0.5   # language-model weight
    beta: float = 0.5    # per-word insertion bonus
    beam_width: int = 100
    prune_logp_floor: float = -20.0  # mass floor relative to the frame's best

    def __post_init__(self) -> None:
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if math.isnan(self.beta):
            raise ValueError("beta must be a number")
        # a positive or NaN floor would prune every hypothesis, the best too
        if not self.prune_logp_floor <= 0:
            raise ValueError("prune_logp_floor must be <= 0")


def greedy_decode(post: PosteriorMatrix) -> RawPath:
    """Most probable symbol per frame; ties go to the lowest index."""
    labels = np.argmax(post.frames, axis=1)
    return RawPath(tuple(int(x) for x in labels))


def collapse_labels(labels: tuple[int, ...] | list[int], blank_index: int) -> list[int]:
    """Merge runs of identical labels, then remove blanks (in that order)."""
    merged: list[int] = []
    prev: int | None = None
    for lab in labels:
        if lab != prev:
            merged.append(lab)
        prev = lab
    return [lab for lab in merged if lab != blank_index]


def labels_to_words(labels: list[int] | tuple[int, ...], vocab: Vocabulary) -> list[str]:
    """Join blank-free labels into word strings, splitting at the delimiter."""
    words: list[str] = []
    current: list[str] = []
    for lab in labels:
        if lab == vocab.delimiter_index:
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(vocab.symbols[lab])
    if current:
        words.append("".join(current))
    return words


def collapse(raw: RawPath, vocab: Vocabulary) -> Transcript:
    """Collapse a raw path into the normalized greedy transcript."""
    labels = collapse_labels(raw.labels, vocab.blank_index)
    words = labels_to_words(labels, vocab)
    return Transcript.from_raw(" ".join(words), TranscriptSource.GREEDY)


def fused_score(acoustic_logp: float, lm_logp: float, word_count: int,
                cfg: DecoderConfig) -> float:
    """Combined hypothesis score: acoustic + alpha * LM + beta * word count."""
    return acoustic_logp + cfg.alpha * lm_logp + cfg.beta * word_count


@dataclass(frozen=True)
class DecodedBeam:
    """A finished hypothesis with its score decomposition."""

    prefix: tuple[int, ...]
    words: tuple[str, ...]
    acoustic_logp: float
    lm_logp: float
    word_count: int
    score: float


def _memoised_advance(lm: NGramModel | None):
    """lm.advance cached per (LM state, word) for one search."""
    cache: dict[tuple[tuple[str, ...], str], tuple[float, tuple[str, ...]]] = {}

    def advance(state: tuple[str, ...], word: str) -> tuple[float, tuple[str, ...]]:
        key = (state, word)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = lm.advance(state, word) if lm is not None else (0.0, ())
        return hit

    return advance


def _top(scores: np.ndarray, width: int, prefix_of) -> list[int]:
    """Indices of the `width` highest scores; ties at the cut go to the
    smallest prefix, and only tied candidates have their prefix built."""
    n = len(scores)
    if n <= width:
        return list(range(n))
    cut = np.partition(scores, n - width)[n - width]
    above = np.flatnonzero(scores > cut).tolist()
    tied = np.flatnonzero(scores == cut).tolist()
    if len(above) + len(tied) > width:
        tied = sorted(tied, key=prefix_of)[:width - len(above)]
    return above + tied


def decode_beams(post: PosteriorMatrix, vocab: Vocabulary,
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
    advance = _memoised_advance(lm)
    # node ids of a prefix trie kept for this call: a prefix's node is
    # node_of[(node of prefix[:-1], last symbol)]
    node_of: dict[tuple[int, int], int] = {}
    node_parent = [-1]

    # one slot per surviving prefix: (prefix, mass ending in blank, mass
    # ending in the last symbol, LM state, ln P of completed words, word
    # count, partial word, trie node)
    ctx0 = lm.initial_context() if lm is not None else ()
    beam = [((), 0.0, NEG_INF, ctx0, 0.0, 0, "", 0)]

    for t in range(post.frame_count):
        row = post.frames[t]
        row_list = row.tolist()
        (prefixes, logp_blank, logp_nonblank, lm_states, lm_logps,
         word_counts, partial_words, nodes) = zip(*beam)
        n = len(beam)
        totals = [_logaddexp(b, nb) for b, nb in zip(logp_blank, logp_nonblank)]
        if max(totals) == NEG_INF:
            raise EmptyBeamError(f"{post.utterance_id}: no surviving hypothesis")
        lasts = [p[-1] if p else -1 for p in prefixes]

        # a blank, or a repeat of the last symbol, keeps a slot's prefix
        keep_blank = [tot + row_list[blank] for tot in totals]
        keep_nonblank = [nb + row_list[k] if k >= 0 else NEG_INF
                         for nb, k in zip(logp_nonblank, lasts)]
        keep_exists = [tot != NEG_INF for tot in totals]

        # extending slot i with symbol k draws on all of its mass, or only on
        # the blank-ending mass when k repeats its last symbol
        src = np.repeat(np.array(totals), n_symbols).reshape(n, n_symbols)
        ends = [i for i in range(n) if lasts[i] >= 0]
        src[ends, [lasts[i] for i in ends]] = [logp_blank[i] for i in ends]
        src[:, blank] = NEG_INF
        ext = src + row

        # an extension whose prefix is already in the beam merges into that
        # slot: slot j's prefix extends the slot holding prefix[:-1]
        slot_of = dict(zip(nodes, range(n)))
        merged = [j for j in range(n) if node_parent[nodes[j]] in slot_of]
        if merged:
            rows = [slot_of[node_parent[nodes[j]]] for j in merged]
            cols = [lasts[j] for j in merged]
            for j, s, e in zip(merged, src[rows, cols].tolist(), ext[rows, cols].tolist()):
                if s != NEG_INF:
                    keep_nonblank[j] = _logaddexp(keep_nonblank[j], e)
                    keep_exists[j] = True
            src[rows, cols] = NEG_INF
        keep_totals = [_logaddexp(b, nb) for b, nb in zip(keep_blank, keep_nonblank)]

        # every other extension is a new child whose mass is one term, so
        # the frame's best total is known before any child is built
        is_new = src != NEG_INF
        best_total = max((tot for tot, ok in zip(keep_totals, keep_exists) if ok),
                         default=NEG_INF)
        if is_new.any():
            best_total = max(best_total, float(ext[is_new].max()))
        if best_total == NEG_INF:
            raise EmptyBeamError(f"{post.utterance_id}: all hypotheses at -inf mass")
        floor = best_total + cfg.prune_logp_floor

        kept = [j for j in range(n) if keep_exists[j] and keep_totals[j] >= floor]
        flat = np.flatnonzero(is_new & (ext >= floor))
        parent_of = (flat // n_symbols).tolist()
        child_symbols = flat % n_symbols
        symbol_of = child_symbols.tolist()
        child_logp = ext.ravel()[flat]
        # fused_score, element by element in the same order of operations
        child_scores = (child_logp + (cfg.alpha * np.array(lm_logps))[parent_of]
                        + (cfg.beta * np.array(word_counts))[parent_of])
        # a word boundary completes the partial word and scores it
        for c in np.flatnonzero(child_symbols == delim).tolist():
            i = parent_of[c]
            if partial_words[i]:
                word_lp, _ = advance(lm_states[i], partial_words[i])
                child_scores[c] = fused_score(float(child_logp[c]), lm_logps[i] + word_lp,
                                              word_counts[i] + 1, cfg)
        child_logp = child_logp.tolist()

        n_kept = len(kept)
        scores = np.concatenate((
            [fused_score(keep_totals[j], lm_logps[j], word_counts[j], cfg) for j in kept],
            child_scores))

        def prefix_of(c: int) -> tuple[int, ...]:
            if c < n_kept:
                return prefixes[kept[c]]
            return prefixes[parent_of[c - n_kept]] + (symbol_of[c - n_kept],)

        beam = []
        for c in _top(scores, cfg.beam_width, prefix_of):
            if c < n_kept:
                j = kept[c]
                beam.append((prefixes[j], keep_blank[j], keep_nonblank[j], lm_states[j],
                             lm_logps[j], word_counts[j], partial_words[j], nodes[j]))
                continue
            c -= n_kept
            i, k = parent_of[c], symbol_of[c]
            state, lm_logp, word_count = lm_states[i], lm_logps[i], word_counts[i]
            partial = partial_words[i]
            if k != delim:
                partial += symbols[k]
            elif partial:
                word_lp, state = advance(state, partial)
                lm_logp += word_lp
                word_count += 1
                partial = ""
            node = node_of.get((nodes[i], k))
            if node is None:
                node = node_of[(nodes[i], k)] = len(node_parent)
                node_parent.append(nodes[i])
            beam.append((prefixes[i] + (k,), NEG_INF, child_logp[c], state,
                         lm_logp, word_count, partial, node))

    finished: list[DecodedBeam] = []
    for prefix, logp_b, logp_nb, state, lm_total, word_count, partial, _ in beam:
        total = _logaddexp(logp_b, logp_nb)
        if partial:
            if lm is not None:
                word_lp, state = advance(state, partial)
                lm_total += word_lp
            word_count += 1
        if lm is not None:
            lm_total += lm.final_logprob(state)
        finished.append(DecodedBeam(
            prefix=prefix,
            words=tuple(labels_to_words(prefix, vocab)),
            acoustic_logp=total,
            lm_logp=lm_total,
            word_count=word_count,
            score=fused_score(total, lm_total, word_count, cfg),
        ))
    finished.sort(key=lambda b: (-b.score, b.prefix))
    return finished


def beam_search_decode(post: PosteriorMatrix, vocab: Vocabulary,
                       lm: NGramModel | None, cfg: DecoderConfig) -> Transcript:
    """Highest-scoring sentence under the fused acoustic + LM score."""
    beams = decode_beams(post, vocab, lm, cfg)
    if not beams:
        raise EmptyBeamError(f"{post.utterance_id}: the beam search kept no hypothesis")
    return Transcript.from_raw(" ".join(beams[0].words), TranscriptSource.NGRAM_REFERENCE)
