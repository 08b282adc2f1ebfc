"""Greedy and beam CTC decoding over log-posterior matrices.

Greedy decoding takes the per-frame argmax and collapses the raw path
(merge runs of identical labels, then drop blanks). Beam decoding is a
prefix beam search: hypotheses are collapsed label prefixes carrying
separate probability mass for paths ending in blank vs. non-blank, merged
by log-sum-exp, with a word-level language model fused in at every word
boundary and once more at the end of the utterance.

The beam is a struct of arrays. Each surviving prefix is one slot, and
each per-slot value (the two masses, LM log-prob and word count, trie node,
parent node and last symbol, interned LM state) is one entry of a numpy
array, so a frame's bookkeeping is array operations, not a Python loop over
the slots. The frame scores every extension of every slot as a plain mass
in one (slots x symbols) array. An extension whose prefix is already in the
beam merges into that prefix's slot, which is the slot whose parent node is
the extended slot's node. Every other extension is a new child whose mass
is that single term. So the frame's best total is known before any child
exists, and the floor (best total plus `prune_logp_floor`) drops exactly
the children the full search would have built and dropped. Only the
`beam_width` survivors become Python objects: prefix tuples and partial
words are lists gathered by survivor index.

A delimiter child completes its parent's partial word and scores it with
the LM. Each slot carries that score, ln P and the next LM state, from the
first frame its delimiter child passes the floor until its partial word
changes. `lm.advance` runs once per (LM state, word) in a search.

The search is still exact. A prefix's mass has at most two non-blank terms
(a repeat of its last symbol and an extension of its parent prefix) and one
blank term, and log-sum-exp of two terms does not depend on their order.
`np.logaddexp` gives the bits of the scalar max + log1p(exp(min - max)), and
the scores follow `fused_score`'s order of operations element by element.
So the masses, scores and tie-breaks equal those of building every child.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBeamError
from .ngram import NGramModel
from .posteriors import PosteriorMatrix
from .transcript import Transcript
from .vocab import Vocabulary

NEG_INF = float("-inf")


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
        # an infinite weight turns the scores into inf or NaN (inf * 0.0)
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ValueError("alpha must be a finite number >= 0")
        if not math.isfinite(self.beta):
            raise ValueError("beta must be a finite number")
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
    return Transcript.from_raw(" ".join(words))


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
    """lm.advance cached per (LM state, word) for one search.

    LM states are interned, so the search carries each as a small int:
    `advance(state_id, word)` returns (ln P(word | state), next state id),
    and `states[state_id]` is the state tuple itself.
    """
    states = [lm.initial_context() if lm is not None else ()]
    state_ids = {states[0]: 0}
    cache: dict[tuple[int, str], tuple[float, int]] = {}

    def advance(state_id: int, word: str) -> tuple[float, int]:
        key = (state_id, word)
        hit = cache.get(key)
        if hit is None:
            word_lp, state = (lm.advance(states[state_id], word) if lm is not None
                              else (0.0, ()))
            next_id = state_ids.get(state)
            if next_id is None:
                next_id = state_ids[state] = len(states)
                states.append(state)
            hit = cache[key] = (word_lp, next_id)
        return hit

    return advance, states


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
    alpha, beta = cfg.alpha, cfg.beta
    advance, lm_states = _memoised_advance(lm)
    # node ids of a prefix trie kept for this call: a prefix's node is
    # node_of[node of prefix[:-1] * n_symbols + last symbol]; the empty
    # prefix is node 0
    node_of: dict[int, int] = {}

    # The beam, one entry per slot in each array: mass ending in blank and
    # mass ending in the last symbol; ln P of the completed words and their
    # count; the prefix's trie node, its parent's node and its last symbol
    # (-1 for the empty prefix); the interned LM state; whether the partial
    # word is non-empty; and what closing that partial word with a
    # delimiter adds, ln P and the next LM state, looked up the first time
    # the slot's delimiter child passes the floor (NaN and -1 until then).
    # Prefix tuples and partial words stay Python lists.
    logp_b = np.zeros(1)
    logp_nb = np.full(1, NEG_INF)
    lm_logp = np.zeros(1)
    words = np.zeros(1, dtype=np.int64)
    node = np.zeros(1, dtype=np.int64)
    parent = np.full(1, -1, dtype=np.int64)
    last = np.full(1, -1, dtype=np.int64)
    state = np.zeros(1, dtype=np.int64)
    open_word = np.zeros(1, dtype=bool)
    close_lp = np.full(1, np.nan)
    close_state = np.full(1, -1, dtype=np.int64)
    prefixes: list[tuple[int, ...]] = [()]
    partials = [""]

    for t in range(post.frame_count):
        row = post.frames[t]
        n = len(prefixes)
        totals = np.logaddexp(logp_b, logp_nb)
        if totals.max() == NEG_INF:
            raise EmptyBeamError(f"{post.utterance_id}: no surviving hypothesis")

        # a blank, or a repeat of the last symbol, keeps a slot's prefix (the
        # empty prefix's non-blank mass is -inf, so row[-1] adds nothing)
        keep_b = totals + row[blank]
        keep_nb = logp_nb + row[last]
        keep_exists = totals != NEG_INF

        # extending slot i with symbol k draws on all of its mass, or only on
        # the blank-ending mass when k repeats its last symbol
        src = np.repeat(totals, n_symbols).reshape(n, n_symbols)
        ends = np.flatnonzero(last >= 0)
        src[ends, last[ends]] = logp_b[ends]
        src[:, blank] = NEG_INF
        ext = src + row

        # an extension whose prefix is already in the beam merges into that
        # slot: slot j's prefix extends the slot whose node is j's parent
        by_node = np.argsort(node)
        at = np.minimum(np.searchsorted(node[by_node], parent), n - 1)
        merged = np.flatnonzero(node[by_node[at]] == parent)
        if merged.size:
            rows = by_node[at[merged]]
            cols = last[merged]
            live = src[rows, cols] != NEG_INF
            into = merged[live]
            keep_nb[into] = np.logaddexp(keep_nb[into], ext[rows[live], cols[live]])
            keep_exists[into] = True
            src[rows, cols] = ext[rows, cols] = NEG_INF
        keep_totals = np.logaddexp(keep_b, keep_nb)

        # every other extension is a new child whose mass is one term, so
        # the frame's best total is known before any child is built (ext is
        # -inf wherever src is)
        is_new = src != NEG_INF
        best_total = float(max(keep_totals.max(initial=NEG_INF, where=keep_exists),
                               ext.max()))
        if best_total == NEG_INF:
            raise EmptyBeamError(f"{post.utterance_id}: all hypotheses at -inf mass")
        floor = best_total + cfg.prune_logp_floor

        kept = np.flatnonzero(keep_exists & (keep_totals >= floor))
        flat = np.flatnonzero(is_new & (ext >= floor))
        child_parent = flat // n_symbols
        child_symbol = flat - child_parent * n_symbols
        child_logp = ext.ravel()[flat]
        child_lm = lm_logp[child_parent]
        child_words = words[child_parent]
        # a word boundary completes the parent's partial word and scores it
        closing = np.flatnonzero((child_symbol == delim) & open_word[child_parent])
        if closing.size:
            closer = child_parent[closing]
            todo = closer[np.isnan(close_lp[closer])]
            if todo.size:
                looked_up = [advance(s, partials[i])
                             for s, i in zip(state[todo].tolist(), todo.tolist())]
                close_lp[todo] = [word_lp for word_lp, _ in looked_up]
                close_state[todo] = [s for _, s in looked_up]
            child_lm[closing] += close_lp[closer]
            child_words[closing] += 1
        # fused_score, element by element in the same order of operations
        scores = np.concatenate((
            keep_totals[kept] + alpha * lm_logp[kept] + beta * words[kept],
            child_logp + alpha * child_lm + beta * child_words))
        n_kept = len(kept)

        def prefix_of(c: int) -> tuple[int, ...]:
            if c < n_kept:
                return prefixes[kept.item(c)]
            c -= n_kept
            return prefixes[child_parent.item(c)] + (child_symbol.item(c),)

        chosen = np.sort(_top(scores, cfg.beam_width, prefix_of))
        split = np.searchsorted(chosen, n_kept)
        stay = kept[chosen[:split]]
        born = chosen[split:] - n_kept
        born_parent = child_parent[born]
        born_symbol = child_symbol[born]
        closes = born_symbol == delim

        logp_b = np.concatenate((keep_b[stay], np.full(len(born), NEG_INF)))
        logp_nb = np.concatenate((keep_nb[stay], child_logp[born]))
        lm_logp = np.concatenate((lm_logp[stay], child_lm[born]))
        words = np.concatenate((words[stay], child_words[born]))
        parent_node = node[born_parent]
        parent = np.concatenate((parent[stay], parent_node))
        last = np.concatenate((last[stay], born_symbol))
        state = np.concatenate((
            state[stay],
            np.where(closes & open_word[born_parent], close_state[born_parent],
                     state[born_parent])))
        open_word = np.concatenate((open_word[stay], ~closes))
        close_lp = np.concatenate((close_lp[stay], np.full(len(born), np.nan)))
        close_state = np.concatenate((close_state[stay], np.full(len(born), -1)))

        stay_l = stay.tolist()
        born_l = list(zip(born_parent.tolist(), born_symbol.tolist()))
        node = np.concatenate((node[stay], [
            node_of.setdefault(key, len(node_of) + 1)
            for key in (parent_node * n_symbols + born_symbol).tolist()]))
        prefixes = ([prefixes[j] for j in stay_l]
                    + [prefixes[i] + (k,) for i, k in born_l])
        partials = ([partials[j] for j in stay_l]
                    + [partials[i] + symbols[k] if k != delim else "" for i, k in born_l])

    finished: list[DecodedBeam] = []
    for prefix, total, lm_total, word_count, state_id, partial in zip(
            prefixes, np.logaddexp(logp_b, logp_nb).tolist(), lm_logp.tolist(),
            words.tolist(), state.tolist(), partials):
        if partial:
            if lm is not None:
                word_lp, state_id = advance(state_id, partial)
                lm_total += word_lp
            word_count += 1
        if lm is not None:
            lm_total += lm.final_logprob(lm_states[state_id])
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
    return Transcript.from_raw(" ".join(beams[0].words))
