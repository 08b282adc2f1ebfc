"""Greedy and beam CTC decoding over log-posterior matrices.

Greedy decoding takes the per-frame argmax and collapses the raw path
(merge runs of identical labels, then drop blanks). Beam decoding is a
prefix beam search: hypotheses are collapsed label prefixes carrying
separate probability mass for paths ending in blank vs. non-blank, merged
by log-sum-exp, with a word-level language model fused in at every word
boundary and once more at the end of the utterance.

The beam is a struct of arrays. Each surviving prefix is one slot, one
column of a float matrix (the two masses, ln P of the completed words and
of closing the partial word) and of an int matrix (word count, prefix node,
parent node and last symbol, interned LM state before and after closing
the partial word, and the partial word's lexicon node), so a frame's
bookkeeping is array operations, not a Python loop over the slots. The
frame scores every extension of every slot as a plain mass in one
(slots x symbols) array. An extension whose prefix is already in the beam
merges into that prefix's slot: prefixes are nodes of a trie kept for the
search, and a node-to-slot table, rewritten each frame, finds the slot
holding each slot's parent node. Every other extension is a new child
whose mass is that single term. So the frame's best total is known before
any child exists, and the floor (best total plus `prune_logp_floor`) drops
exactly the children the full search would have built and dropped. The
children's fused scores are one more (slots x symbols) array, and only the
`beam_width` survivors become slots. In a full beam a child scored below
the worst kept slot cannot make the cut. A frame where no child passes the
floor and that bound (most blank frames of a flattened, blank-padded
utterance) ends once the kept slots carry its masses: it runs no cut, and
builds no child, trie node or key.

Each slot also keeps its prefix as a string key, chr(symbol) per symbol.
Keys compare like the symbol tuples, a shorter prefix first, so one sort
of the tied candidates' keys breaks a tie at the beam's cut. Keys serve
only those ties and the finished prefixes.

A slot's partial word, the text after its last delimiter, is a node of a
`Lexicon`: a trie of the texts the vocabulary spells on the way to a word
the LM knows, with one absorbing node for every text that has left it.
The trie is built once per (model, vocabulary) and kept on the model. A
born child's node is one array lookup from its parent's node and its
symbol, and a delimiter returns to the root. A delimiter child completes
its parent's partial word, and `is_word[node]` is the set test of the LM's
lowercased queries. Each slot carries the word's score, ln P and the next
LM state, from the first frame its delimiter child passes the floor until
its partial word changes. LM states are canonical: `NGramModel.advance`
drops the history up to the last word that no n-gram contains, so every
state after such a word is the empty history, and the word scores the OOV
floor, or P(<unk> | state) when the model has <unk>. Only known words reach
`lm.advance`, once per (state, node) in a search.

At the end every open partial word is closed and the end of the sentence
scored for all slots at once; one array of fused scores and one sort by
(-score, key) order the finished beams. Only the first `n_best` of them
(all by default, one for `beam_search_decode`) are built as `DecodedBeam`s.

The search is still exact. A prefix's mass has at most two non-blank terms
(a repeat of its last symbol and an extension of its parent prefix) and one
blank term, and log-sum-exp of two terms does not depend on their order.
`np.logaddexp` gives the bits of the scalar max + log1p(exp(min - max)), and
the scores follow `fused_score`'s order of operations element by element.
So the masses, scores and tie-breaks equal those of building every child.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBeamError
from .ngram import OOV_FLOOR_LN, NGramModel
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


@dataclass(frozen=True, eq=False)
class Lexicon:
    """The partial words a vocabulary can spell towards an LM's known words,
    as a trie over its symbols.

    A node is the text of a symbol sequence, so two sequences that spell the
    same text (a symbol "ch", or "c" then "h") share one. Node 0 is the empty
    word. A text is a node while some way of lowercasing it is still the
    start of a known word, and the last node, `out`, absorbs every text that
    has left the lexicon. The delimiter leads from every node back to the
    root. `is_word[node]` is whether the node's text, lowercased, is a known
    word, the set test of every LM query. The edges are sorted
    `node * n_symbols + symbol` keys, so the table grows with the trie's
    edges, not with nodes x symbols.
    """

    n_symbols: int
    edge_keys: np.ndarray   # ascending, then a sentinel above every key
    edge_nodes: np.ndarray  # the node each edge leads to (`out` for the sentinel)
    is_word: np.ndarray
    words: dict[int, str]   # the text of each word node

    @property
    def out(self) -> int:
        return len(self.is_word) - 1

    def step(self, nodes: np.ndarray, symbols: np.ndarray) -> np.ndarray:
        """The nodes after appending `symbols`; a delimiter returns to the root."""
        keys = nodes * self.n_symbols + symbols
        at = self.edge_keys.searchsorted(keys)
        after = self.edge_nodes[at]
        after[self.edge_keys[at] != keys] = self.out
        return after


def build_lexicon(known_words: frozenset[str], vocab: Vocabulary) -> Lexicon:
    """The lexicon trie of `known_words` over the vocabulary's word symbols.

    Lowercasing maps each character on its own, except that a capital sigma
    after a cased letter becomes a final sigma unless a cased letter follows
    it (case-ignorable characters such as an apostrophe are skipped). So
    only a text's last sigma can change as the text grows, and a text has
    two candidate lowercasings: as it stands, and with a cased letter ("a")
    after it. A text is a node when either candidate starts a known word.
    The walk tries a symbol only when its first lowercased character, in any
    context, comes next in a known word.
    """
    symbols = vocab.symbols
    n_symbols = len(symbols)
    ordered = sorted(known_words)

    def lowercasings(text: str) -> set[str]:
        return {text.lower(), (text + "a").lower()[:-1]}

    def first_word(start: str) -> int:
        """The index of the first known word that starts with `start`, or
        the number of words."""
        i = bisect.bisect_left(ordered, start)
        return i if i < len(ordered) and ordered[i].startswith(start) else len(ordered)

    def next_chars(start: str) -> set[str]:
        chars = set()
        for i in range(first_word(start), len(ordered)):
            w = ordered[i]
            if not w.startswith(start):
                break
            chars.update(w[len(start):len(start) + 1])
        return chars

    by_first: dict[str, list[int]] = {}
    for k, s in enumerate(symbols):
        if k not in (vocab.blank_index, vocab.delimiter_index):
            for c in dict.fromkeys((s.lower()[0], (s + "a").lower()[0],
                                    ("a" + s).lower()[1], ("a" + s + "a").lower()[1])):
                by_first.setdefault(c, []).append(k)

    texts = [""]
    node_of = {"": 0}
    edge_keys: list[int] = []
    edge_nodes: list[int] = []
    # texts grows as the walk finds nodes
    for node, text in enumerate(texts):
        tried = sorted({k for x in lowercasings(text) for c in next_chars(x)
                        for k in by_first.get(c, ())})
        for k in tried:
            child_text = text + symbols[k]
            if all(first_word(x) == len(ordered) for x in lowercasings(child_text)):
                continue
            child = node_of.get(child_text)
            if child is None:
                child = node_of[child_text] = len(texts)
                texts.append(child_text)
            edge_keys.append(node * n_symbols + k)
            edge_nodes.append(child)
    out = len(texts)
    # the delimiter edges, then a sentinel above every key that keeps a
    # lookup's insertion point in range
    keys = np.concatenate((np.array(edge_keys, dtype=np.int64),
                           np.arange(out + 1, dtype=np.int64) * n_symbols + vocab.delimiter_index,
                           [np.iinfo(np.int64).max]))
    nodes = np.concatenate((np.array(edge_nodes, dtype=np.int64),
                            np.zeros(out + 1, dtype=np.int64), [out]))
    order = np.argsort(keys, kind="stable")
    words = {node: text for node, text in enumerate(texts) if text.lower() in known_words}
    is_word = np.zeros(out + 1, dtype=bool)
    is_word[list(words)] = True
    return Lexicon(n_symbols, keys[order], nodes[order], is_word, words)


def lexicon_of(lm: NGramModel | None, vocab: Vocabulary) -> Lexicon:
    """The model's lexicon trie for `vocab`, built on first use and kept on
    the model; without a model, a trie that holds no word."""
    if lm is None:
        return build_lexicon(frozenset(), vocab)
    lexicon = lm.lexicons.get(vocab)
    if lexicon is None:
        lexicon = lm.lexicons[vocab] = build_lexicon(lm.known_words, vocab)
    return lexicon


def _word_closer(lm: NGramModel | None, lexicon: Lexicon):
    """Scores the partial words one search completes.

    LM states are interned, so the search carries each as a small int, and
    `states[state_id]` is the state tuple itself. `close(state_ids, nodes)`
    returns ln P(word | state) and the next state id of every pair of a
    state and a lexicon node, as two arrays. `lm.advance` returns the
    shortest equivalent state, so every state after a word that no n-gram
    contains is the empty history. Such a word scores the OOV floor in any
    state, or P(<unk> | state) when the model has <unk>, once per state.
    Only known words reach `lm.advance`, once per (state, node). Without a
    model every word scores 0 into the one empty state.
    """
    states = [lm.initial_context() if lm is not None else ()]
    state_ids = {states[0]: 0}
    cache: dict[tuple[int, int], tuple[float, int]] = {}
    unk_lp: dict[int, float] = {}

    def intern(state: tuple[str, ...]) -> int:
        state_id = state_ids.get(state)
        if state_id is None:
            state_id = state_ids[state] = len(states)
            states.append(state)
        return state_id

    def advance(state_id: int, node: int) -> tuple[float, int]:
        key = (state_id, node)
        hit = cache.get(key)
        if hit is None:
            word_lp, state = lm.advance(states[state_id], lexicon.words[node])
            hit = cache[key] = (word_lp, intern(state))
        return hit

    def unk(state_id: int) -> float:
        lp = unk_lp.get(state_id)
        if lp is None:
            lp = unk_lp[state_id] = lm.word_logprob(lm.unk_token, states[state_id])
        return lp

    if lm is None:
        oov = (0.0, 0)
    else:
        oov = (OOV_FLOOR_LN, intern(()))

    def close(state_ids: np.ndarray, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        word_lp = np.full(len(nodes), oov[0])
        next_state = np.full(len(nodes), oov[1])
        known = lexicon.is_word[nodes]  # no word is known without a model
        if lm is not None and lm.unk_token is not None:
            absent = (~known).nonzero()[0]
            word_lp[absent] = [unk(s) for s in state_ids[absent].tolist()]
        exact = known.nonzero()[0]
        if exact.size:
            looked_up = [advance(s, k)
                         for s, k in zip(state_ids[exact].tolist(), nodes[exact].tolist())]
            word_lp[exact] = [lp for lp, _ in looked_up]
            next_state[exact] = [s for _, s in looked_up]
        return word_lp, next_state

    return close, states


def _top(scores: np.ndarray, width: int, keys_of) -> np.ndarray:
    """Ascending indices of the `width` highest scores; ties at the cut go
    to the smallest key, and only tied candidates have their key built."""
    n = len(scores)
    if n <= width:
        return np.arange(n)
    part = scores.copy()
    part.partition(n - width)
    cut = part[n - width]
    chosen = scores >= cut
    extra = np.count_nonzero(chosen) - width
    if extra > 0:
        tied = (scores == cut).nonzero()[0]
        keys = keys_of(tied)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        chosen[tied[order[len(keys) - extra:]]] = False
    return chosen.nonzero()[0]


def _grown(columns: np.ndarray, stay: np.ndarray, n_born: int, born: tuple) -> np.ndarray:
    """The columns `stay` of a per-slot matrix, then `n_born` new columns
    whose rows are the arrays or scalars in `born`."""
    n_stay = len(stay)
    out = np.empty((len(columns), n_stay + n_born), dtype=columns.dtype)
    out[:, :n_stay] = columns[:, stay]
    for row, value in zip(out, born):
        row[n_stay:] = value
    return out


def decode_beams(post: PosteriorMatrix, vocab: Vocabulary,
                 lm: NGramModel | None, cfg: DecoderConfig,
                 n_best: int | None = None) -> list[DecodedBeam]:
    """Run the prefix beam search and return surviving hypotheses, best first.

    With lm=None (or alpha=0) the score of a hypothesis is exactly the
    log-sum of all alignment paths that collapse to its prefix. Ties are
    broken toward the lexicographically smallest prefix, which makes the
    search fully deterministic. With `n_best`, only the first `n_best`
    hypotheses of that list are built and returned; the search is the same.
    """
    if n_best is not None and n_best < 1:
        raise ValueError("n_best must be >= 1")
    blank = vocab.blank_index
    delim = vocab.delimiter_index
    symbols = vocab.symbols
    n_symbols = len(symbols)
    alpha, beta = cfg.alpha, cfg.beta
    lexicon = lexicon_of(lm, vocab)
    close_words, lm_states = _word_closer(lm, lexicon)
    # a prefix's key is the string of chr(symbol) over its symbols: keys
    # compare like the symbol tuples, and a shorter prefix sorts first
    symbol_keys = [chr(k) for k in range(n_symbols)]

    # node ids of a prefix trie kept for this call: a prefix's node is
    # node_of[node of prefix[:-1] * n_symbols + last symbol]; the empty
    # prefix is node 0. Every born child takes an id, so ids stay below
    # n_ids, and slot_of[node] is the slot holding that node this frame
    node_of: dict[int, int] = {}
    new_node = itertools.count(1)
    n_ids = 1
    slot_of = np.zeros(64, dtype=np.int64)

    # The beam, one column per slot. floats: the mass ending in blank, the
    # mass ending in the last symbol, ln P of the completed words, and ln P
    # of closing the partial word with a delimiter. ints: the completed word
    # count, the prefix's trie node, its parent's node, its last symbol (-1
    # for the empty prefix), the interned LM state, the LM state after
    # closing the partial word, and the partial word's lexicon node (0 for
    # no partial word). The closing pair is looked up the first time the
    # slot's delimiter child passes the floor (NaN and -1 until then).
    # keys: the prefix keys, a Python list.
    floats = np.array([[0.0], [NEG_INF], [0.0], [np.nan]])
    ints = np.array([[0], [0], [-1], [-1], [0], [-1], [0]], dtype=np.int64)
    keys = [""]
    # slot indices: the first n of them are a frame's slots
    slot_range = np.arange(cfg.beam_width)

    for t in range(post.frame_count):
        row = post.frames[t]
        logp_b, logp_nb, lm_logp, close_lp = floats
        words, node, parent, last, state, close_state, word = ints
        n = len(keys)
        slots = slot_range[:n]
        open_word = word != 0
        # the frame's best slot always stays, so some total is finite
        totals = np.logaddexp(logp_b, logp_nb)

        # a blank, or a repeat of the last symbol, keeps a slot's prefix (the
        # empty prefix's non-blank mass is -inf, so row[-1] adds nothing)
        keep_b = totals + row[blank]
        keep_nb = logp_nb + row[last]
        keep_exists = totals != NEG_INF

        # extending slot i with symbol k draws on all of its mass, or only on
        # the blank-ending mass when k repeats its last symbol (the empty
        # prefix's total is its blank mass, so its row[-1] entry is right too)
        src = totals.repeat(n_symbols).reshape(n, n_symbols)
        src[slots, last] = logp_b
        src[:, blank] = NEG_INF
        ext = src + row

        # an extension whose prefix is already in the beam merges into that
        # slot: slot j's prefix extends the slot holding j's parent node. An
        # entry of slot_of not written this frame cannot pass the node test
        slot_of[node] = slots
        rows = np.minimum(slot_of[parent], n - 1)
        merged = (node[rows] == parent).nonzero()[0]
        if merged.size:
            rows = rows[merged]
            cols = last[merged]
            live = src[rows, cols] != NEG_INF
            into = merged[live]
            keep_nb[into] = np.logaddexp(keep_nb[into], ext[rows[live], cols[live]])
            keep_exists[into] = True
            src[rows, cols] = ext[rows, cols] = NEG_INF
        keep_totals = np.logaddexp(keep_b, keep_nb)

        # every other extension is a new child whose mass is one term, so
        # the frame's best total is known before any child is built (a slot
        # that does not exist has a total of -inf, and ext is -inf wherever
        # src is)
        best_total = max(float(np.maximum.reduce(keep_totals)),
                         float(np.maximum.reduce(ext, axis=None)))
        if best_total == NEG_INF:
            raise EmptyBeamError(f"{post.utterance_id}: all hypotheses at -inf mass")
        floor = best_total + cfg.prune_logp_floor

        kept = (keep_exists & (keep_totals >= floor)).nonzero()[0]
        # above a finite floor every child's src is finite; below none, every
        # extension with a finite src is a child, whatever its mass
        is_child = ext >= floor if floor > NEG_INF else src != NEG_INF
        # a delimiter child completes its parent's partial word and scores it
        closer = (open_word & is_child[:, delim]).nonzero()[0]
        todo = closer[np.isnan(close_lp[closer])]
        if todo.size:
            close_lp[todo], close_state[todo] = close_words(state[todo], word[todo])
        # fused_score, element by element in the same order of operations,
        # with the completed word's ln P and count for a delimiter child
        lm_term = alpha * lm_logp
        words_term = beta * words
        child_scores = ext + lm_term[:, None]
        child_scores += words_term[:, None]
        # the closing scores of every slot, read only at the closers (a slot
        # whose closing pair is not looked up yet scores NaN)
        child_scores[closer, delim] = (ext[:, delim]
                                       + alpha * (lm_logp + close_lp)
                                       + beta * (words + 1))[closer]
        kept_scores = (keep_totals + lm_term + words_term)[kept]
        n_kept = len(kept)
        if n_kept == cfg.beam_width:
            # the cut is no lower than the worst kept score, so a child
            # below it cannot make the beam
            is_child &= child_scores >= np.minimum.reduce(kept_scores)
        flat = is_child.ravel().nonzero()[0]
        # a slot that stays carries this frame's masses
        logp_b[:], logp_nb[:] = keep_b, keep_nb
        if not flat.size:
            # nothing is born: no more than beam_width slots are kept, so
            # all of them stay, in their order
            if n_kept < n:
                floats, ints = floats[:, kept], ints[:, kept]
                keys = [keys[j] for j in kept.tolist()]
            continue
        scores = np.concatenate((kept_scores, child_scores.ravel()[flat]))

        def keys_of(c: np.ndarray) -> list[str]:
            parents, syms = np.divmod(flat[c[c >= n_kept] - n_kept], n_symbols)
            return [keys[i] for i in kept[c[c < n_kept]].tolist()] + [
                keys[i] + symbol_keys[k] for i, k in zip(parents.tolist(), syms.tolist())]

        chosen = _top(scores, cfg.beam_width, keys_of)
        split = chosen.searchsorted(n_kept)
        stay = kept[chosen[:split]]
        born = flat[chosen[split:] - n_kept]
        born_parent, born_symbol = np.divmod(born, n_symbols)
        n_born = len(born)
        parent_node = node[born_parent]
        closes = (born_symbol == delim) & open_word[born_parent]
        born_lm = lm_logp[born_parent]
        born_lm[closes] += close_lp[born_parent[closes]]
        # closing a word moves a child to the LM state after it
        born_state = np.where(closes, close_state[born_parent], state[born_parent])
        # a new prefix takes the next node id, a returning one keeps its own
        born_node = np.fromiter(map(
            node_of.setdefault, (parent_node * n_symbols + born_symbol).tolist(), new_node),
            np.int64, n_born)
        n_ids += n_born
        if n_ids > len(slot_of):
            slot_of = np.zeros(2 * n_ids, dtype=np.int64)
        floats = _grown(floats, stay, n_born, (NEG_INF, ext.ravel()[born], born_lm, np.nan))
        ints = _grown(ints, stay, n_born, (
            words[born_parent] + closes, born_node, parent_node, born_symbol, born_state, -1,
            lexicon.step(word[born_parent], born_symbol)))
        keys = [keys[j] for j in stay.tolist()] + [
            keys[i] + symbol_keys[k]
            for i, k in zip(born_parent.tolist(), born_symbol.tolist())]

    # close the partial words still open and score the end of the sentence,
    # for all slots at once
    logp_b, logp_nb, lm_logp, _ = floats
    words, _, _, _, state, _, word = ints
    open_word = word != 0
    words = words + open_word
    if lm is not None:
        ends = open_word.nonzero()[0]
        word_lp, state[ends] = close_words(state[ends], word[ends])
        lm_logp[ends] += word_lp
        end_lp = {s: lm.final_logprob(lm_states[s]) for s in set(state.tolist())}
        lm_logp += [end_lp[s] for s in state.tolist()]
    totals = np.logaddexp(logp_b, logp_nb)
    # fused_score, element by element in the same order of operations
    scores = totals + alpha * lm_logp + beta * words
    # best first; a tie goes to the smaller key, which is the smaller prefix
    order = [i for _, _, i in sorted(zip((-scores).tolist(), keys, range(len(keys))))][:n_best]
    keys = [keys[i] for i in order]
    delim_key = symbol_keys[delim]
    text_of = dict(enumerate(symbols))  # str.translate table: key -> text
    return list(map(
        DecodedBeam,
        [tuple(map(ord, key)) for key in keys],
        [tuple(w.translate(text_of) for w in key.split(delim_key) if w) for key in keys],
        *(a[order].tolist() for a in (totals, lm_logp, words, scores))))


def beam_search_decode(post: PosteriorMatrix, vocab: Vocabulary,
                       lm: NGramModel | None, cfg: DecoderConfig) -> Transcript:
    """Highest-scoring sentence under the fused acoustic + LM score."""
    # the posterior goes first and the module global is looked up per call,
    # so a wrapper of decode_beams sees every search
    beams = decode_beams(post, vocab, lm, cfg, 1)
    if not beams:
        raise EmptyBeamError(f"{post.utterance_id}: the beam search kept no hypothesis")
    return Transcript.from_raw(" ".join(beams[0].words))
