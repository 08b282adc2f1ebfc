import itertools
import math

import numpy as np
import pytest

from asr_inconsistency import (
    DecoderConfig,
    NGramModel,
    PosteriorMatrix,
    RawPath,
    Transcript,
    Vocabulary,
    beam_search_decode,
    collapse,
    decode_beams,
    fused_score,
    greedy_decode,
    load_manifest,
    load_posteriors,
    load_vocabulary,
    parse_arpa,
)
from asr_inconsistency import decoder
from asr_inconsistency.decoder import collapse_labels, labels_to_words
from asr_inconsistency.errors import EmptyBeamError
from asr_inconsistency.synthetic import LEXICON

import oracles
from conftest import (
    BIGRAM_ONLY_WORD_ARPA,
    TRIGRAM_ARPA,
    UNK_BIGRAM_ARPA,
    UPPER_CASE_ARPA,
    matrix_from_probs,
    peaked_rows,
    random_log_matrix,
)

NO_FUSION = DecoderConfig(alpha=0.0, beta=0.0, beam_width=256,
                          prune_logp_floor=float("-inf"))


class TestGreedy:
    def test_one_hot_rows(self, abc_vocab):
        post = matrix_from_probs("u", peaked_rows([0, 2, 2, 3], 5))
        assert greedy_decode(post).labels == (0, 2, 2, 3)

    def test_single_frame_favoring_blank(self, abc_vocab):
        post = matrix_from_probs("u", peaked_rows([0], 5))
        assert greedy_decode(post).labels == (0,)

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(21)
        post = PosteriorMatrix.from_array("u", random_log_matrix(rng, 3, 4))
        expected = tuple(oracles.argmax_by_scan(row) for row in post.frames)
        assert greedy_decode(post).labels == expected

    def test_tie_breaks_to_lowest_index(self):
        arr = np.log(np.full((2, 4), 0.25))
        post = PosteriorMatrix.from_array("u", arr)
        assert greedy_decode(post).labels == (0, 0)

    def test_row_shift_invariance_with_validation_off(self):
        rng = np.random.default_rng(22)
        logs = random_log_matrix(rng, 5, 4)
        shifted = logs + rng.uniform(0.5, 2.0, size=(5, 1))
        a = greedy_decode(PosteriorMatrix.from_array("u", logs))
        b = greedy_decode(PosteriorMatrix("u", shifted))
        assert a.labels == b.labels


class TestCollapse:
    def test_merge_then_remove_blank(self, abc_vocab):
        # a a <blank> a b -> merge runs -> a <blank> a b -> drop blank -> a a b
        raw = RawPath((2, 2, 0, 2, 3))
        assert collapse(raw, abc_vocab).words == ("aab",)

    def test_all_blank_path_is_empty(self, abc_vocab):
        assert collapse(RawPath((0, 0, 0)), abc_vocab).words == ()

    def test_blank_separates_repeats(self, abc_vocab):
        # a <blank> <blank> a stays two units after collapsing
        assert collapse_labels((2, 0, 0, 2), 0) == [2, 2]

    def test_idempotent_on_merge_free_blank_free_labels(self):
        for labels in itertools.product(range(1, 4), repeat=4):
            once = collapse_labels(labels, 0)
            if list(labels) == once:  # already collapsed
                assert collapse_labels(once, 0) == once

    def test_delimiter_splits_words(self, abc_vocab):
        raw = RawPath((2, 1, 3, 3, 1, 4))
        assert collapse(raw, abc_vocab).words == ("a", "b", "c")

    def test_leading_and_double_delimiters_make_no_empty_words(self, abc_vocab):
        # adjacent delimiters survive collapsing when a blank sat between them
        assert labels_to_words([1, 2, 1, 1, 3], abc_vocab) == ["a", "b"]


class TestFusedScore:
    def test_arithmetic(self):
        cfg = DecoderConfig(alpha=0.5, beta=0.5)
        assert fused_score(-2.0, -3.0, 2, cfg) == pytest.approx(-2.5)

    def test_identity_at_zero_weights(self):
        cfg = DecoderConfig(alpha=0.0, beta=0.0)
        assert fused_score(-1.25, -99.0, 7, cfg) == -1.25

    def test_unit_weights(self):
        cfg = DecoderConfig(alpha=1.0, beta=1.0)
        assert fused_score(-1.0, -1.0, 1, cfg) == pytest.approx(-1.0)


class TestBeamSearchOracle:
    def test_matches_exhaustive_oracle_on_random_instances(self, abc_vocab):
        rng = np.random.default_rng(33)
        for _ in range(60):
            t = int(rng.integers(1, 5))
            v = int(rng.integers(2, 5))
            vocab = Vocabulary(abc_vocab.symbols[:v], 0, 1)
            post = PosteriorMatrix.from_array("u", random_log_matrix(rng, t, v))
            expected_prefix, expected_score = oracles.best_collapsed(post.frames, 0)
            best = decode_beams(post, vocab, None, NO_FUSION)[0]
            assert best.prefix == expected_prefix
            assert best.score == pytest.approx(expected_score, abs=1e-9)

    def test_uniform_rows_tie_break_to_smallest_prefix(self, abc_vocab):
        # every single-symbol string ties at 3 paths x 0.04; the smallest
        # non-blank index must win on both sides
        post = matrix_from_probs("u", np.full((2, 5), 0.2))
        expected_prefix, expected_score = oracles.best_collapsed(post.frames, 0)
        best = decode_beams(post, abc_vocab, None, NO_FUSION)[0]
        assert best.prefix == expected_prefix == (1,)
        assert best.score == pytest.approx(expected_score, abs=1e-12)

    def test_single_uniform_frame_ties_to_empty_prefix(self, abc_vocab):
        post = matrix_from_probs("u", np.full((1, 5), 0.2))
        expected_prefix, _ = oracles.best_collapsed(post.frames, 0)
        best = decode_beams(post, abc_vocab, None, NO_FUSION)[0]
        assert best.prefix == expected_prefix == ()

    def test_one_hot_equals_greedy_collapse(self, abc_vocab):
        rng = np.random.default_rng(34)
        for _ in range(20):
            hot = rng.integers(0, 5, size=6)
            post = matrix_from_probs("u", peaked_rows(hot, 5, hot=0.9999))
            greedy = collapse(greedy_decode(post), abc_vocab)
            beam = beam_search_decode(post, abc_vocab, None, NO_FUSION)
            assert beam.words == greedy.words

    def test_narrow_beam_still_decodes(self, abc_vocab):
        rng = np.random.default_rng(35)
        post = PosteriorMatrix.from_array("u", random_log_matrix(rng, 6, 5))
        cfg = DecoderConfig(alpha=0.0, beta=0.0, beam_width=1)
        assert len(decode_beams(post, abc_vocab, None, cfg)) == 1

    def test_determinism_across_calls(self, abc_vocab):
        rng = np.random.default_rng(36)
        post = PosteriorMatrix.from_array("u", random_log_matrix(rng, 5, 5))
        cfg = DecoderConfig(alpha=0.3, beta=0.2, beam_width=8)
        lm = parse_arpa("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\n-0.5\tb\n\n\\end\\\n")
        first = decode_beams(post, abc_vocab, lm, cfg)
        for _ in range(3):
            again = decode_beams(post, abc_vocab, lm, cfg)
            assert [(b.prefix, b.score) for b in again] == \
                [(b.prefix, b.score) for b in first]


def flip_instance():
    """Posteriors spelling 'beul' with an ambiguous final character, plus a
    unigram model that prefers 'beuk'."""
    vocab = Vocabulary(("<blank>", "|", "b", "e", "u", "l", "k"), 0, 1)
    rows = peaked_rows([2, 3, 4], 7, hot=0.97).tolist()
    final = np.full(7, 0.005 / 5)
    final[5] = 0.6   # l: acoustically preferred
    final[6] = 0.395  # k: the LM's favorite
    rows.append(final)
    post = matrix_from_probs("flip", np.asarray(rows))
    lm = parse_arpa(
        "\\data\\\nngram 1=2\n\n\\1-grams:\n"
        "-0.045757490560675115\tbeuk\n"   # log10 0.9
        "-4.0\tbeul\n"
        "\n\\end\\\n")
    return post, vocab, lm


class TestFusionFlip:
    def test_alpha_zero_keeps_acoustic_choice(self):
        post, vocab, lm = flip_instance()
        out = beam_search_decode(post, vocab, lm,
                                 DecoderConfig(alpha=0.0, beta=0.0, beam_width=64))
        assert out.words == ("beul",)

    def test_large_alpha_flips_to_lm_choice(self):
        post, vocab, lm = flip_instance()
        out = beam_search_decode(post, vocab, lm,
                                 DecoderConfig(alpha=1.0, beta=0.0, beam_width=64))
        assert out.words == ("beuk",)

    def test_flip_happens_at_the_analytic_threshold(self):
        post, vocab, lm = flip_instance()
        beul = tuple(vocab.symbols.index(c) for c in "beul")
        beuk = tuple(vocab.symbols.index(c) for c in "beuk")
        ctc_beul = oracles.ctc_string_logprob(post.frames, 0, beul)
        ctc_beuk = oracles.ctc_string_logprob(post.frames, 0, beuk)
        lm_beul = lm.sequence_logprob(["beul"])
        lm_beuk = lm.sequence_logprob(["beuk"])
        # direct two-hypothesis score comparison: flip when
        # ctc_beul + a*lm_beul < ctc_beuk + a*lm_beuk
        threshold = (ctc_beul - ctc_beuk) / (lm_beuk - lm_beul)
        assert 0.005 < threshold < 0.995

        flip_alpha = None
        for step in range(101):
            alpha = step / 100
            cfg = DecoderConfig(alpha=alpha, beta=0.0, beam_width=64)
            out = beam_search_decode(post, vocab, lm, cfg)
            if out.words == ("beuk",):
                flip_alpha = alpha
                break
            assert out.words == ("beul",)
        assert flip_alpha is not None
        assert abs(flip_alpha - threshold) <= 0.01

    def test_agreeing_lm_never_changes_the_output(self):
        # monotonicity: when acoustics and LM prefer the same word, alpha is moot
        post, vocab, _ = flip_instance()
        lm = parse_arpa(
            "\\data\\\nngram 1=2\n\n\\1-grams:\n"
            "-4.0\tbeuk\n"
            "-0.045757490560675115\tbeul\n"
            "\n\\end\\\n")
        for alpha in (0.0, 0.25, 0.5, 1.0):
            out = beam_search_decode(post, vocab, lm,
                                     DecoderConfig(alpha=alpha, beta=0.0, beam_width=64))
            assert out.words == ("beul",)


BOUNDARY_ARPA = """\\data\\
ngram 1=4
ngram 2=2

\\1-grams:
-99\t<s>\t-0.2
-0.4\t</s>
-0.5\ta\t-0.1
-0.9\tb

\\2-grams:
-0.2\t<s> a
-0.3\ta </s>

\\end\\
"""


class TestLmIntegration:
    def test_boundary_tokens_fused_like_sequence_scoring(self, abc_vocab):
        lm = parse_arpa(BOUNDARY_ARPA)
        rng = np.random.default_rng(45)
        post = PosteriorMatrix.from_array("u", random_log_matrix(rng, 5, 5))
        cfg = DecoderConfig(alpha=0.6, beta=0.3, beam_width=64,
                            prune_logp_floor=float("-inf"))
        for beam in decode_beams(post, abc_vocab, lm, cfg)[:8]:
            if beam.words:
                assert beam.lm_logp == pytest.approx(
                    lm.sequence_logprob(list(beam.words)), abs=1e-9)

    def test_beam_lm_total_matches_sequence_logprob(self, bigram_model, abc_vocab):
        rng = np.random.default_rng(44)
        post = PosteriorMatrix.from_array("u", random_log_matrix(rng, 6, 5))
        cfg = DecoderConfig(alpha=0.7, beta=0.4, beam_width=64,
                            prune_logp_floor=float("-inf"))
        for beam in decode_beams(post, abc_vocab, bigram_model, cfg)[:10]:
            if beam.words:
                expected = bigram_model.sequence_logprob(list(beam.words))
                assert beam.lm_logp == pytest.approx(expected, abs=1e-9)
                assert beam.word_count == len(beam.words)
            assert beam.score == pytest.approx(
                fused_score(beam.acoustic_logp, beam.lm_logp, beam.word_count, cfg),
                abs=1e-12)


class TestDecoderConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"beam_width": 0},
        {"alpha": -0.1},
        {"alpha": math.nan},
        {"beta": math.nan},
        {"alpha": math.inf},
        {"beta": math.inf},
        {"beta": -math.inf},
        {"prune_logp_floor": 1.0},
        {"prune_logp_floor": math.nan},
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(ValueError):
            DecoderConfig(**kwargs)

    @pytest.mark.parametrize("floor", [0.0, -20.0, float("-inf")])
    def test_accepts_non_positive_floors(self, floor):
        assert DecoderConfig(prune_logp_floor=floor).prune_logp_floor == floor

    def test_empty_beam_list_raises_a_toolkit_error(self, abc_vocab, monkeypatch):
        post = matrix_from_probs("u", peaked_rows([2], 5))
        monkeypatch.setattr(decoder, "decode_beams", lambda *args: [])
        with pytest.raises(EmptyBeamError):
            beam_search_decode(post, abc_vocab, None, DecoderConfig())


def _decode_or_error(decode, post, vocab, lm, cfg):
    try:
        return decode(post, vocab, lm, cfg)
    except EmptyBeamError as exc:
        return ("EmptyBeamError", str(exc))


def _random_rows(rng, kind: str, t: int, v: int) -> np.ndarray:
    """Natural-log rows of one kind; "holes" may hold -inf entries."""
    if kind == "dirichlet":
        return random_log_matrix(rng, t, v)
    if kind == "uniform":  # every prefix of a length ties exactly
        return np.log(np.full((t, v), 1.0 / v))
    if kind == "quantised":  # a few distinct values per row: many exact ties
        counts = rng.integers(1, 4, size=(t, v)).astype(float)
        return np.log(counts / counts.sum(axis=1, keepdims=True))
    if kind == "peaked":
        return np.log(peaked_rows(rng.integers(0, v, size=t), v,
                                  hot=float(rng.choice([0.9, 0.999]))))
    probs = rng.dirichlet(np.ones(v), size=t)
    if kind == "tiny":  # entries near 1e-300 carry ~-690 nats
        probs[rng.random((t, v)) < 0.4] = 1e-300
        return np.log(probs / probs.sum(axis=1, keepdims=True))
    assert kind == "holes"
    logs = np.log(probs)
    logs[rng.random((t, v)) < 0.3] = -np.inf
    if rng.random() < 0.25:
        logs[rng.integers(0, t)] = -np.inf
    return logs


class TestLazySearchMatchesReference:
    """The lazy search returns the previous search's beam lists bit for bit."""

    def test_random_cases_equal_the_reference_exactly(self, abc_vocab, bigram_model):
        rng = np.random.default_rng(1408)
        settings = itertools.product(
            (1, 2, 3, 5, 8, 100), (-1.0, -3.0, -20.0, float("-inf")),
            (0.0, 0.3, 1.0), (0.0, 0.5, 1.0), (None, bigram_model))
        cases = errors = 0
        for width, floor, alpha, beta, lm in settings:
            cfg = DecoderConfig(alpha=alpha, beta=beta, beam_width=width,
                                prune_logp_floor=floor)
            for kind in ("dirichlet", "uniform", "quantised", "peaked", "tiny", "holes"):
                v = int(rng.integers(3, 6))
                vocab = Vocabulary(abc_vocab.symbols[:v], 0, 1)
                logs = _random_rows(rng, kind, int(rng.integers(1, 7)), v)
                # non-finite rows bypass from_array's validation on purpose
                post = (PosteriorMatrix("u", logs) if kind == "holes"
                        else PosteriorMatrix.from_array("u", logs))
                expected = _decode_or_error(
                    oracles.reference_decode_beams, post, vocab, lm, cfg)
                assert _decode_or_error(decode_beams, post, vocab, lm, cfg) == expected, \
                    (kind, cfg, lm is not None, logs)
                cases += 1
                errors += isinstance(expected, tuple)
        assert cases == 2592
        assert errors > 0

    @pytest.mark.parametrize("temperature", [1.0, 2.0])
    def test_full_beam_on_a_padded_corpus_utterance(self, synthetic_corpus, temperature):
        # every frame of the first default-corpus utterance is followed by
        # four blank frames (T = 115), and the beam is full from frame 3.
        # Unflattened, the -20 floor drops new children on 59 frames (~350
        # of ~2,100 a frame on average); at temperature 2, the longform
        # benchmark's flattening, it drops none.
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        post = load_posteriors(
            synthetic_corpus.root / synthetic_corpus.records[0].posterior_path, vocab)
        blank_row = np.log(peaked_rows([vocab.blank_index], len(vocab), hot=0.994))[0]
        rows = [r for frame in post.frames for r in [frame] + [blank_row] * 4]
        logs = np.asarray(rows) / temperature
        logs -= np.logaddexp.reduce(logs, axis=1, keepdims=True)
        padded = PosteriorMatrix.from_array("padded", logs)
        lm = parse_arpa(_lexicon_bigram_arpa())
        cfg = DecoderConfig()

        expected = oracles.reference_decode_beams(padded, vocab, lm, cfg)
        assert len(expected) == cfg.beam_width
        assert decode_beams(padded, vocab, lm, cfg) == expected


class TestArraySearchOnLongerInputs:
    """Longer inputs under narrow beams: prefixes leave the beam and come
    back, so a returning prefix must get its old trie node, and the word
    boundary value a slot carries must belong to that slot's partial word."""

    def test_long_narrow_cases_equal_the_reference_exactly(self, abc_vocab, bigram_model):
        rng = np.random.default_rng(2873)
        settings = itertools.product((1, 2, 3, 8), (-3.0, float("-inf")),
                                     ((0.3, 0.5), (1.0, 0.0)), (None, bigram_model))
        cases = 0
        for width, floor, (alpha, beta), lm in settings:
            cfg = DecoderConfig(alpha=alpha, beta=beta, beam_width=width,
                                prune_logp_floor=floor)
            for kind in ("dirichlet", "uniform", "quantised", "peaked", "tiny", "holes"):
                v = int(rng.integers(3, 6))
                vocab = Vocabulary(abc_vocab.symbols[:v], 0, 1)
                logs = _random_rows(rng, kind, int(rng.integers(20, 41)), v)
                post = (PosteriorMatrix("u", logs) if kind == "holes"
                        else PosteriorMatrix.from_array("u", logs))
                expected = _decode_or_error(
                    oracles.reference_decode_beams, post, vocab, lm, cfg)
                assert _decode_or_error(decode_beams, post, vocab, lm, cfg) == expected, \
                    (kind, cfg, lm is not None)
                cases += 1
        assert cases == 192

    @pytest.mark.parametrize("use_lm", [False, True])
    def test_beam_fields_are_python_values(self, abc_vocab, bigram_model, use_lm):
        # a numpy scalar would print as np.float64(...) in a CSV cell
        rng = np.random.default_rng(46)
        post = PosteriorMatrix.from_array("u", random_log_matrix(rng, 12, 5))
        beams = decode_beams(post, abc_vocab, bigram_model if use_lm else None,
                             DecoderConfig(beam_width=8))
        assert len(beams) == 8
        for beam in beams:
            assert type(beam.prefix) is tuple
            assert all(type(k) is int for k in beam.prefix)
            assert type(beam.words) is tuple
            assert all(type(w) is str for w in beam.words)
            assert type(beam.acoustic_logp) is float
            assert type(beam.lm_logp) is float
            assert type(beam.word_count) is int
            assert type(beam.score) is float


# (model, symbols): every way a word boundary is scored. Without <unk> a
# word no n-gram contains takes the OOV floor without an lm.advance call;
# with <unk> every word is looked up; "ca" appears only in bigram keys, so
# it scores the floor but the state after it is not the empty history; an
# upper-case symbol is lowercased before the set test, like every query
WORD_BOUNDARY_MODELS = {
    "unk_bigram": (UNK_BIGRAM_ARPA, ("<blank>", "|", "a", "b", "c")),
    "trigram": (TRIGRAM_ARPA, ("<blank>", "|", "a", "b", "c")),
    "upper_case": (UPPER_CASE_ARPA, ("<blank>", "|", "A", "b", "c")),
    "bigram_only_word": (BIGRAM_ONLY_WORD_ARPA, ("<blank>", "|", "a", "b", "c")),
    "no_lm": (None, ("<blank>", "|", "a", "b", "c")),
}


class TestWordBoundariesMatchReference:
    """The OOV set test and the canonical LM states give the reference
    search's beam lists bit for bit, and only in-vocabulary words reach
    NGramModel.advance, once per (state, word)."""

    @pytest.mark.parametrize("name", list(WORD_BOUNDARY_MODELS))
    def test_seeded_cases_equal_the_reference_exactly(self, name):
        arpa, symbols = WORD_BOUNDARY_MODELS[name]
        lm = parse_arpa(arpa) if arpa is not None else None
        vocab = Vocabulary(symbols, 0, 1)
        rng = np.random.default_rng(list(WORD_BOUNDARY_MODELS).index(name) + 2014)
        settings = itertools.product((2, 8, 100), (-3.0, float("-inf")),
                                     ((0.3, 0.5), (1.0, 0.0)))
        for width, floor, (alpha, beta) in settings:
            cfg = DecoderConfig(alpha=alpha, beta=beta, beam_width=width,
                                prune_logp_floor=floor)
            for kind in ("dirichlet", "uniform", "quantised", "peaked", "tiny", "holes"):
                # four frames or more spell two words, such as "ca|b"
                logs = _random_rows(rng, kind, int(rng.integers(4, 10)), len(symbols))
                post = (PosteriorMatrix("u", logs) if kind == "holes"
                        else PosteriorMatrix.from_array("u", logs))
                expected = _decode_or_error(
                    oracles.reference_decode_beams, post, vocab, lm, cfg)
                assert _decode_or_error(decode_beams, post, vocab, lm, cfg) == expected, \
                    (name, kind, cfg)

    @pytest.mark.parametrize("temperature", [1.0, 2.0])
    def test_advance_runs_once_per_state_and_known_word(
            self, synthetic_corpus, temperature, monkeypatch):
        post, vocab = _padded_corpus_utterance(synthetic_corpus, temperature)
        lm = parse_arpa(_lexicon_bigram_arpa())
        calls = []
        advance = NGramModel.advance

        def recording(model, context, word):
            calls.append((context, word))
            return advance(model, context, word)

        monkeypatch.setattr(NGramModel, "advance", recording)
        decode_beams(post, vocab, lm, DecoderConfig())
        assert calls
        assert len(set(calls)) == len(calls)
        for context, word in calls:
            assert word.lower() in lm.known_words
            assert set(context) <= lm.known_words


def _padded_corpus_utterance(synthetic_corpus, temperature):
    """The first default-corpus utterance with four blank frames after
    every frame (T = 115), flattened by `temperature`."""
    vocab = load_vocabulary(synthetic_corpus.vocab_path)
    post = load_posteriors(
        synthetic_corpus.root / synthetic_corpus.records[0].posterior_path, vocab)
    blank_row = np.log(peaked_rows([vocab.blank_index], len(vocab), hot=0.994))[0]
    rows = [r for frame in post.frames for r in [frame] + [blank_row] * 4]
    logs = np.asarray(rows) / temperature
    logs -= np.logaddexp.reduce(logs, axis=1, keepdims=True)
    return PosteriorMatrix.from_array("padded", logs), vocab


def _lexicon_bigram_arpa() -> str:
    """A back-off bigram model over the synthetic lexicon, with boundary
    tokens, two listed successors per word and back-off for the rest."""
    n = len(LEXICON)
    lines = ["\\data\\", f"ngram 1={n + 2}", f"ngram 2={2 * n + 1}", "",
             "\\1-grams:", "-99\t<s>\t-0.3", "-1.5\t</s>"]
    lines += [f"-1.4\t{w}\t-0.3" for w in LEXICON]
    lines += ["", "\\2-grams:", f"-0.8\t<s> {LEXICON[0]}"]
    for i, w in enumerate(LEXICON):
        lines.append(f"-0.2\t{w} {LEXICON[(i + 1) % n]}")
        lines.append(f"-0.7\t{w} {LEXICON[(i + 5) % n]}")
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


def _bigram_arpa(words: tuple[str, ...], unk: bool) -> str:
    """A back-off bigram model over `words` (plus <unk> when asked), with
    boundary tokens and each word followed by the next one."""
    vocab = ("<s>", "</s>", *words) + (("<unk>",) if unk else ())
    pairs = [("<s>", words[0])] + list(zip(words, words[1:] + words[:1]))
    lines = ["\\data\\", f"ngram 1={len(vocab)}", f"ngram 2={len(pairs)}", "",
             "\\1-grams:"]
    lines += [f"{-99 if w == '<s>' else -0.3 - 0.1 * i}\t{w}\t-0.2"
              for i, w in enumerate(vocab)]
    lines += ["", "\\2-grams:"] + [f"-0.15\t{a} {b}" for a, b in pairs]
    lines += ["", "\\end\\", ""]
    return "\n".join(lines)


# (word symbols, LM words): symbols whose texts lowercase in ways a
# per-symbol trie could get wrong. A multi-character symbol spells what
# two single letters spell; an upper-case symbol matches a lower-case word,
# and an upper-case LM word matches no query; a capital sigma after a cased
# letter lowercases to a final sigma unless a cased letter follows it,
# skipping an apostrophe (and in "bς" only the final sigma follows "b"); a
# dotted capital I lowercases to two characters
TRICKY_LEXICONS = {
    "multi_char": (("ch", "c", "h", "a"), ("ch", "cha", "hc", "cch", "ac", "h")),
    "upper_case": (("A", "b", "C", "c"), ("ab", "cab", "Ab", "bc", "cc")),
    "sigma": (("Σ", "σ", "ς", "A", "B", "'"),
              ("σ", "aς", "aσa", "σς", "σσ", "a'ς", "a'σa", "ςa", "aσ", "bς")),
    "dotted_i": (("İ", "i", "I", "̇"), ("i̇", "ii̇", "i̇i", "i", "ı")),
}


class TestLexiconMatchesTheStringRule:
    """The lexicon trie answers every partial word like the string rule,
    `"".join(texts).lower() in lm.known_words`, and closes it like
    `lm.advance`, on every symbol sequence up to length 4."""

    @pytest.mark.parametrize("unk", [False, True], ids=["no_unk", "unk"])
    @pytest.mark.parametrize("name", list(TRICKY_LEXICONS))
    def test_every_short_sequence(self, name, unk):
        word_symbols, words = TRICKY_LEXICONS[name]
        vocab = Vocabulary(("<blank>", "|", *word_symbols), 0, 1)
        lm = parse_arpa(_bigram_arpa(words, unk))
        lexicon = decoder.build_lexicon(lm.known_words, vocab)
        close, states = decoder._word_closer(lm, lexicon)
        sequences = [seq for n in range(1, 5)
                     for seq in itertools.product(range(2, len(vocab)), repeat=n)]
        nodes = np.zeros(len(sequences), dtype=np.int64)
        for position in range(4):
            stepping = [i for i, seq in enumerate(sequences) if len(seq) > position]
            nodes[stepping] = lexicon.step(
                nodes[stepping], np.array([sequences[i][position] for i in stepping]))
        texts = ["".join(vocab.symbols[k] for k in seq) for seq in sequences]
        known = [text.lower() in lm.known_words for text in texts]
        assert lexicon.is_word[nodes].tolist() == known
        assert any(known) and not all(known)
        # close every sequence in the initial state, then in each state
        # that closing a known word leads to
        word_lp, next_state = close(np.zeros(len(nodes), dtype=np.int64), nodes)
        for state_id in sorted({0, *next_state.tolist()}):
            word_lp, next_state = close(np.full(len(nodes), state_id), nodes)
            expected = [lm.advance(states[state_id], text) for text in texts]
            assert [(lp, states[s]) for lp, s in
                    zip(word_lp.tolist(), next_state.tolist())] == expected

    @pytest.mark.parametrize("unk", [False, True], ids=["no_unk", "unk"])
    @pytest.mark.parametrize("name", list(TRICKY_LEXICONS))
    def test_seeded_cases_equal_the_reference_exactly(self, name, unk):
        word_symbols, words = TRICKY_LEXICONS[name]
        vocab = Vocabulary(("<blank>", "|", *word_symbols), 0, 1)
        lm = parse_arpa(_bigram_arpa(words, unk))
        rng = np.random.default_rng(list(TRICKY_LEXICONS).index(name) * 2 + unk + 1717)
        settings = itertools.product((3, 30), (-4.0, float("-inf")), ((0.3, 0.5), (1.0, 0.0)))
        for width, floor, (alpha, beta) in settings:
            cfg = DecoderConfig(alpha=alpha, beta=beta, beam_width=width,
                                prune_logp_floor=floor)
            for kind in ("dirichlet", "uniform", "quantised", "peaked", "holes"):
                logs = _random_rows(rng, kind, int(rng.integers(4, 9)), len(vocab))
                post = (PosteriorMatrix("u", logs) if kind == "holes"
                        else PosteriorMatrix.from_array("u", logs))
                expected = _decode_or_error(
                    oracles.reference_decode_beams, post, vocab, lm, cfg)
                assert _decode_or_error(decode_beams, post, vocab, lm, cfg) == expected, \
                    (name, unk, kind, cfg)


class TestLexiconCache:
    def test_built_once_per_model_and_vocabulary(self, synthetic_corpus, monkeypatch):
        builds = []
        build = decoder.build_lexicon

        def counting(known_words, vocab):
            builds.append(vocab)
            return build(known_words, vocab)

        monkeypatch.setattr(decoder, "build_lexicon", counting)
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        arpa = synthetic_corpus.lm_path.read_text(encoding="utf-8")
        lm = parse_arpa(arpa)
        for rec in load_manifest(synthetic_corpus.manifest_path):
            decode_beams(load_posteriors(synthetic_corpus.root / rec.posterior_path, vocab),
                         vocab, lm, DecoderConfig())
        assert builds == [vocab]
        # an equal vocabulary shares the trie, another one builds its own
        assert decoder.lexicon_of(lm, load_vocabulary(synthetic_corpus.vocab_path)) \
            is decoder.lexicon_of(lm, vocab)
        other = Vocabulary(tuple(reversed(vocab.symbols)), len(vocab) - 1 - vocab.blank_index,
                           len(vocab) - 1 - vocab.delimiter_index)
        assert decoder.lexicon_of(lm, other) is not decoder.lexicon_of(lm, vocab)
        assert builds == [vocab, other]
        # the cache is no part of the model's value
        fresh = parse_arpa(arpa)
        assert lm == fresh
        assert repr(lm) == repr(fresh)

    def test_memory_grows_with_edges(self):
        # a chain of n letters: n + 2 nodes and 2n + 2 edges, whatever the
        # vocabulary's size
        letters = tuple(chr(c) for c in range(ord("a"), ord("z") + 1))
        vocab = Vocabulary(("<blank>", "|", *letters), 0, 1)
        lexicon = decoder.build_lexicon(frozenset({"abcdefgh"}), vocab)
        assert len(lexicon.is_word) == 10
        assert len(lexicon.edge_keys) == len(lexicon.edge_nodes) == 8 + 10 + 1


class TestNBest:
    """`n_best` builds the first hypotheses of the full list and no more."""

    def test_first_beam_equals_the_head_of_the_full_list(self, abc_vocab, bigram_model):
        # the settings and random inputs of TestLazySearchMatchesReference
        rng = np.random.default_rng(1408)
        settings = itertools.product(
            (1, 2, 3, 5, 8, 100), (-1.0, -3.0, -20.0, float("-inf")),
            (0.0, 0.3, 1.0), (0.0, 0.5, 1.0), (None, bigram_model))
        cases = errors = ties = 0
        for width, floor, alpha, beta, lm in settings:
            cfg = DecoderConfig(alpha=alpha, beta=beta, beam_width=width,
                                prune_logp_floor=floor)
            for kind in ("dirichlet", "uniform", "quantised", "peaked", "tiny", "holes"):
                v = int(rng.integers(3, 6))
                vocab = Vocabulary(abc_vocab.symbols[:v], 0, 1)
                logs = _random_rows(rng, kind, int(rng.integers(1, 7)), v)
                post = (PosteriorMatrix("u", logs) if kind == "holes"
                        else PosteriorMatrix.from_array("u", logs))
                full = _decode_or_error(decode_beams, post, vocab, lm, cfg)
                first = _decode_or_error(
                    lambda *args: decode_beams(*args, 1), post, vocab, lm, cfg)
                if isinstance(full, tuple):
                    assert first == full, (kind, cfg, lm is not None, logs)
                    errors += 1
                    continue
                assert first == full[:1], (kind, cfg, lm is not None, logs)
                cases += 1
                # a tie for the best score is broken by the prefix
                ties += len(full) > 1 and full[0].score == full[1].score
        assert cases + errors == 2592
        assert errors > 0
        assert ties > 0

    @pytest.mark.parametrize("n_best", [1, 2, 7, 100, 1000])
    def test_n_best_slices_the_list(self, synthetic_corpus, n_best):
        post, vocab = _padded_corpus_utterance(synthetic_corpus, 1.0)
        lm = parse_arpa(_lexicon_bigram_arpa())
        full = decode_beams(post, vocab, lm, DecoderConfig())
        assert decode_beams(post, vocab, lm, DecoderConfig(), n_best) == full[:n_best]

    @pytest.mark.parametrize("n_best", [0, -1])
    def test_rejects_n_best_below_one(self, abc_vocab, n_best):
        post = matrix_from_probs("u", peaked_rows([2], 5))
        with pytest.raises(ValueError, match="n_best"):
            decode_beams(post, abc_vocab, None, DecoderConfig(), n_best)

    def test_beam_search_decode_reads_the_best_of_the_full_list(self, synthetic_corpus):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        lm = parse_arpa(synthetic_corpus.lm_path.read_text(encoding="utf-8"))
        cfg = DecoderConfig()
        records = load_manifest(synthetic_corpus.manifest_path)
        assert len(records) == 72
        for rec in records:
            post = load_posteriors(synthetic_corpus.root / rec.posterior_path, vocab)
            best = decode_beams(post, vocab, lm, cfg)[0]
            assert beam_search_decode(post, vocab, lm, cfg) == \
                Transcript.from_raw(" ".join(best.words)), rec.utterance_id


class TestNoBirthFrames:
    def test_frames_without_a_child_skip_the_cut_and_stay_exact(
            self, synthetic_corpus, monkeypatch):
        # at temperature 2, the longform benchmark's flattening, the full
        # beam's worst score beats every child on most blank frames (the
        # cut runs on 36 of the 115 frames)
        post, vocab = _padded_corpus_utterance(synthetic_corpus, 2.0)
        lm = parse_arpa(_lexicon_bigram_arpa())
        cfg = DecoderConfig()
        calls = []
        top = decoder._top
        monkeypatch.setattr(decoder, "_top", lambda *args: calls.append(1) or top(*args))
        beams = decode_beams(post, vocab, lm, cfg)
        assert len(calls) < post.frame_count
        assert beams == oracles.reference_decode_beams(post, vocab, lm, cfg)

    def test_a_slot_below_the_floor_leaves_on_a_frame_without_a_child(
            self, abc_vocab, monkeypatch):
        # "a" or blank, then "a": on the second frame the empty prefix falls
        # more than 3 nats below "a" (its "a" merges into "a"), and every
        # child is below the floor
        post = matrix_from_probs("u", [[0.1, 1e-4, 0.8997, 1e-4, 1e-4],
                                       peaked_rows([2], 5)[0]])
        cfg = DecoderConfig(prune_logp_floor=-3.0)
        calls = []
        top = decoder._top
        monkeypatch.setattr(decoder, "_top", lambda *args: calls.append(1) or top(*args))
        beams = decode_beams(post, abc_vocab, None, cfg)
        assert len(calls) == 1
        assert [b.prefix for b in beams] == [(2,)]
        assert beams == oracles.reference_decode_beams(post, abc_vocab, None, cfg)
