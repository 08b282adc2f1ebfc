import gzip
import math

import numpy as np
import pytest

from asr_inconsistency import load_arpa, parse_arpa, write_arpa
from asr_inconsistency.errors import ArpaFormatError
from asr_inconsistency.ngram import OOV_FLOOR_LN, LN10

from conftest import BIGRAM_ARPA, BIGRAM_ONLY_WORD_ARPA, TRIGRAM_ARPA, UNK_BIGRAM_ARPA

UNIGRAM_ARPA = """\
\\data\\
ngram 1=2

\\1-grams:
-0.3010299956639812\ta
-0.3010299956639812\tb

\\end\\
"""


class TestParsing:
    def test_minimal_unigram_reads_back(self):
        model = parse_arpa(UNIGRAM_ARPA)
        assert model.order == 1
        assert model.word_logprob("a") == pytest.approx(math.log(0.5), abs=1e-12)

    def test_count_mismatch_rejected(self):
        bad = UNIGRAM_ARPA.replace("ngram 1=2", "ngram 1=3")
        with pytest.raises(ArpaFormatError, match="declared 3 1-grams, found 2"):
            parse_arpa(bad)

    def test_missing_end_rejected(self):
        with pytest.raises(ArpaFormatError, match=r"missing \\end\\ marker"):
            parse_arpa(UNIGRAM_ARPA.replace("\\end\\", ""))

    def test_missing_data_section_rejected(self):
        with pytest.raises(ArpaFormatError):
            parse_arpa("\\1-grams:\n-0.5\ta\n\\end\\\n")

    def test_malformed_line_reports_line_number(self):
        bad = UNIGRAM_ARPA.replace("-0.3010299956639812\tb", "not-a-number\tb")
        with pytest.raises(ArpaFormatError) as err:
            parse_arpa(bad)
        assert "line" in str(err.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("good, entry, lineno", [
        ("-0.7\tc", "{bad}\tc", 8),
        ("-0.5\ta\t-0.3", "-0.5\ta\t{bad}", 6),
    ], ids=["logprob", "backoff"])
    def test_non_finite_value_rejected_with_line(self, bad, good, entry, lineno):
        bad_text = BIGRAM_ARPA.replace(good, entry.format(bad=bad))
        with pytest.raises(ArpaFormatError) as err:
            parse_arpa(bad_text)
        assert f"line {lineno}:" in str(err.value)

    def test_backoff_on_highest_order_rejected(self):
        bad = UNIGRAM_ARPA.replace("-0.3010299956639812\ta",
                                   "-0.3010299956639812\ta\t-0.1")
        with pytest.raises(ArpaFormatError):
            parse_arpa(bad)

    def test_gzip_detected_by_magic(self, tmp_path):
        path = tmp_path / "lm.arpa.gz"
        path.write_bytes(gzip.compress(UNIGRAM_ARPA.encode()))
        model = load_arpa(path)
        assert model.word_logprob("b") == pytest.approx(math.log(0.5), abs=1e-12)

    @pytest.mark.parametrize("corrupt", [
        lambda gz: b"\x1f\x8bgarbage",
        lambda gz: gz[:10] + b"\xff" * (len(gz) - 18) + gz[-8:],
        lambda gz: gz[:-8] + bytes(4) + gz[-4:],
    ], ids=["EOFError", "zlib.error", "BadGzipFile"])
    def test_corrupt_gzip_rejected_with_path(self, tmp_path, corrupt):
        # a truncated stream, an invalid deflate block and a CRC mismatch
        path = tmp_path / "lm.arpa.gz"
        path.write_bytes(corrupt(gzip.compress(UNIGRAM_ARPA.encode())))
        with pytest.raises(ArpaFormatError) as err:
            load_arpa(path)
        assert str(err.value).startswith(f"{path}: ")

    def test_load_rejects_non_utf8_file_with_path(self, tmp_path):
        path = tmp_path / "lm.arpa"
        path.write_bytes(b"\xff\xfe" + UNIGRAM_ARPA.encode("utf-16-le"))
        with pytest.raises(ArpaFormatError) as err:
            load_arpa(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("old, new, message", [
        ("-0.5\ta\t-0.3", "-0.5\ta\tnan",
         "line 6: log-probability and back-off must be finite"),
        ("ngram 2=2", "ngram 2=3", "declared 3 2-grams, found 2"),
        ("\\end\\", "", "missing \\end\\ marker"),
    ], ids=["line", "counts", "truncated"])
    def test_load_errors_name_the_file(self, tmp_path, old, new, message):
        path = tmp_path / "lm.arpa"
        path.write_text(BIGRAM_ARPA.replace(old, new))
        with pytest.raises(ArpaFormatError) as err:
            load_arpa(path)
        # the parser's message, with the file in front
        assert str(err.value) == f"{path}: {message}"


class TestBackoffQueries:
    def test_explicit_bigram_returned_directly(self, bigram_model):
        # stored value: log10 0.5
        expected = -0.3010299956639812 * LN10
        assert bigram_model.word_logprob("b", ("a",)) == pytest.approx(expected, abs=1e-12)

    def test_backoff_path_hand_computed(self, bigram_model):
        # P(c|a) absent: backoff(a) + P(c) = (-0.3 + -0.7) in log10
        expected = (-0.3 + -0.7) * LN10
        assert bigram_model.word_logprob("c", ("a",)) == pytest.approx(expected, abs=1e-12)

    def test_missing_backoff_weight_is_zero(self, bigram_model):
        # (b, c) absent and b has no backoff entry: P(c|b) = P(c)
        expected = -0.7 * LN10
        assert bigram_model.word_logprob("c", ("b",)) == pytest.approx(expected, abs=1e-12)

    def test_oov_without_unk_hits_floor(self, bigram_model):
        assert bigram_model.word_logprob("zebra") == OOV_FLOOR_LN
        assert bigram_model.word_logprob("zebra", ("a",)) == OOV_FLOOR_LN

    def test_queries_are_case_folded(self, bigram_model):
        assert bigram_model.word_logprob("B", ("A",)) == \
            bigram_model.word_logprob("b", ("a",))

    def test_history_truncated_to_order(self, bigram_model):
        long_history = ("c", "c", "c", "a")
        assert bigram_model.word_logprob("b", long_history) == \
            bigram_model.word_logprob("b", ("a",))

    def test_unk_token_used_when_present(self):
        arpa = UNIGRAM_ARPA.replace("ngram 1=2", "ngram 1=3").replace(
            "\\1-grams:", "\\1-grams:\n-1.0\t<unk>")
        model = parse_arpa(arpa)
        assert model.word_logprob("zebra") == pytest.approx(-1.0 * LN10, abs=1e-12)


class TestOovHistory:
    """Today's rule for a history word that no n-gram contains: it matches
    no entry and backs off with weight 0, so it and the words before it
    drop out of the history. SRILM and KenLM map it to <unk> instead."""

    def test_oov_history_word_scores_like_the_empty_history(self):
        model = parse_arpa(UNK_BIGRAM_ARPA)
        assert model.word_logprob("b", ("zzz",)) == model.word_logprob("b", ())
        # the <unk> rule would give the listed bigram "<unk> b" instead
        assert model.word_logprob("b", ("<unk>",)) == pytest.approx(-0.1 * LN10, abs=1e-12)
        assert model.word_logprob("b", ()) == pytest.approx(-0.6 * LN10, abs=1e-12)

    def test_known_words_cover_every_order(self):
        model = parse_arpa(BIGRAM_ONLY_WORD_ARPA)
        assert model.known_words == {"a", "b", "c", "ca"}
        assert ("ca",) not in model.tables[0]

    @pytest.mark.parametrize("arpa", [BIGRAM_ARPA, UNK_BIGRAM_ARPA, TRIGRAM_ARPA,
                                      BIGRAM_ONLY_WORD_ARPA],
                             ids=["bigram", "unk_bigram", "trigram", "bigram_only_word"])
    def test_advanced_context_scores_like_the_whole_history(self, arpa):
        # advance keeps only the words after the last one no n-gram
        # contains; every next word, and </s>, scores as after the whole
        # (order - 1)-word history, bit for bit
        model = parse_arpa(arpa)
        words = sorted(model.known_words) + ["zzz", "Zzz", "B", "CA"]
        contexts = [(), ("a",), ("zzz",), ("b", "a"), ("zzz", "a"), ("a", "zzz")]
        for context in contexts:
            for word in words:
                _, kept = model.advance(context, word)
                whole = (*context, word.lower())[-(model.order - 1):]
                assert set(kept) <= model.known_words
                assert kept == whole[len(whole) - len(kept):]
                for nxt in words:
                    assert model.word_logprob(nxt, kept) == model.word_logprob(nxt, whole)
                assert model.final_logprob(kept) == model.final_logprob(whole)

    def test_oov_word_leaves_the_empty_context(self):
        model = parse_arpa(TRIGRAM_ARPA)
        assert model.advance(("a",), "zzz")[1] == ()
        assert model.advance(("zzz",), "a")[1] == ("a",)
        assert model.advance(("a",), "b")[1] == ("a", "b")


class TestSequenceScoring:
    def test_two_word_sum(self, bigram_model):
        expected = (bigram_model.word_logprob("a")
                    + bigram_model.word_logprob("b", ("a",)))
        assert bigram_model.sequence_logprob(["a", "b"]) == pytest.approx(
            expected, abs=1e-12)

    def test_single_word_unigram(self):
        model = parse_arpa(UNIGRAM_ARPA)
        assert model.sequence_logprob(["a"]) == pytest.approx(
            math.log(0.5), abs=1e-12)

    def test_single_oov_word(self, bigram_model):
        assert bigram_model.sequence_logprob(["zebra"]) == OOV_FLOOR_LN

    def test_empty_sequence_rejected(self, bigram_model):
        with pytest.raises(ValueError, match="empty word sequence"):
            bigram_model.sequence_logprob([])

    def test_sum_equals_incremental_advance(self, bigram_model):
        words = ["a", "a", "b", "c", "a"]
        total = 0.0
        context = bigram_model.initial_context()
        for w in words:
            logp, context = bigram_model.advance(context, w)
            total += logp
        total += bigram_model.final_logprob(context)
        assert bigram_model.sequence_logprob(words) == pytest.approx(total, abs=1e-12)

    def test_boundary_tokens_applied_when_defined(self):
        arpa = """\\data\\
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
        model = parse_arpa(arpa)
        assert model.has_bos and model.has_eos
        # <s> a -> explicit bigram; a </s> -> explicit bigram
        expected = (-0.2 + -0.3) * LN10
        assert model.sequence_logprob(["a"]) == pytest.approx(expected, abs=1e-12)
        # b: <s> b backs off (backoff(<s>) + P(b)); b </s> backs off (no b backoff)
        expected_b = ((-0.2 + -0.9) + (-0.4)) * LN10
        assert model.sequence_logprob(["b"]) == pytest.approx(expected_b, abs=1e-12)


class TestModelProperties:
    def test_conditional_distributions_sum_to_at_most_one(self, bigram_model):
        vocab = [w for (w,) in bigram_model.tables[0]]
        for history in [(), ("a",), ("b",), ("c",)]:
            total = sum(math.exp(bigram_model.word_logprob(w, history))
                        for w in vocab)
            assert total <= 1.0 + 1e-6

    def test_serialize_round_trip_preserves_queries(self, bigram_model):
        again = parse_arpa(write_arpa(bigram_model))
        rng = np.random.default_rng(3)
        vocab = ["a", "b", "c", "zebra"]
        for _ in range(100):
            word = vocab[rng.integers(len(vocab))]
            history = tuple(vocab[i] for i in rng.integers(0, 3, rng.integers(0, 3)))
            assert again.word_logprob(word, history) == \
                bigram_model.word_logprob(word, history)
