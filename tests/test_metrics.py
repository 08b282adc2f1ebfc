import json

import numpy as np
import pytest

from asr_inconsistency import (
    Transcript,
    align_words,
    diff_report,
    inconsistency_score,
    reference_wer,
    render_diff,
    wer,
)
from asr_inconsistency.errors import MissingInputError
from asr_inconsistency.metrics import diff_to_jsonl

import oracles


def greedy(text):
    return Transcript.from_raw(text)


def llm_ref(text):
    return Transcript.from_raw(text)


def truth(text):
    return Transcript.from_raw(text)


def apply_spans_to_hyp(alignment, hyp):
    """Patch the hypothesis with the diff spans; must reconstruct the ref."""
    out = []
    for op in alignment.ops:
        if op.op == "match":
            out.append(hyp[op.hyp_index])
        elif op.op == "substitute":
            out.append(op.ref_word)
        elif op.op == "delete":
            out.append(op.ref_word)
        # insert: the hyp word is dropped
    return out


class TestAlignWords:
    def test_sub_plus_delete(self):
        alignment = align_words(["a", "b", "c"], ["a", "x", "c", "d"])
        assert alignment.n_sub == 1
        assert alignment.n_del == 1
        assert alignment.n_ins == 0
        assert alignment.cost == 2
        assert alignment.cost == oracles.edit_cost_recursive("abc", "axcd")

    def test_identical_lists(self):
        alignment = align_words(["a", "b"], ["a", "b"])
        assert alignment.cost == 0
        assert alignment.n_match == 2

    def test_empty_hyp_is_all_deletions(self):
        alignment = align_words([], list("abcde"))
        assert alignment.n_del == 5
        assert alignment.cost == 5

    def test_counts_re_project_to_inputs(self):
        rng = np.random.default_rng(9)
        words = ["x", "y", "z", "w"]
        for _ in range(200):
            hyp = [words[i] for i in rng.integers(0, 4, rng.integers(0, 7))]
            ref = [words[i] for i in rng.integers(0, 4, rng.integers(0, 7))]
            alignment = align_words(hyp, ref)
            assert alignment.n_match + alignment.n_sub + alignment.n_del == len(ref)
            assert alignment.n_match + alignment.n_sub + alignment.n_ins == len(hyp)
            hyp_back = [op.hyp_word for op in alignment.ops
                        if op.hyp_index is not None]
            ref_back = [op.ref_word for op in alignment.ops
                        if op.ref_index is not None]
            assert hyp_back == hyp
            assert ref_back == ref
            assert alignment.cost == oracles.edit_cost_recursive(hyp, ref)

    def test_triangle_inequality_against_oracle(self):
        rng = np.random.default_rng(10)
        words = ["p", "q", "r"]
        for _ in range(300):
            seqs = [[words[i] for i in rng.integers(0, 3, rng.integers(0, 6))]
                    for _ in range(3)]
            a, b, c = seqs
            dab = align_words(a, b).cost
            dbc = align_words(b, c).cost
            dac = align_words(a, c).cost
            assert dac <= dab + dbc

    def test_substitution_only_symmetry(self):
        a = ["k", "l", "m", "n"]
        b = ["k", "x", "m", "y"]
        ab = align_words(a, b)
        ba = align_words(b, a)
        assert ab.n_ins == ab.n_del == 0
        assert wer(ab) * len(b) == wer(ba) * len(a)


class TestWer:
    def test_identical_is_zero(self):
        assert wer(align_words(["a"], ["a"])) == 0.0

    def test_empty_hyp_vs_four_words(self):
        assert wer(align_words([], ["a", "b", "c", "d"])) == 1.0

    def test_cost_two_over_four(self):
        assert wer(align_words(["a", "b", "c"], ["a", "x", "c", "d"])) == 0.5

    def test_empty_ref_empty_hyp(self):
        assert wer(align_words([], [])) == 0.0

    def test_empty_ref_nonempty_hyp_capped(self):
        alignment = align_words(["a", "b", "c"], [])
        assert wer(alignment) == 1.0


class TestInconsistencyScore:
    def test_plosive_pair_scores_one_eighth(self):
        g = greedy("de tortelduif zonk klagelijk in de oude beul")
        r = llm_ref("de tortelduif zonk klagelijk in de oude beuk")
        record = inconsistency_score(g, r, "utt1", method="llm")
        assert record.value == pytest.approx(
            oracles.edit_cost_recursive(g.words, r.words) / len(r.words))
        assert record.value == pytest.approx(0.125)
        assert record.method == "llm"

    def test_identical_transcripts_score_zero(self):
        g = greedy("de kat zit")
        r = llm_ref("de kat zit")
        assert inconsistency_score(g, r, method="llm").value == 0.0

    def test_disjoint_transcripts_score_one(self):
        g = greedy("aa bb cc")
        r = llm_ref("dd ee ff")
        assert inconsistency_score(g, r, method="llm").value == pytest.approx(1.0)

    def test_reference_is_the_denominator(self):
        g = greedy("a b c d e f")              # six words
        r = llm_ref("a b c")                   # three words: 3 insertions / 3
        assert inconsistency_score(g, r, method="llm").value == pytest.approx(1.0)

    def test_ngram_source_tags_method(self):
        r = Transcript.from_raw("de kat")
        assert inconsistency_score(greedy("de kat"), r, method="ngram").method == "ngram"

    def test_self_score_zero_randomized(self):
        rng = np.random.default_rng(17)
        words = ["aap", "noot", "mies", "wim"]
        for _ in range(50):
            text = " ".join(words[i] for i in rng.integers(0, 4, rng.integers(1, 8)))
            t = greedy(text)
            assert inconsistency_score(t, llm_ref(text), method="llm").value == 0.0


class TestReferenceWer:
    def test_equal_to_ground_truth(self):
        assert reference_wer(greedy("de kat"), truth("de kat")).value == 0.0

    def test_empty_hyp(self):
        assert reference_wer(greedy(""), truth("de kat zit hier")).value == 1.0

    def test_missing_ground_truth_raises(self):
        with pytest.raises(MissingInputError, match="no ground-truth text"):
            reference_wer(greedy("de kat"), None)

    def test_records_edit_counts_for_pooling(self):
        record = reference_wer(greedy("de kat zat"), truth("de kat zit"), "u")
        assert record.n_edits == 1
        assert record.ref_len == 3


class TestDiffReport:
    def test_plosive_pair_yields_single_span(self):
        g = greedy("de tortelduif zonk klagelijk in de oude beul")
        r = llm_ref("de tortelduif zonk klagelijk in de oude beuk")
        alignment = align_words(g.words, r.words)
        spans = diff_report(alignment)
        assert len(spans) == 1
        assert spans[0].op == "substitute"
        assert spans[0].hyp_word == "beul"
        assert spans[0].ref_word == "beuk"

    def test_identical_pair_is_empty(self):
        alignment = align_words(["a", "b"], ["a", "b"])
        assert diff_report(alignment) == ()

    def test_insertion_only_case(self):
        alignment = align_words(["a", "b", "a"], ["a", "a"])
        spans = diff_report(alignment)
        assert [s.op for s in spans] == ["insert"]
        assert spans[0].hyp_word == "b"
        assert alignment.cost == oracles.edit_cost_recursive("aba", "aa")

    def test_spans_patch_hyp_into_ref(self):
        rng = np.random.default_rng(23)
        words = ["x", "y", "z"]
        for _ in range(200):
            hyp = [words[i] for i in rng.integers(0, 3, rng.integers(0, 6))]
            ref = [words[i] for i in rng.integers(0, 3, rng.integers(0, 6))]
            alignment = align_words(hyp, ref)
            assert apply_spans_to_hyp(alignment, hyp) == ref

    def test_jsonl_form_round_trips(self):
        alignment = align_words(["a", "b"], ["a", "c"])
        lines = diff_to_jsonl(diff_report(alignment)).splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["op"] == "substitute"
        assert obj["hyp_index"] == 1
        assert obj["ref_index"] == 1

    def test_render_marks_differences(self):
        alignment = align_words(["de", "beul"], ["de", "beuk"])
        text = render_diff(alignment)
        assert "*beul*" in text and "*beuk*" in text and "de" in text
