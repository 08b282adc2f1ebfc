"""Acceptance suite.

Each test below is one exit criterion, checked at its stated tolerance.
A one-line PASS/FAIL verdict per criterion is printed by the hook in
conftest.py. Oracles live in oracles.py and are independent of the code
under test.
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from asr_inconsistency import (
    AudioBuffer,
    DecoderConfig,
    EvalConfig,
    LlmSpec,
    MockCorrector,
    PosteriorMatrix,
    Vocabulary,
    align_words,
    beam_search_decode,
    decode_beams,
    greedy_decode,
    mean_ci,
    parse_arpa,
    pearson,
    two_sample_t,
    wada_snr,
    wer,
    write_arpa,
)
from asr_inconsistency.cli import main as cli_main
from asr_inconsistency.decoder import collapse_labels
from asr_inconsistency.ngram import LN10

import oracles
from conftest import BIGRAM_ARPA, random_log_matrix
from test_baselines import gamma_noise_mix
from test_decoder import flip_instance

SYMBOLS = ("<blank>", "|", "a", "b")


def _structured_corner_cases():
    """One-hot-ish, uniform, near-tied, and blank-heavy corner matrices.

    The one-hot cold mass stays above the default -20 nat prune floor so
    the default config keeps every alignment path; the harder 1e-9 variant
    is checked separately with pruning disabled.
    """
    cases = []
    for v in (2, 3, 4):
        cases.append(np.full((1, v), 1.0 / v))                  # uniform tie
        cases.append(np.full((3, v), 1.0 / v))                  # longer uniform
        hot = np.full((4, v), 1e-8 / (v - 1))
        for t in range(4):
            hot[t, t % v] = 1.0 - 1e-8
        cases.append(hot)                                       # one-hot-ish
        blanky = np.full((2, v), 0.02 / (v - 1))
        blanky[:, 0] = 0.98
        cases.append(blanky)                                    # blank-dominated
    near_tie = np.array([[0.5, 0.5 - 1e-12, 1e-12 / 2, 1e-12 / 2]])
    cases.append(near_tie / near_tie.sum(axis=1, keepdims=True))
    return cases


def test_criterion_1_beam_search_oracle_equivalence():
    """Beam search with fusion off equals the exhaustive alignment-sum
    argmax on every small instance; scores agree to 1e-9; under 30 s."""
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    cfg = DecoderConfig(alpha=0.0, beta=0.0, beam_width=256)

    checked = 0
    matrices = []
    for _ in range(500):
        t = int(rng.integers(1, 5))
        v = int(rng.integers(2, 5))
        matrices.append(np.exp(random_log_matrix(rng, t, v)))
    matrices.extend(_structured_corner_cases())

    for probs in matrices:
        v = probs.shape[1]
        vocab = Vocabulary(SYMBOLS[:v], 0, 1)
        post = PosteriorMatrix.from_array("acc1", np.log(probs))
        expected_prefix, expected_score = oracles.best_collapsed(post.frames, 0)
        best = decode_beams(post, vocab, None, cfg)[0]
        assert best.prefix == expected_prefix, probs
        assert best.score == pytest.approx(expected_score, abs=1e-9)
        checked += 1

    # extreme one-hot case: cold paths carry ~1e-9 relative mass, right at
    # the score tolerance, so exactness needs the prune floor off
    no_prune = DecoderConfig(alpha=0.0, beta=0.0, beam_width=256,
                             prune_logp_floor=float("-inf"))
    extreme = np.full((4, 4), 1e-9 / 3)
    for t in range(4):
        extreme[t, t % 4] = 1.0 - 1e-9
    post = PosteriorMatrix.from_array("acc1x", np.log(extreme))
    expected_prefix, expected_score = oracles.best_collapsed(post.frames, 0)
    best = decode_beams(post, Vocabulary(SYMBOLS, 0, 1), None, no_prune)[0]
    assert best.prefix == expected_prefix
    assert best.score == pytest.approx(expected_score, abs=1e-9)

    elapsed = time.monotonic() - start
    assert checked == 500 + len(_structured_corner_cases())
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_2_greedy_and_collapse_correctness():
    """Greedy matches a linear-scan argmax oracle on 1000 random matrices;
    collapse matches the merge-then-remove-blank definition exhaustively
    for paths of length <= 6 over 3 symbols; under 10 s."""
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    for _ in range(1000):
        t = int(rng.integers(1, 13))
        v = int(rng.integers(2, 9))
        post = PosteriorMatrix.from_array("acc2", random_log_matrix(rng, t, v))
        expected = tuple(oracles.argmax_by_scan(row) for row in post.frames)
        assert greedy_decode(post).labels == expected

    for length in range(7):
        for path in itertools.product(range(3), repeat=length):
            assert tuple(collapse_labels(path, 0)) == \
                oracles.collapse_by_definition(path, 0)

    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_3_fusion_flip_at_analytic_threshold():
    """The decoder flips from the acoustically preferred word to the
    LM-preferred word within one 0.01 grid step of the threshold computed
    by direct fused-score evaluation of the two hypotheses."""
    post, vocab, lm = flip_instance()
    beul = tuple(vocab.symbols.index(c) for c in "beul")
    beuk = tuple(vocab.symbols.index(c) for c in "beuk")
    ctc_beul = oracles.ctc_string_logprob(post.frames, 0, beul)
    ctc_beuk = oracles.ctc_string_logprob(post.frames, 0, beuk)
    lm_beul = lm.sequence_logprob(["beul"])
    lm_beuk = lm.sequence_logprob(["beuk"])
    threshold = (ctc_beul - ctc_beuk) / (lm_beuk - lm_beul)
    assert 0.0 < threshold < 1.0

    flip_alpha = None
    for step in range(101):
        alpha = step / 100
        out = beam_search_decode(
            post, vocab, lm, DecoderConfig(alpha=alpha, beta=0.0, beam_width=64))
        assert out.words in (("beul",), ("beuk",))
        if out.words == ("beuk",):
            flip_alpha = alpha
            break
    assert flip_alpha is not None, "never flipped on the alpha grid"
    assert abs(flip_alpha - threshold) <= 0.01


def test_criterion_4_arpa_backoff_and_round_trip():
    """Every query against the bigram fixture matches hand-computed
    back-off arithmetic to 1e-12; serialization round-trips a 100-query
    probe set exactly."""
    model = parse_arpa(BIGRAM_ARPA)
    # hand-computed from the fixture's entries (log10, converted once)
    unigram = {"a": -0.5, "b": -0.6020599913279624, "c": -0.7}
    bigram = {("a", "b"): -0.3010299956639812, ("a", "a"): -0.3979400086720376}
    backoff = {"a": -0.3}
    oov_floor = math.log(1e-10)

    words = ["a", "b", "c", "zebra"]
    histories = [()] + [(h,) for h in words] + [
        (x, y) for x in words for y in words]
    checked = 0
    for word in words:
        for history in histories:
            got = model.word_logprob(word, history)
            if word not in unigram:
                expected = oov_floor
            else:
                context = history[-1:] if history else ()
                context = tuple(w for w in context)
                if context and (context[0], word) in bigram:
                    expected = bigram[(context[0], word)] * LN10
                elif context:
                    expected = (backoff.get(context[0], 0.0) + unigram[word]) * LN10
                else:
                    expected = unigram[word] * LN10
            assert got == pytest.approx(expected, abs=1e-12), (word, history)
            checked += 1
    assert checked == len(words) * len(histories)

    again = parse_arpa(write_arpa(model))
    rng = np.random.default_rng(1004)
    for _ in range(100):
        word = words[rng.integers(len(words))]
        history = tuple(words[i] for i in rng.integers(0, 3, rng.integers(0, 3)))
        assert again.word_logprob(word, history) == model.word_logprob(word, history)


def test_criterion_5_wer_oracle_equivalence():
    """align_words cost equals brute-force DP on the exhaustive sweep of
    word-list pairs with lengths <= 6 over a 3-word alphabet, and on 1000
    random longer pairs; the plosive sentence pair scores 1/8."""
    alphabet = ["aap", "boom", "cactus"]
    sequences = []
    for length in range(7):
        sequences.extend(itertools.product(range(3), repeat=length))

    # group by length so the vectorized reference DP can run in batches
    by_len: dict[int, list[tuple[int, ...]]] = {}
    for seq in sequences:
        by_len.setdefault(len(seq), []).append(seq)

    for la, seqs_a in by_len.items():
        for lb, seqs_b in by_len.items():
            pairs = list(itertools.product(seqs_a, seqs_b))
            if la and lb:
                arr_a = np.array([p[0] for p in pairs], dtype=np.int8)
                arr_b = np.array([p[1] for p in pairs], dtype=np.int8)
                expected = oracles.edit_costs_batch(arr_a, arr_b)
            else:
                expected = np.array([max(len(p[0]), len(p[1])) for p in pairs])
            for (sa, sb), want in zip(pairs, expected):
                hyp = [alphabet[i] for i in sa]
                ref = [alphabet[i] for i in sb]
                assert align_words(hyp, ref).cost == want

    rng = np.random.default_rng(1005)
    vocab = [f"w{i}" for i in range(12)]
    for _ in range(1000):
        hyp = [vocab[i] for i in rng.integers(0, 12, rng.integers(7, 21))]
        ref = [vocab[i] for i in rng.integers(0, 12, rng.integers(7, 21))]
        assert align_words(hyp, ref).cost == oracles.edit_cost_recursive(hyp, ref)

    hyp = "de tortelduif zonk klagelijk in de oude beul".split()
    ref = "de tortelduif zonk klagelijk in de oude beuk".split()
    assert wer(align_words(hyp, ref)) == pytest.approx(1 / 8)


def test_criterion_6_wada_snr_behavior():
    """Estimates on synthetic Gamma-speech + Gaussian-noise mixtures are
    monotone in true SNR, within 3 dB on [0, 20] dB, and scale-invariant
    below 0.01 dB."""
    rng = np.random.default_rng(1006)
    levels = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
    means = []
    for level in levels:
        estimates = []
        for _ in range(10):
            mix = gamma_noise_mix(rng, 16000, level)
            estimates.append(wada_snr(AudioBuffer(mix, 16000)).value)
        mean_est = float(np.mean(estimates))
        means.append(mean_est)
        if 0.0 <= level <= 20.0:
            assert abs(mean_est - level) <= 3.0, (level, mean_est)
    assert all(b >= a for a, b in zip(means, means[1:])), means

    mix = gamma_noise_mix(rng, 16000, 10.0)
    base = wada_snr(AudioBuffer(mix, 16000)).value
    for c in (1e-3, 3.7, 1e3):
        scaled = wada_snr(AudioBuffer(mix * c, 16000)).value
        assert abs(scaled - base) < 0.01


def test_criterion_7_end_to_end_synthetic_correlation(synthetic_corpus, tmp_path):
    """eval over the bundled 12-speaker fixture: the inconsistency score
    correlates with the ratings at r <= -0.9; under 60 s."""
    start = time.monotonic()
    run_dir = tmp_path / "run7"
    code = cli_main([
        "eval",
        "--manifest", str(synthetic_corpus.manifest_path),
        "--vocab", str(synthetic_corpus.vocab_path),
        "--methods", "ngram",
        "--lm", str(synthetic_corpus.lm_path),
        "--dataset-name", "synthetic",
        "--out", str(run_dir),
    ])
    assert code == 0
    with open(run_dir / "report.csv", encoding="utf-8") as fin:
        rows = [r for r in csv.DictReader(fin) if r["method"] == "ngram"]
    assert rows
    r_value = float(rows[0]["pearson_r"])
    assert r_value <= -0.9, r_value
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_8_half_fixing_mock_mechanism(synthetic_corpus, tmp_path):
    """With the half-fixing corrector, the corrected reference is strictly
    more accurate than the greedy transcript (pooled WER) and its WER still
    correlates negatively with the ratings."""
    from asr_inconsistency import load_manifest, load_vocabulary, run_pipeline

    vocab = load_vocabulary(synthetic_corpus.vocab_path)
    manifest = load_manifest(synthetic_corpus.manifest_path)
    mock = MockCorrector.from_json(str(synthetic_corpus.mock_half_fix_path))
    config = EvalConfig(
        methods=("llm", "reference_wer"),
        vocab=vocab,
        llm_models=(LlmSpec("half-fix", mock),),
        dataset_name="synthetic",
        base_dir=synthetic_corpus.root,
    )
    result = run_pipeline(manifest, config, tmp_path / "run8")

    def micro(records):
        return sum(s.n_edits for s in records) / sum(s.ref_len for s in records)

    flat = [s for u in result.utterances for s in u.scores]
    greedy_wer = micro([s for s in flat if s.method == "reference_wer"])
    llm_wer = micro([s for s in flat
                     if s.method == "llm_accuracy" and s.run_index == 0])
    # half of the injected corruptions survive correction, so the corrected
    # reference sits strictly between perfect and greedy accuracy
    assert 0.0 < llm_wer < greedy_wer, (llm_wer, greedy_wer)

    r_llm = [rr.pearson_r for rr in result.run_results
             if rr.method == "llm_accuracy"]
    assert r_llm and all(r < 0 for r in r_llm), r_llm


def test_criterion_9_statistics():
    """mean_ci reproduces the t quantile interval to 1e-6; two_sample_t
    matches the numeric CDF oracle to 1e-6; pearson matches the direct
    formula to 1e-12 and hits +/-1 on perfect fixtures."""
    values = [-0.89, -0.90, -0.91]
    mean, half = mean_ci(values)
    s = float(np.std(values, ddof=1))
    assert mean == pytest.approx(-0.90, abs=1e-12)
    assert half == pytest.approx(4.302652729749464 * s / math.sqrt(3), abs=1e-6)

    a = [-0.89, -0.91, -0.90]
    b = [-0.83, -0.86, -0.82]
    t_stat, p = two_sample_t(a, b)
    t_ref, p_ref = oracles.welch_oracle(a, b)
    assert t_stat == pytest.approx(t_ref, abs=1e-10)
    assert p == pytest.approx(p_ref, abs=1e-6)

    x = [0.31, -1.2, 2.4, 0.07, 5.5]
    y = [1.9, 0.4, -3.3, 2.2, 0.11]
    assert pearson(x, y) == pytest.approx(oracles.pearson_direct(x, y), abs=1e-12)
    line = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert pearson(line, [3 * v - 2 for v in line]) == pytest.approx(1.0, abs=1e-12)
    assert pearson(line, [-v for v in line]) == pytest.approx(-1.0, abs=1e-12)


def test_criterion_10_mock_eval_is_byte_deterministic(synthetic_corpus, tmp_path):
    """Two full mock-mode eval runs produce byte-identical report.csv
    (and speaker scores)."""
    outputs = []
    for run in ("a", "b"):
        run_dir = tmp_path / f"run10_{run}"
        code = cli_main([
            "eval",
            "--manifest", str(synthetic_corpus.manifest_path),
            "--vocab", str(synthetic_corpus.vocab_path),
            "--methods", "speech_rate,wada_snr,ngram,llm,reference_wer",
            "--lm", str(synthetic_corpus.lm_path),
            "--mock", "--mock-replies", str(synthetic_corpus.mock_half_fix_path),
            "--dataset-name", "synthetic",
            "--out", str(run_dir),
        ])
        assert code == 0
        outputs.append({
            "report": (run_dir / "report.csv").read_bytes(),
            "scores": (run_dir / "scores.csv").read_bytes(),
            "utterances": (run_dir / "utterance_scores.csv").read_bytes(),
            "report_txt": (run_dir / "report.txt").read_bytes(),
        })
    assert outputs[0]["report"] == outputs[1]["report"]
    assert outputs[0]["scores"] == outputs[1]["scores"]
    assert outputs[0]["utterances"] == outputs[1]["utterances"]
    assert outputs[0]["report_txt"] == outputs[1]["report_txt"]
