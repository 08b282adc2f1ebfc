import json
from pathlib import Path

import pytest

from asr_inconsistency import (
    EvalConfig,
    LlmSpec,
    MockCorrector,
    ScoreRecord,
    UtteranceRecord,
    aggregate_speaker,
    correlate,
    llm_accuracy_report,
    load_arpa,
    load_manifest,
    load_vocabulary,
    run_pipeline,
)
from asr_inconsistency.errors import (
    ManifestFormatError,
    PipelineError,
    PosteriorFormatError,
)
from asr_inconsistency import harness
from asr_inconsistency.harness import (
    build_report,
    render_report_text,
    replay_run_results,
    score_utterance,
)


def record(uid, spk, rating=None, timepoint=None, **kwargs):
    return UtteranceRecord(utterance_id=uid, speaker_id=spk,
                           posterior_path=f"post/{uid}.ctcp",
                           timepoint_id=timepoint, rating=rating, **kwargs)


def score(uid, value, method="ngram", **kwargs):
    return ScoreRecord(utterance_id=uid, method=method, value=value, **kwargs)


class TestAggregateSpeaker:
    def test_mean_of_two_scores(self):
        manifest = [record("u1", "A", rating=4.0), record("u2", "A", rating=4.0)]
        out = aggregate_speaker([score("u1", 0.2), score("u2", 0.4)], manifest)
        assert len(out) == 1
        assert out[0].mean_value == pytest.approx(0.3)
        assert out[0].n_utterances == 2
        assert out[0].rating == 4.0

    def test_single_utterance_speaker(self):
        manifest = [record("u1", "A")]
        out = aggregate_speaker([score("u1", 0.7)], manifest)
        assert out[0].mean_value == 0.7
        assert out[0].n_utterances == 1

    def test_missing_scores_are_excluded_from_the_mean(self):
        manifest = [record("u1", "A"), record("u2", "A")]
        out = aggregate_speaker([score("u2", 0.5)], manifest)
        assert out[0].mean_value == 0.5
        assert out[0].n_utterances == 1

    def test_empty_group_skippable(self):
        manifest = [record("u1", "A"), record("u2", "B")]
        out = aggregate_speaker([score("u1", 0.5)], manifest)
        assert [s.speaker_id for s in out] == ["A"]

    def test_timepoints_are_separate_groups(self):
        manifest = [record("u1", "A", timepoint="pre", rating=5.0),
                    record("u2", "A", timepoint="post", rating=2.0)]
        out = aggregate_speaker([score("u1", 0.1), score("u2", 0.9)], manifest)
        assert {(s.speaker_id, s.timepoint_id, s.rating) for s in out} == {
            ("A", "pre", 5.0), ("A", "post", 2.0)}

    def test_conflicting_ratings_rejected(self):
        manifest = [record("u1", "A", rating=4.0), record("u2", "A", rating=3.0)]
        with pytest.raises(ManifestFormatError, match="carries ratings 4.0 and 3.0"):
            aggregate_speaker([score("u1", 0.5), score("u2", 0.5)], manifest)

    def test_method_variants_grouped_separately(self):
        manifest = [record("u1", "A", rating=1.0)]
        scores = [score("u1", 0.5),
                  score("u1", 0.2, method="llm", model_name="m", run_index=0),
                  score("u1", 0.4, method="llm", model_name="m", run_index=1)]
        out = aggregate_speaker(scores, manifest)
        assert len(out) == 3
        llm_rows = [s for s in out if s.method == "llm"]
        assert {s.run_index for s in llm_rows} == {0, 1}

    def test_output_independent_of_score_order(self):
        import random
        manifest = [record(f"u{i}", f"S{i % 3}", rating=float(i % 3))
                    for i in range(12)]
        scores = [score(f"u{i}", 0.1 * i) for i in range(12)]
        base = aggregate_speaker(scores, manifest)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = scores[:]
            rng.shuffle(shuffled)
            assert aggregate_speaker(shuffled, manifest) == base

    def test_score_for_unknown_utterance_rejected(self):
        manifest = [record("u1", "A")]
        with pytest.raises(PipelineError, match="unknown utterance 'ghost'"):
            aggregate_speaker([score("ghost", 0.5)], manifest)


class TestCorrelate:
    def test_known_sign(self):
        manifest = [record(f"u{i}", f"S{i}", rating=float(i)) for i in range(5)]
        scores = [score(f"u{i}", 1.0 - 0.2 * i) for i in range(5)]
        speaker_scores = aggregate_speaker(scores, manifest)
        results, notes = correlate(speaker_scores)
        assert not notes
        assert results[0].pearson_r == pytest.approx(-1.0, abs=1e-12)
        assert results[0].n_points == 5

    def test_unrated_groups_drop_out(self):
        manifest = [record(f"u{i}", f"S{i}",
                           rating=float(i) if i < 4 else None) for i in range(5)]
        scores = [score(f"u{i}", 0.1 * i) for i in range(5)]
        results, _ = correlate(aggregate_speaker(scores, manifest))
        assert results[0].n_points == 4

    def test_degenerate_variance_becomes_note(self):
        manifest = [record(f"u{i}", f"S{i}", rating=2.0 + i) for i in range(4)]
        scores = [score(f"u{i}", 0.5) for i in range(4)]
        results, notes = correlate(aggregate_speaker(scores, manifest))
        assert results == []
        assert any("ngram" in n for n in notes)


class TestBuildReport:
    def test_llm_rows_get_mean_and_ci(self):
        from asr_inconsistency import RunResult
        manifest = [record(f"u{i}", f"S{i}", rating=float(i)) for i in range(3)]
        run_results = [
            RunResult("llm", "m1", 0, -0.90, 3),
            RunResult("llm", "m1", 1, -0.91, 3),
            RunResult("llm", "m1", 2, -0.89, 3),
        ]
        config = EvalConfig(methods=("llm",), vocab=_dummy_vocab(),
                            llm_models=(LlmSpec("m1", MockCorrector()),),
                            dataset_name="demo")
        table = build_report(run_results, manifest, config, [], 3)
        row = [r for r in table.rows if r.method == "llm"][0]
        assert row.r_mean == pytest.approx(-0.90)
        assert row.ci_halfwidth is not None and row.ci_halfwidth > 0
        assert row.n_runs == 3

    def test_two_models_get_t_test_footnote(self):
        from asr_inconsistency import RunResult
        manifest = [record(f"u{i}", f"S{i}", rating=float(i)) for i in range(3)]
        run_results = []
        for i, r in enumerate([-0.90, -0.91, -0.89]):
            run_results.append(RunResult("llm", "m1", i, r, 3))
        for i, r in enumerate([-0.70, -0.71, -0.69]):
            run_results.append(RunResult("llm", "m2", i, r, 3))
        config = EvalConfig(methods=("llm",), vocab=_dummy_vocab(),
                            llm_models=(LlmSpec("m1", MockCorrector()),
                                        LlmSpec("m2", MockCorrector())),
                            dataset_name="demo")
        table = build_report(run_results, manifest, config, [], 3)
        assert any("t-test" in n for n in table.footnotes)
        llm_rows = [r for r in table.rows if r.method == "llm"]
        assert all(r.significant is True for r in llm_rows)

    def test_render_contains_metadata_and_rows(self):
        from asr_inconsistency import RunResult
        manifest = [record(f"u{i}", f"S{i}", rating=float(i)) for i in range(3)]
        config = EvalConfig(methods=("speech_rate",), vocab=_dummy_vocab(),
                            dataset_name="demo", language="Dutch")
        table = build_report([RunResult("speech_rate", None, None, 0.5, 3)],
                             manifest, config, ["a note"], 3)
        text = render_report_text(table)
        assert "dataset: demo" in text
        assert "speech_rate" in text
        assert "note: a note" in text


def _dummy_vocab():
    from asr_inconsistency import Vocabulary
    return Vocabulary(("<blank>", "|", "a"), 0, 1)


@pytest.fixture(scope="module")
def corpus_run(synthetic_corpus, tmp_path_factory):
    vocab = load_vocabulary(synthetic_corpus.vocab_path)
    lm = load_arpa(synthetic_corpus.lm_path)
    manifest = load_manifest(synthetic_corpus.manifest_path)
    mock = MockCorrector.from_json(str(synthetic_corpus.mock_half_fix_path))
    config = EvalConfig(
        methods=("speech_rate", "wada_snr", "ngram", "llm", "reference_wer"),
        vocab=vocab, lm=lm,
        llm_models=(LlmSpec("mock-corrector", mock),),
        dataset_name="synthetic", language="Dutch",
        base_dir=synthetic_corpus.root)
    run_dir = tmp_path_factory.mktemp("run")
    result = run_pipeline(manifest, config, run_dir)
    return result, manifest


class TestPipeline:
    def test_all_utterances_scored(self, corpus_run):
        result, manifest = corpus_run
        assert len(result.utterances) == len(manifest)
        assert all(not u.errors for u in result.utterances)

    def test_expected_sign_pattern(self, corpus_run):
        result, _ = corpus_run
        by_method = {}
        for rr in result.run_results:
            by_method.setdefault(rr.method, []).append(rr.pearson_r)
        assert all(r > 0 for r in by_method["speech_rate"])
        assert all(r < 0 for r in by_method["ngram"])
        assert all(r < 0 for r in by_method["llm"])
        assert all(r < 0 for r in by_method["reference_wer"])

    def test_run_directory_layout(self, corpus_run):
        result, manifest = corpus_run
        run_dir = result.run_dir
        for name in ("config.json", "utterance_scores.csv", "scores.csv",
                     "report.csv", "report.txt"):
            assert (run_dir / name).exists(), name
        first = manifest[0].utterance_id
        tdir = run_dir / "transcripts" / first
        assert (tdir / "greedy.txt").exists()
        assert (tdir / "ngram.txt").exists()
        assert (tdir / "ground_truth.txt").exists()
        assert (tdir / "llm_mock-corrector_run0.txt").exists()
        assert (run_dir / "llm_raw" /
                f"{first}__llm_mock-corrector_run0.txt").exists()

    @pytest.mark.parametrize("methods", [("speech_rate", "llm"), ("speech_rate",)])
    def test_llm_raw_is_made_once_and_only_for_replies(self, synthetic_corpus, tmp_path,
                                                       monkeypatch, methods):
        made = []
        mkdir = Path.mkdir

        def recording(path, *args, **kwargs):
            made.append(path.name)
            return mkdir(path, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", recording)
        config = EvalConfig(
            methods=methods, vocab=load_vocabulary(synthetic_corpus.vocab_path),
            llm_models=(LlmSpec("mock-corrector", MockCorrector()),) if "llm" in methods else (),
            base_dir=synthetic_corpus.root)
        run_pipeline(load_manifest(synthetic_corpus.manifest_path), config, tmp_path / "run")
        replies = "llm" in methods
        assert made.count("llm_raw") == replies
        assert (tmp_path / "run" / "llm_raw").is_dir() == replies

    def test_config_snapshot_is_valid_json(self, corpus_run):
        result, _ = corpus_run
        snapshot = json.loads((result.run_dir / "config.json").read_text())
        assert snapshot["methods"] == ["speech_rate", "wada_snr", "ngram",
                                       "llm", "reference_wer"]

    def test_report_cells_replayable_from_utterance_scores(self, corpus_run):
        result, _ = corpus_run
        replayed = {(rr.method, rr.model_name, rr.run_index): rr.pearson_r
                    for rr in replay_run_results(result.run_dir)[0]}
        original = {(rr.method, rr.model_name, rr.run_index): rr.pearson_r
                    for rr in result.run_results}
        assert replayed == original

    def test_llm_accuracy_report_direction(self, corpus_run):
        result, _ = corpus_run
        text = llm_accuracy_report(result.run_dir)
        assert "greedy WER" in text
        assert "corrected[mock-corrector]" in text

    def test_missing_rating_manifest_still_runs(self, synthetic_corpus, tmp_path):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        manifest = [
            UtteranceRecord(utterance_id=r.utterance_id, speaker_id=r.speaker_id,
                            posterior_path=r.posterior_path,
                            ground_truth_text=r.ground_truth_text,
                            duration_s=r.duration_s)
            for r in load_manifest(synthetic_corpus.manifest_path)[:6]
        ]
        config = EvalConfig(methods=("speech_rate",), vocab=vocab,
                            base_dir=synthetic_corpus.root)
        result = run_pipeline(manifest, config, tmp_path / "r")
        assert result.run_results == []  # no correlation columns
        assert result.speaker_scores  # scores still emitted

    def test_per_utterance_failures_are_quarantined(self, synthetic_corpus, tmp_path):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        manifest = load_manifest(synthetic_corpus.manifest_path)[:4]
        broken = UtteranceRecord(utterance_id="zz_broken", speaker_id="zz",
                                 posterior_path="post/does_not_exist.ctcp",
                                 rating=4.0)
        config = EvalConfig(methods=("reference_wer",), vocab=vocab,
                            base_dir=synthetic_corpus.root)
        result = run_pipeline(manifest + [broken], config, tmp_path / "r")
        assert (result.run_dir / "exclusions.csv").exists()
        scored = {u.record.utterance_id for u in result.utterances if u.scores}
        assert "zz_broken" not in scored
        assert len(scored) == 4

    def test_zero_usable_utterances_fails(self, synthetic_corpus, tmp_path):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        broken = [UtteranceRecord(utterance_id=f"b{i}", speaker_id="s",
                                  posterior_path=f"post/missing{i}.ctcp")
                  for i in range(3)]
        config = EvalConfig(methods=("reference_wer",), vocab=vocab,
                            base_dir=synthetic_corpus.root)
        with pytest.raises(PipelineError, match="no utterance produced any score"):
            run_pipeline(broken, config, tmp_path / "r")
        # a failed run leaves no run directory behind
        assert not (tmp_path / "r").exists()


class TestLlmAccuracyDirections:
    def _run(self, synthetic_corpus, tmp_path, mock, name):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        manifest = load_manifest(synthetic_corpus.manifest_path)
        config = EvalConfig(methods=("llm", "reference_wer"), vocab=vocab,
                            llm_models=(LlmSpec(name, mock),),
                            base_dir=synthetic_corpus.root)
        result = run_pipeline(manifest, config, tmp_path / name)
        flat = [s for u in result.utterances for s in u.scores]

        def micro(method):
            sub = [s for s in flat if s.method == method
                   and (s.run_index in (None, 0))]
            return sum(s.n_edits for s in sub) / sum(s.ref_len for s in sub)

        return micro("reference_wer"), micro("llm_accuracy")

    def test_full_fixing_mock_reaches_zero_wer(self, synthetic_corpus, tmp_path):
        mock = MockCorrector.from_json(str(synthetic_corpus.mock_full_fix_path))
        greedy_wer, llm_wer = self._run(synthetic_corpus, tmp_path, mock, "full")
        assert greedy_wer > 0.0
        assert llm_wer == 0.0

    def test_echoing_mock_matches_greedy_wer(self, synthetic_corpus, tmp_path):
        greedy_wer, llm_wer = self._run(synthetic_corpus, tmp_path,
                                        MockCorrector(), "echo")
        assert llm_wer == pytest.approx(greedy_wer)


class TestEvalConfig:
    @pytest.mark.parametrize("method", ["ngram", "llm", "reference_wer"])
    def test_decoded_methods_need_a_vocabulary(self, bigram_model, method):
        with pytest.raises(ValueError, match="vocabulary"):
            EvalConfig(methods=(method,), vocab=None, lm=bigram_model,
                       llm_models=(LlmSpec("m", MockCorrector()),))

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="method 'wada_snr' is given twice"):
            EvalConfig(methods=("wada_snr", "speech_rate", "wada_snr"))

    def test_unknown_speech_rate_unit_rejected(self):
        with pytest.raises(ValueError, match="speech rate unit"):
            EvalConfig(methods=("speech_rate",), speech_rate_unit="words_per_hour")

    @pytest.mark.parametrize("temperature", [-1.0, float("nan"), float("inf")])
    def test_negative_or_nan_llm_temperature_rejected(self, temperature):
        with pytest.raises(ValueError, match="llm_temperature must be a finite number >= 0"):
            EvalConfig(methods=("speech_rate",), llm_temperature=temperature)

    def test_empty_llm_model_name_rejected(self):
        with pytest.raises(ValueError, match="model name"):
            EvalConfig(methods=("speech_rate",),
                       llm_models=(LlmSpec("", MockCorrector()),))


class TestScoreUtterance:
    def test_speech_rate_needs_duration_or_audio(self, synthetic_corpus):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        rec = load_manifest(synthetic_corpus.manifest_path)[0]
        stripped = UtteranceRecord(utterance_id=rec.utterance_id,
                                   speaker_id=rec.speaker_id,
                                   posterior_path=rec.posterior_path,
                                   ground_truth_text=rec.ground_truth_text)
        config = EvalConfig(methods=("speech_rate",), vocab=vocab,
                            base_dir=synthetic_corpus.root)
        result = score_utterance(stripped, config)
        assert result.scores == []
        assert result.errors[0][0] == "speech_rate"
        assert "duration" in result.errors[0][1]

    def test_wada_needs_audio(self, synthetic_corpus):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        rec = load_manifest(synthetic_corpus.manifest_path)[0]
        stripped = UtteranceRecord(utterance_id=rec.utterance_id,
                                   speaker_id=rec.speaker_id,
                                   posterior_path=rec.posterior_path,
                                   rating=rec.rating)
        config = EvalConfig(methods=("wada_snr",), vocab=vocab,
                            base_dir=synthetic_corpus.root)
        result = score_utterance(stripped, config)
        assert result.scores == []
        assert result.errors and result.errors[0][0] == "wada_snr"

    def test_duration_falls_back_to_audio_length(self, synthetic_corpus):
        vocab = load_vocabulary(synthetic_corpus.vocab_path)
        rec = load_manifest(synthetic_corpus.manifest_path)[0]
        no_duration = UtteranceRecord(utterance_id=rec.utterance_id,
                                      speaker_id=rec.speaker_id,
                                      posterior_path=rec.posterior_path,
                                      audio_path=rec.audio_path,
                                      ground_truth_text=rec.ground_truth_text)
        config = EvalConfig(methods=("speech_rate",), vocab=vocab,
                            base_dir=synthetic_corpus.root)
        result = score_utterance(no_duration, config)
        assert result.scores and result.scores[0].method == "speech_rate"
        # 0.35 s of audio at 5 words -> about 857 words per minute
        assert result.scores[0].value == pytest.approx(5 / 0.35 * 60, rel=1e-6)

    def test_baselines_read_no_posterior(self, synthetic_corpus, monkeypatch):
        def load_posteriors(*args):
            raise PosteriorFormatError("the baselines read no posterior")

        monkeypatch.setattr(harness, "load_posteriors", load_posteriors)
        config = EvalConfig(methods=("speech_rate", "wada_snr"),
                            vocab=load_vocabulary(synthetic_corpus.vocab_path),
                            base_dir=synthetic_corpus.root)
        rec = load_manifest(synthetic_corpus.manifest_path)[0]
        result = score_utterance(rec, config)
        assert [s.method for s in result.scores] == ["speech_rate", "wada_snr"]
        assert result.errors == [] and result.greedy is None

    def test_failed_decode_is_read_and_recorded_once(self, synthetic_corpus,
                                                     monkeypatch):
        calls = []

        def load_posteriors(path, vocab):
            calls.append(path)
            raise PosteriorFormatError(f"{path}: bad")

        monkeypatch.setattr(harness, "load_posteriors", load_posteriors)
        config = EvalConfig(
            methods=("ngram", "speech_rate", "llm", "reference_wer"),
            vocab=load_vocabulary(synthetic_corpus.vocab_path),
            lm=load_arpa(synthetic_corpus.lm_path),
            llm_models=(LlmSpec("m", MockCorrector()),),
            base_dir=synthetic_corpus.root)
        rec = load_manifest(synthetic_corpus.manifest_path)[0]
        result = score_utterance(rec, config)
        assert len(calls) == 1
        assert result.errors == [("decode", f"{calls[0]}: bad")]
        assert [s.method for s in result.scores] == ["speech_rate"]

    @staticmethod
    def _baselines_without_duration(synthetic_corpus, monkeypatch, audio_path=None):
        """Both baselines of the first record without its duration_s, and the
        WAV paths they read."""
        reads = []
        read_wav = harness.read_wav
        monkeypatch.setattr(harness, "read_wav",
                            lambda path: reads.append(path) or read_wav(path))
        rec = load_manifest(synthetic_corpus.manifest_path)[0]
        no_duration = UtteranceRecord(utterance_id=rec.utterance_id,
                                      speaker_id=rec.speaker_id,
                                      posterior_path=rec.posterior_path,
                                      audio_path=audio_path or rec.audio_path,
                                      ground_truth_text=rec.ground_truth_text)
        config = EvalConfig(methods=("speech_rate", "wada_snr"),
                            base_dir=synthetic_corpus.root)
        return score_utterance(no_duration, config), reads

    def test_wav_is_read_once_for_both_baselines(self, synthetic_corpus, monkeypatch):
        result, reads = self._baselines_without_duration(synthetic_corpus, monkeypatch)
        assert len(reads) == 1
        assert [s.method for s in result.scores] == ["speech_rate", "wada_snr"]

    def test_failed_wav_read_excludes_both_baselines(self, synthetic_corpus,
                                                     monkeypatch):
        result, reads = self._baselines_without_duration(
            synthetic_corpus, monkeypatch, audio_path="missing.wav")
        assert len(reads) == 1 and result.scores == []
        (rate_stage, rate_message), (wada_stage, wada_message) = result.errors
        assert (rate_stage, wada_stage) == ("speech_rate", "wada_snr")
        assert rate_message == wada_message and "missing.wav" in rate_message
