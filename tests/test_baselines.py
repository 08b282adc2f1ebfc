import math

import numpy as np
import pytest

from asr_inconsistency import (
    AudioBuffer,
    Transcript,
    speech_rate,
    wada_snr,
)
from asr_inconsistency.baselines import WORDS_PER_SECOND, _gain_table
from asr_inconsistency.errors import AudioError, MissingInputError


def truth(text):
    return Transcript.from_raw(text)


def gamma_noise_mix(rng, n, snr_db):
    """Gamma-amplitude speech plus white Gaussian noise at an exact
    empirical power ratio."""
    speech = rng.gamma(0.4, 1.0, n) * rng.choice([-1.0, 1.0], n)
    speech /= math.sqrt(float(np.mean(speech ** 2)))
    noise = rng.standard_normal(n)
    noise /= math.sqrt(float(np.mean(noise ** 2)))
    return speech + noise * 10.0 ** (-snr_db / 20.0)


class TestSpeechRate:
    def test_words_per_minute(self):
        record = speech_rate(truth("w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12"), 30.0)
        assert record.value == pytest.approx(24.0)
        assert record.method == "speech_rate"

    def test_words_per_second_unit(self):
        record = speech_rate(truth("a b c"), 2.0, unit=WORDS_PER_SECOND)
        assert record.value == pytest.approx(1.5)

    def test_empty_transcript_is_zero(self):
        assert speech_rate(truth(""), 3.0).value == 0.0

    def test_zero_duration_rejected(self):
        with pytest.raises(MissingInputError, match="duration 0.0"):
            speech_rate(truth("a"), 0.0)

    def test_missing_ground_truth_rejected(self):
        with pytest.raises(MissingInputError, match="no ground-truth text"):
            speech_rate(None, 3.0)

    def test_linear_in_word_count(self):
        one = speech_rate(truth("w"), 10.0).value
        for k in (2, 5, 9):
            text = " ".join(f"w{i}" for i in range(k))
            assert speech_rate(truth(text), 10.0).value == pytest.approx(k * one)


class TestGainTable:
    def test_strictly_increasing_and_in_range(self):
        gains, dbs = _gain_table()
        assert np.all(np.diff(gains) > 0)
        assert dbs[0] == -20.0
        assert dbs[-1] == 100.0


class TestWadaSnr:
    def test_known_mixture_within_three_db(self):
        rng = np.random.default_rng(101)
        for target in (0.0, 10.0, 20.0):
            mix = gamma_noise_mix(rng, 16000, target)
            est = wada_snr(AudioBuffer(mix / np.max(np.abs(mix)), 16000)).value
            assert abs(est - target) <= 3.0

    def test_pure_gaussian_noise_estimates_low(self):
        rng = np.random.default_rng(102)
        noise = rng.standard_normal(16000)
        est = wada_snr(AudioBuffer(noise / np.max(np.abs(noise)), 16000)).value
        assert est < 0.0

    def test_silent_audio_rejected(self):
        with pytest.raises(AudioError, match="silent or empty audio"):
            wada_snr(AudioBuffer(np.zeros(1000), 16000))

    def test_scale_invariance(self):
        rng = np.random.default_rng(103)
        mix = gamma_noise_mix(rng, 8000, 12.0)
        base = wada_snr(AudioBuffer(mix / np.max(np.abs(mix)) * 0.5, 8000)).value
        for c in (1e-3, 7.0, 1e3):
            scaled = wada_snr(AudioBuffer(mix / np.max(np.abs(mix)) * 0.5 * c, 8000)).value
            assert abs(scaled - base) < 0.01

    def test_monotone_in_true_snr(self):
        rng = np.random.default_rng(104)
        levels = [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0]
        means = []
        for level in levels:
            trials = [wada_snr(AudioBuffer(gamma_noise_mix(rng, 16000, level), 16000)).value
                      for _ in range(5)]
            means.append(float(np.mean(trials)))
        assert all(b >= a for a, b in zip(means, means[1:]))
