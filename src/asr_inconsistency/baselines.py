"""Confounder baselines: speech rate and WADA-style blind SNR estimation."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

import numpy as np

from .audio import AudioBuffer
from .errors import AudioError, MissingInputError
from .metrics import ScoreRecord
from .transcript import Transcript

WORDS_PER_MINUTE = "words_per_minute"
WORDS_PER_SECOND = "words_per_second"

_MAG_FLOOR = 1e-12  # relative to peak; keeps ln|z| finite on zero samples


def speech_rate(ground_truth: Transcript | None, duration_s: float,
                utterance_id: str = "",
                *, unit: str = WORDS_PER_MINUTE) -> ScoreRecord:
    """Ground-truth word count divided by utterance duration."""
    if ground_truth is None:
        raise MissingInputError(f"{utterance_id}: no ground-truth text")
    if duration_s <= 0:
        raise MissingInputError(f"{utterance_id}: duration {duration_s}")
    rate = ground_truth.word_count / duration_s
    if unit == WORDS_PER_MINUTE:
        rate *= 60.0
    elif unit != WORDS_PER_SECOND:
        raise ValueError(f"unknown speech rate unit {unit!r}")
    return ScoreRecord(utterance_id=utterance_id, method="speech_rate", value=rate)


@lru_cache(maxsize=1)
def _gain_table() -> tuple[np.ndarray, np.ndarray]:
    """(gain, snr_db) columns of the bundled lookup asset."""
    text = resources.files("asr_inconsistency").joinpath(
        "data/wada_gain_table.txt").read_text(encoding="utf-8")
    gains: list[float] = []
    dbs: list[float] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        g, db = line.split()
        gains.append(float(g))
        dbs.append(float(db))
    g_arr = np.asarray(gains)
    db_arr = np.asarray(dbs)
    if not np.all(np.diff(g_arr) > 0):
        raise ValueError("gain table is not strictly increasing")
    return g_arr, db_arr


def _gain_statistic(samples: np.ndarray) -> float:
    """ln(mean |z|) - mean(ln |z|), the amplitude-distribution gain.

    The statistic is invariant to rescaling the waveform, so peak
    normalization only serves to make the magnitude floor relative.
    """
    mag = np.abs(samples)
    peak = float(mag.max())
    if peak == 0.0:
        raise AudioError("all samples are zero")
    mag = np.maximum(mag / peak, _MAG_FLOOR)
    return float(np.log(mag.mean()) - np.log(mag).mean())


def _statistic_to_db(stat: float) -> float:
    gains, dbs = _gain_table()
    # np.interp clamps at both table ends (-20 dB .. +100 dB)
    return float(np.interp(stat, gains, dbs))


def wada_snr(audio: AudioBuffer, utterance_id: str = "") -> ScoreRecord:
    """Blind SNR estimate over the whole utterance, assuming Gamma-distributed
    speech amplitudes in Gaussian noise, via the standard gain-to-SNR lookup.
    """
    samples = np.asarray(audio.samples, dtype=np.float64)
    if samples.size == 0 or not np.any(samples):
        raise AudioError(f"{utterance_id}: silent or empty audio")
    value = _statistic_to_db(_gain_statistic(samples))
    return ScoreRecord(utterance_id=utterance_id, method="wada_snr", value=value)
