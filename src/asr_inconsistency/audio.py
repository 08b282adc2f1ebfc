"""Mono 16-bit PCM WAV reading (and a small writer for fixtures)."""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioError

_INT16_FULL_SCALE = 32768.0


@dataclass(frozen=True)
class AudioBuffer:
    samples: np.ndarray  # float64 in [-1, 1]
    sample_rate_hz: int

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def read_wav(path: str | Path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file, scaling samples to [-1, 1]."""
    try:
        with wave.open(str(path), "rb") as wav:
            if wav.getnchannels() != 1:
                raise AudioError(f"{path}: {wav.getnchannels()} channels")
            if wav.getsampwidth() != 2 or wav.getcomptype() != "NONE":
                raise AudioError(f"{path}: only uncompressed 16-bit PCM is supported")
            n = wav.getnframes()
            rate = wav.getframerate()
            raw = wav.readframes(n)
    except wave.Error as exc:
        raise AudioError(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise AudioError(f"{path}: truncated header") from exc
    if len(raw) != 2 * n:
        raise AudioError(f"{path}: expected {n} frames, got {len(raw) // 2}")
    if n == 0:
        raise AudioError(f"{path}: file contains no samples")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / _INT16_FULL_SCALE
    samples.setflags(write=False)
    return AudioBuffer(samples=samples, sample_rate_hz=rate)


def write_wav(buffer: AudioBuffer, path: str | Path) -> None:
    clipped = np.clip(buffer.samples, -1.0, 32767.0 / _INT16_FULL_SCALE)
    data = np.round(clipped * _INT16_FULL_SCALE).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(buffer.sample_rate_hz)
        wav.writeframes(data.tobytes())
