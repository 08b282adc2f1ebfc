import struct
import wave

import numpy as np
import pytest

from asr_inconsistency import AudioBuffer, read_wav, write_wav
from asr_inconsistency.errors import AudioError


def write_pcm(path, samples_int16, rate=16000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(sampwidth)
        wav.setframerate(rate)
        wav.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())


def test_reads_mono_16k(tmp_path):
    path = tmp_path / "a.wav"
    write_pcm(path, np.zeros(16000, dtype=np.int16) + 100, rate=16000)
    buf = read_wav(path)
    assert len(buf.samples) == 16000
    assert buf.sample_rate_hz == 16000
    assert buf.duration_s == pytest.approx(1.0)


def test_full_scale_negative_maps_to_minus_one(tmp_path):
    path = tmp_path / "fs.wav"
    write_pcm(path, [-32768, 0, 32767])
    buf = read_wav(path)
    assert buf.samples[0] == -1.0
    assert buf.samples[1] == 0.0
    assert buf.samples[2] == pytest.approx(32767 / 32768)


def test_stereo_rejected(tmp_path):
    path = tmp_path / "st.wav"
    write_pcm(path, np.zeros(200, dtype=np.int16), channels=2)
    with pytest.raises(AudioError, match="2 channels"):
        read_wav(path)


def test_8bit_rejected(tmp_path):
    path = tmp_path / "b8.wav"
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(1)
        wav.setframerate(8000)
        wav.writeframes(b"\x80" * 100)
    with pytest.raises(AudioError, match="only uncompressed 16-bit PCM"):
        read_wav(path)


def test_truncated_data_rejected(tmp_path):
    path = tmp_path / "tr.wav"
    write_pcm(path, np.zeros(100, dtype=np.int16))
    raw = path.read_bytes()
    # overstate the frame count in the header, keep the data short
    n_frames_offset = raw.find(b"data") + 4
    truncated = bytearray(raw)
    truncated[n_frames_offset:n_frames_offset + 4] = struct.pack("<I", 400)
    path.write_bytes(bytes(truncated))
    with pytest.raises(AudioError, match="expected 200 frames, got 100"):
        read_wav(path)


def test_non_wav_rejected(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"this is not RIFF data at all")
    with pytest.raises(AudioError, match="does not start with RIFF id"):
        read_wav(path)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    samples = rng.uniform(-0.9, 0.9, 500)
    path = tmp_path / "rt.wav"
    write_wav(AudioBuffer(samples, 8000), path)
    buf = read_wav(path)
    assert buf.sample_rate_hz == 8000
    np.testing.assert_allclose(buf.samples, samples, atol=1.0 / 32768)
    assert buf.duration_s == pytest.approx(500 / 8000)
