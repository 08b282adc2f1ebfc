import math

import numpy as np
import pytest

from asr_inconsistency import PosteriorMatrix, load_posteriors, write_posteriors
from asr_inconsistency.errors import PosteriorFormatError

from conftest import random_log_matrix


def test_uniform_text_matrix_loads(tmp_path, abc_vocab):
    path = tmp_path / "u1.txt"
    row = " ".join([repr(math.log(0.2))] * 5)
    path.write_text(f"2 5\n{row}\n{row}\n")
    post = load_posteriors(path, abc_vocab)
    assert post.utterance_id == "u1"
    assert post.frame_count == 2
    assert post.vocab_size == 5
    np.testing.assert_allclose(np.exp(post.frames).sum(axis=1), 1.0, atol=1e-12)


def test_row_sum_violation_rejected(tmp_path, abc_vocab):
    path = tmp_path / "bad.txt"
    row = " ".join([repr(math.log(0.24))] * 5)  # sums to 1.2
    path.write_text(f"1 5\n{row}\n")
    with pytest.raises(PosteriorFormatError, match="row 0 sums to 1.200000"):
        load_posteriors(path, abc_vocab)


def test_dimension_mismatch_vs_vocab(tmp_path, abc_vocab):
    path = tmp_path / "dim.txt"
    row = " ".join([repr(math.log(1 / 4))] * 4)
    path.write_text(f"3 4\n{row}\n{row}\n{row}\n")
    with pytest.raises(PosteriorFormatError, match="4 columns vs vocabulary of 5"):
        load_posteriors(path, abc_vocab)


def test_non_finite_entry_rejected():
    arr = np.full((1, 5), math.log(0.25))
    arr[0, 0] = -np.inf
    with pytest.raises(PosteriorFormatError, match="non-finite log-probability"):
        PosteriorMatrix.from_array("x", arr)


def test_positive_logprob_rejected():
    arr = np.full((1, 5), math.log(0.2))
    arr[0, 0] = 0.1
    with pytest.raises(PosteriorFormatError, match="positive log-probability"):
        PosteriorMatrix.from_array("x", arr)


def test_bad_magic_rejected(tmp_path, abc_vocab):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(PosteriorFormatError):
        load_posteriors(path, abc_vocab)


def test_bad_version_rejected(tmp_path, abc_vocab):
    import struct
    path = tmp_path / "v9.ctcp"
    path.write_bytes(b"CTCP" + struct.pack("<III", 9, 1, 5) + b"\x00" * 20)
    with pytest.raises(PosteriorFormatError):
        load_posteriors(path, abc_vocab)


def test_truncated_payload_rejected(tmp_path, abc_vocab):
    import struct
    path = tmp_path / "trunc.ctcp"
    path.write_bytes(b"CTCP" + struct.pack("<III", 1, 2, 5) + b"\x00" * 10)
    with pytest.raises(PosteriorFormatError):
        load_posteriors(path, abc_vocab)


def test_ctcp_round_trip_is_bit_exact(tmp_path, abc_vocab):
    rng = np.random.default_rng(11)
    # float32-representable source data so the float32 container is lossless
    logs = random_log_matrix(rng, 7, 5).astype(np.float32).astype(np.float64)
    post = PosteriorMatrix.from_array("rt", logs)
    path = tmp_path / "rt.ctcp"
    write_posteriors(post, path)
    again = load_posteriors(path, abc_vocab)
    assert np.array_equal(post.frames, again.frames)
    # and writing the reloaded matrix reproduces the same bytes
    path2 = tmp_path / "rt2.ctcp"
    write_posteriors(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_text_round_trip_preserves_values(tmp_path, abc_vocab):
    rng = np.random.default_rng(12)
    post = PosteriorMatrix.from_array("t", random_log_matrix(rng, 3, 5))
    path = tmp_path / "t.txt"
    write_posteriors(post, path, fmt="text")
    again = load_posteriors(path, abc_vocab)
    assert np.array_equal(post.frames, again.frames)


def test_frames_are_read_only():
    arr = np.full((1, 5), math.log(0.2))
    post = PosteriorMatrix.from_array("x", arr)
    with pytest.raises(ValueError):
        post.frames[0, 0] = 0.0
