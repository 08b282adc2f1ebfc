import json

import pytest

from asr_inconsistency import UtteranceRecord, load_manifest, write_manifest
from asr_inconsistency.errors import ManifestFormatError


def write_lines(tmp_path, objs):
    path = tmp_path / "manifest.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")
    return path


def test_two_records_in_file_order(tmp_path):
    path = write_lines(tmp_path, [
        {"utterance_id": "u2", "speaker_id": "s1", "posterior_path": "p/u2.ctcp"},
        {"utterance_id": "u1", "speaker_id": "s1", "posterior_path": "p/u1.ctcp"},
    ])
    records = load_manifest(path)
    assert [r.utterance_id for r in records] == ["u2", "u1"]


def test_duplicate_utterance_id_rejected(tmp_path):
    path = write_lines(tmp_path, [
        {"utterance_id": "u1", "speaker_id": "s1", "posterior_path": "a"},
        {"utterance_id": "u1", "speaker_id": "s2", "posterior_path": "b"},
    ])
    with pytest.raises(ManifestFormatError, match="duplicate utterance_id 'u1'"):
        load_manifest(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"utterance_id": "u1", "speaker_id": "s", "posterior_path": "p"}\n'
                    "{not json}\n")
    with pytest.raises(ManifestFormatError) as err:
        load_manifest(path)
    assert ":2:" in str(err.value)


def test_missing_required_field_rejected(tmp_path):
    path = write_lines(tmp_path, [{"utterance_id": "u1", "speaker_id": "s1"}])
    with pytest.raises(ManifestFormatError):
        load_manifest(path)


def test_non_positive_duration_rejected(tmp_path):
    path = write_lines(tmp_path, [
        {"utterance_id": "u1", "speaker_id": "s1", "posterior_path": "p",
         "duration_s": 0.0},
    ])
    with pytest.raises(ManifestFormatError):
        load_manifest(path)


@pytest.mark.parametrize("key", ["rating", "duration_s"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_number_rejected_with_line(tmp_path, key, literal):
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"utterance_id": "u1", "speaker_id": "s", "posterior_path": "p"}\n'
                    '{"utterance_id": "u2", "speaker_id": "s", "posterior_path": "p", '
                    f'"{key}": {literal}}}\n')
    with pytest.raises(ManifestFormatError) as err:
        load_manifest(path)
    assert ":2:" in str(err.value) and key in str(err.value)


def test_number_too_large_for_a_float_rejected_with_line(tmp_path):
    # json reads the literal as an int, which float() cannot convert
    path = tmp_path / "manifest.jsonl"
    path.write_text('{"utterance_id": "u1", "speaker_id": "s", "posterior_path": "p", '
                    f'"rating": 1{"0" * 400}}}\n')
    with pytest.raises(ManifestFormatError) as err:
        load_manifest(path)
    assert f"{path}:1: rating" in str(err.value)


def test_non_utf8_file_rejected_with_path(tmp_path):
    path = tmp_path / "manifest.jsonl"
    path.write_bytes(b"\xff\xfe" + '{"utterance_id": "u1"}\n'.encode("utf-16-le"))
    with pytest.raises(ManifestFormatError) as err:
        load_manifest(path)
    assert str(path) in str(err.value)


def test_round_trip_is_identity_on_all_fields(tmp_path):
    records = [
        UtteranceRecord(utterance_id="u1", speaker_id="s1", posterior_path="p/u1",
                        timepoint_id="t0", audio_path="w/u1.wav",
                        ground_truth_text="de kat", rating=4.5, duration_s=2.25),
        UtteranceRecord(utterance_id="u2", speaker_id="s2", posterior_path="p/u2"),
    ]
    path = tmp_path / "rt.jsonl"
    write_manifest(records, path)
    assert load_manifest(path) == records


def test_group_key_uses_speaker_and_timepoint():
    a = UtteranceRecord(utterance_id="u", speaker_id="s", posterior_path="p",
                        timepoint_id="pre")
    b = UtteranceRecord(utterance_id="v", speaker_id="s", posterior_path="p")
    assert a.group_key == ("s", "pre")
    assert b.group_key == ("s", "")
