import pytest

from asr_inconsistency import Vocabulary, load_vocabulary
from asr_inconsistency.errors import VocabularyError


def write_vocab(tmp_path, lines):
    path = tmp_path / "vocab.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_assigns_indices_by_line_order(tmp_path):
    vocab = load_vocabulary(write_vocab(tmp_path, ["<blank>", "|", "a", "b"]))
    assert vocab.blank_index == 0
    assert vocab.delimiter_index == 1
    assert len(vocab) == 4
    assert vocab.symbols == ("<blank>", "|", "a", "b")


def test_blank_and_delimiter_at_arbitrary_lines(tmp_path):
    vocab = load_vocabulary(write_vocab(tmp_path, ["a", "|", "b", "<blank>"]))
    assert vocab.blank_index == 3
    assert vocab.delimiter_index == 1


def test_duplicate_symbol_rejected(tmp_path):
    with pytest.raises(VocabularyError, match="duplicate symbol '<blank>'"):
        load_vocabulary(write_vocab(tmp_path, ["<blank>", "|", "a", "<blank>"]))


def test_missing_delimiter_rejected(tmp_path):
    with pytest.raises(VocabularyError, match=r"no '\|' line"):
        load_vocabulary(write_vocab(tmp_path, ["<blank>", "a", "b"]))


def test_missing_blank_rejected(tmp_path):
    with pytest.raises(VocabularyError, match="no '<blank>' line"):
        load_vocabulary(write_vocab(tmp_path, ["|", "a", "b"]))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("", encoding="utf-8")
    with pytest.raises(VocabularyError, match="empty vocabulary file"):
        load_vocabulary(path)


def test_empty_symbol_line_rejected(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("<blank>\n\n|\n", encoding="utf-8")
    with pytest.raises(VocabularyError):
        load_vocabulary(path)


def test_non_utf8_file_rejected_with_path(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes(b"\xff\xfe" + "<blank>\n|\na\n".encode("utf-16-le"))
    with pytest.raises(VocabularyError) as err:
        load_vocabulary(path)
    assert str(path) in str(err.value)


def test_constructor_rejects_blank_equal_delimiter():
    with pytest.raises(VocabularyError):
        Vocabulary(symbols=("x", "y"), blank_index=0, delimiter_index=0)


def test_constructor_rejects_out_of_range_index():
    with pytest.raises(VocabularyError):
        Vocabulary(symbols=("x", "y"), blank_index=0, delimiter_index=5)
