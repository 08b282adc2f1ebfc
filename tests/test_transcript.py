import pytest

from asr_inconsistency import Transcript, normalize_text
from asr_inconsistency.errors import TranscriptInvariantError


class TestNormalizeText:
    def test_lowercase_and_punctuation(self):
        assert normalize_text("De Kat, zit.") == ["de", "kat", "zit"]

    def test_stray_period_dropped(self):
        assert normalize_text("zij hadden .") == ["zij", "hadden"]

    def test_intra_word_apostrophe_and_hyphen_kept(self):
        assert normalize_text("it's o-k") == ["it's", "o-k"]

    def test_edge_apostrophes_dropped(self):
        assert normalize_text("'kat' -zit-") == ["kat", "zit"]

    def test_delimiter_bar_acts_as_whitespace(self):
        assert normalize_text("de|kat|zit") == ["de", "kat", "zit"]

    def test_whitespace_collapse(self):
        assert normalize_text("  de \t kat\n zit ") == ["de", "kat", "zit"]

    def test_empty_input(self):
        assert normalize_text("") == []
        assert normalize_text(" ... ") == []

    def test_unicode_nfc_applies_before_lowercasing(self):
        # decomposed e + combining acute must equal the precomposed form
        assert normalize_text("café") == normalize_text("café")

    def test_typographic_apostrophe(self):
        assert normalize_text("it’s") == ["it’s"]


class TestTranscript:
    def test_from_raw_normalizes(self):
        t = Transcript.from_raw("De Kat!")
        assert t.words == ("de", "kat")
        assert t.word_count == 2
        assert t.text() == "de kat"

    def test_from_raw_normalizes_once(self, monkeypatch):
        from asr_inconsistency import transcript
        calls = []

        def counting(text):
            calls.append(text)
            return normalize_text(text)

        monkeypatch.setattr(transcript, "normalize_text", counting)
        t = Transcript.from_raw("De Kat!")
        assert calls == ["De Kat!"]
        assert t.words == ("de", "kat")

    def test_delimiter_inside_word_rejected(self):
        with pytest.raises(TranscriptInvariantError):
            Transcript(words=("a|b",))

    def test_empty_transcript_allowed(self):
        t = Transcript.from_raw("")
        assert t.words == ()
