import unicodedata

import pytest

from asr_inconsistency import (
    PosteriorMatrix,
    Transcript,
    Vocabulary,
    collapse,
    extract_bracketed,
    greedy_decode,
    normalize_text,
)
from asr_inconsistency.errors import TranscriptInvariantError
from asr_inconsistency.refgen import BRACKETED
from conftest import matrix_from_probs, peaked_rows

# (text, its words) in the orthographies of the paper's three languages
ORTHOGRAPHY = [
    # Spanish: inverted marks, accents and ñ, precomposed and decomposed
    ("¿Qué hora es?", ["qué", "hora", "es"]),
    ("¡Hola, señor!", ["hola", "señor"]),
    ("¿Sí?¡No!", ["sí", "no"]),
    ("El niño—la niña", ["el", "niño", "la", "niña"]),
    (unicodedata.normalize("NFD", "Mañana, el NIÑO."), ["mañana", "el", "niño"]),
    ("Cuesta 3,5 euros", ["cuesta", "3,5", "euros"]),
    # Dutch: a leading apostrophe is a boundary, an inner one is kept
    ("'t Is zo'n mooie dag", ["t", "is", "zo'n", "mooie", "dag"]),
    ("'s Avonds eet ik ijs", ["s", "avonds", "eet", "ik", "ijs"]),
    ("IJmuiden, Nijmegen", ["ijmuiden", "nijmegen"]),
    # English: contractions and hyphenated compounds
    ("Don't worry, it's fine.", ["don't", "worry", "it's", "fine"]),
    ("I’m a well-known mother-in-law", ["i’m", "a", "well-known", "mother-in-law"]),
    ("rock&roll", ["rock", "roll"]),
    ("wait...what", ["wait", "what"]),
    ("hello,world", ["hello", "world"]),
    ("3.5 kg", ["3.5", "kg"]),
    # any language: other marks between two characters are boundaries, and
    # a decimal mark is kept only between two digits
    ("a.b,c;d(e)f", ["a", "b", "c", "d", "e", "f"]),
    ("v3.x 1. .5", ["v3", "x", "1", "5"]),
]


def spelled(text: str) -> tuple[Vocabulary, PosteriorMatrix]:
    """A vocabulary with one symbol per character of `text` (a space is the
    delimiter) and a posterior whose greedy path spells `text`, a blank
    after every character."""
    symbols = ["<blank>", "|", *dict.fromkeys(ch for ch in text if ch != " ")]
    vocab = Vocabulary(tuple(symbols), 0, 1)
    hot = [i for ch in text for i in (symbols.index(ch if ch != " " else "|"), 0)]
    return vocab, matrix_from_probs("u", peaked_rows(hot, len(symbols)))


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



@pytest.mark.parametrize("text, words", ORTHOGRAPHY)
class TestOrthographies:
    def test_normalize_text(self, text, words):
        assert normalize_text(text) == words

    def test_through_the_bracketed_reply(self, text, words):
        extracted, how = extract_bracketed(f"Corrected: [{text}]")
        assert how == BRACKETED
        assert Transcript.from_raw(extracted).words == tuple(words)

    def test_through_the_greedy_path(self, text, words):
        vocab, post = spelled(text)
        assert collapse(greedy_decode(post), vocab).words == tuple(words)


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
