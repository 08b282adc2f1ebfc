import pytest

from asr_inconsistency import (
    CorrectionRequest,
    MockCorrector,
    Transcript,
    build_prompt,
    correct_with_llm,
    extract_bracketed,
)
from asr_inconsistency.errors import EmptyReplyError, TransportError
from asr_inconsistency.refgen import BRACKETED, FALLBACK_WHOLE_REPLY, PROMPT_TEMPLATE


def greedy(text):
    return Transcript.from_raw(text)


class TestBuildPrompt:
    def test_dutch_substitution(self):
        prompt = build_prompt("Dutch", "de kat")
        assert "speaker with speech pathology in Dutch: de kat" in prompt

    def test_english_substitution(self):
        prompt = build_prompt("English", "hello")
        assert "in English: hello" in prompt

    def test_any_language_name_passes_through(self):
        assert "in German: hallo" in build_prompt("German", "hallo")

    def test_differs_from_template_only_at_slots(self):
        prompt = build_prompt("Spanish", "la casa")
        rebuilt = PROMPT_TEMPLATE.replace("{language}", "Spanish").replace(
            "{sentence}", "la casa")
        assert prompt == rebuilt
        # the frame text around the slots is byte-identical
        head, _, tail = PROMPT_TEMPLATE.partition("{language}")
        assert prompt.startswith(head)
        assert prompt.endswith(tail.partition("{sentence}")[2])

    def test_bracket_instruction_present(self):
        assert "within square brackets [like this]" in build_prompt("Dutch", "x")


class TestExtractBracketed:
    def test_simple_span(self):
        assert extract_bracketed("[de kat zit]") == ("de kat zit", BRACKETED)

    def test_first_span_wins(self):
        assert extract_bracketed("Sure! [a b] and [c]") == ("a b", BRACKETED)

    def test_no_brackets_falls_back_to_whole_reply(self):
        assert extract_bracketed("no brackets here") == \
            ("no brackets here", FALLBACK_WHOLE_REPLY)

    def test_nested_brackets_stay_balanced(self):
        assert extract_bracketed("x [a [b] c] y") == ("a [b] c", BRACKETED)

    def test_unclosed_bracket_falls_back(self):
        assert extract_bracketed("oops [never closed") == \
            ("oops [never closed", FALLBACK_WHOLE_REPLY)

    def test_empty_reply_rejected(self):
        with pytest.raises(EmptyReplyError):
            extract_bracketed("   ")

    def test_wrap_extract_round_trip(self):
        for text in ("de kat", "a b c", "x", "hello there friend"):
            assert extract_bracketed(f"[{text}]")[0] == text


class TestCorrectWithLlm:
    def test_mock_echo_three_identical_runs(self):
        results = correct_with_llm(MockCorrector(), greedy("fixed text"),
                                   "Dutch", "mock", runs=3)
        assert len(results) == 3
        assert all(r.corrected.words == ("fixed", "text") for r in results)
        assert all(r.extraction == BRACKETED for r in results)
        assert [r.run_index for r in results] == [0, 1, 2]

    def test_substitution_table_applies(self):
        mock = MockCorrector({"de kut": "[de kat]"})
        results = correct_with_llm(mock, greedy("de kut"), "Dutch", "mock", runs=1)
        assert results[0].corrected.words == ("de", "kat")
        assert results[0].raw_reply == "[de kat]"

    def test_per_run_reply_table_via_flaky_client(self):
        class FlakyClient:
            def __init__(self):
                self.calls = 0

            def complete(self, request):
                self.calls += 1
                if self.calls <= 2:
                    # the real client retries internally; emulate a client
                    # that reports two retries before its success
                    return f"[try {self.calls}]", self.calls - 1
                return "[ok]", 2

        client = FlakyClient()
        results = correct_with_llm(client, greedy("x"), "Dutch", "m", runs=3)
        assert [r.retries for r in results] == [0, 1, 2]
        assert results[2].raw_reply == "[ok]"

    def test_replies_are_normalized_like_all_transcripts(self):
        mock = MockCorrector({"de kut": "[De Kat, zit!]"})
        results = correct_with_llm(mock, greedy("de kut"), "Dutch", "m", runs=1)
        assert results[0].corrected.words == ("de", "kat", "zit")

    def test_temperature_zero_mock_is_deterministic(self):
        mock = MockCorrector({"a b": "[c d]"})
        first = correct_with_llm(mock, greedy("a b"), "English", "m", runs=3)
        second = correct_with_llm(mock, greedy("a b"), "English", "m", runs=3)
        assert [(r.corrected.words, r.raw_reply) for r in first] == \
            [(r.corrected.words, r.raw_reply) for r in second]

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError):
            CorrectionRequest(language="Dutch", sentence="  ", model_name="m")


class TestHttpClientRetries:
    def test_transport_error_after_bounded_retries(self, monkeypatch):
        from asr_inconsistency import HttpChatClient
        import requests as requests_lib

        calls = {"n": 0}

        def failing_post(*args, **kwargs):
            calls["n"] += 1
            raise requests_lib.ConnectionError("boom")

        monkeypatch.setattr(requests_lib, "post", failing_post)
        client = HttpChatClient("http://localhost:1/v1/chat", "key",
                                max_retries=2, backoff_base_s=0.0)
        request = CorrectionRequest(language="Dutch", sentence="x", model_name="m")
        with pytest.raises(TransportError):
            client.complete(request)
        assert calls["n"] == 3  # initial attempt + 2 retries

    def test_recovers_after_two_failures(self, monkeypatch):
        from asr_inconsistency import HttpChatClient
        import requests as requests_lib

        calls = {"n": 0}

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "[ok]"}}]}

        def flaky_post(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise requests_lib.ConnectionError("boom")
            return FakeResponse()

        monkeypatch.setattr(requests_lib, "post", flaky_post)
        client = HttpChatClient("http://localhost:1/v1/chat", "key",
                                max_retries=3, backoff_base_s=0.0)
        request = CorrectionRequest(language="Dutch", sentence="x", model_name="m")
        reply, retries = client.complete(request)
        assert reply == "[ok]"
        assert retries == 2

    def test_auth_error_not_retried(self, monkeypatch):
        from asr_inconsistency import HttpChatClient
        from asr_inconsistency.errors import AuthError
        import requests as requests_lib

        calls = {"n": 0}

        class Denied:
            status_code = 401

        def denied_post(*args, **kwargs):
            calls["n"] += 1
            return Denied()

        monkeypatch.setattr(requests_lib, "post", denied_post)
        client = HttpChatClient("http://localhost:1/v1/chat", "bad-key",
                                backoff_base_s=0.0)
        request = CorrectionRequest(language="Dutch", sentence="x", model_name="m")
        with pytest.raises(AuthError):
            client.complete(request)
        assert calls["n"] == 1

    def test_request_body_follows_chat_convention(self, monkeypatch):
        from asr_inconsistency import HttpChatClient
        import requests as requests_lib

        seen = {}

        class FakeResponse:
            status_code = 200

            @staticmethod
            def json():
                return {"choices": [{"message": {"content": "[ok]"}}]}

        def capture_post(url, json=None, headers=None, timeout=None):
            seen.update(url=url, body=json, headers=headers)
            return FakeResponse()

        monkeypatch.setattr(requests_lib, "post", capture_post)
        client = HttpChatClient("http://example.test/v1/chat", "secret")
        request = CorrectionRequest(language="Dutch", sentence="de kat",
                                    model_name="gpt-test", temperature=0.0)
        client.complete(request)
        assert seen["body"]["model"] == "gpt-test"
        assert seen["body"]["temperature"] == 0.0
        assert seen["body"]["messages"][0]["role"] == "user"
        assert "de kat" in seen["body"]["messages"][0]["content"]
        assert seen["headers"]["Authorization"] == "Bearer secret"
