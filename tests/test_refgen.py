import math
import socket
import socketserver
import sys
import threading
import time

import pytest

from asr_inconsistency import (
    CorrectionRequest,
    HttpChatClient,
    MockCorrector,
    Transcript,
    build_prompt,
    correct_with_llm,
    extract_bracketed,
)
from asr_inconsistency import refgen
from asr_inconsistency.errors import AuthError, EmptyReplyError, TransportError
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

    @pytest.mark.parametrize("temperature", [-1.0, math.nan, math.inf])
    def test_negative_or_non_finite_temperature_rejected(self, temperature):
        # json.dumps would send nan or inf as NaN or Infinity, which is not JSON
        with pytest.raises(ValueError, match="temperature must be a finite number >= 0"):
            CorrectionRequest(language="Dutch", sentence="de kat", model_name="m",
                              temperature=temperature)


class TestHttpClientRetries:
    """The live client against a loopback endpoint, with `requests`
    unimportable and the backoff delays recorded instead of slept."""

    @pytest.fixture
    def live(self, chat_server, monkeypatch):
        monkeypatch.setitem(sys.modules, "requests", None)
        delays = []
        monkeypatch.setattr(time, "sleep", delays.append)
        client = HttpChatClient(chat_server.url, "secret")
        return client, chat_server, delays

    def correct(self, client):
        return correct_with_llm(client, greedy("de kat"), "Dutch", "m", runs=1)[0]

    def test_request_body_follows_chat_convention(self, live):
        client, server, delays = live
        request = CorrectionRequest(language="Dutch", sentence="de kat",
                                    model_name="gpt-test", temperature=0.0)
        assert client.complete(request) == ("[de kat]", 0)
        [(path, headers, body)] = server.requests
        assert path == "/v1/chat"
        assert body == {"model": "gpt-test", "temperature": 0.0,
                        "messages": [{"role": "user",
                                      "content": build_prompt("Dutch", "de kat")}]}
        assert headers["Authorization"] == "Bearer secret"
        assert headers["Content-Type"] == "application/json"
        assert delays == []

    def test_recovers_after_two_failures(self, live):
        client, server, delays = live
        server.script = ["drop", "drop"]
        result = self.correct(client)
        assert (result.raw_reply, result.retries) == ("[de kat]", 2)
        assert len(server.requests) == 3
        assert delays == [1.0, 2.0]

    @pytest.mark.parametrize("failure", [429, 500, 503, "hang"])
    def test_each_retried_failure_recovers(self, live, monkeypatch, failure):
        client, server, delays = live
        if failure == "hang":
            # a read timeout on the first attempt only: the retry, which the
            # server answers while the first handler still waits, keeps the
            # full limit
            full = refgen.TIMEOUT_S
            monkeypatch.setattr(refgen, "TIMEOUT_S", 0.25)

            def sleep(delay):
                delays.append(delay)
                monkeypatch.setattr(refgen, "TIMEOUT_S", full)

            monkeypatch.setattr(time, "sleep", sleep)
        server.script = [failure]
        result = self.correct(client)
        assert (result.raw_reply, result.retries) == ("[de kat]", 1)
        assert len(server.requests) == 2
        assert delays == [1.0]

    def test_transport_error_after_bounded_retries(self, live):
        _, _, delays = live
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        # nothing listens on the port, so every connection is refused
        client = HttpChatClient(f"http://127.0.0.1:{port}/v1/chat", "secret")
        with pytest.raises(TransportError):
            self.correct(client)
        assert delays == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize("failure,message", [
        (500, "server error 500"), (502, "server error 502"),
        (429, "rate limited by endpoint")],
        ids=["500-TransportError", "502-TransportError", "429-TransportError"])
    def test_gives_up_after_max_retries(self, live, failure, message):
        client, server, delays = live
        server.script = [failure] * (refgen.MAX_RETRIES + 1)
        with pytest.raises(TransportError, match=message):
            self.correct(client)
        assert len(server.requests) == 4
        assert delays == [1.0, 2.0, 4.0]

    def test_auth_error_not_retried(self, live):
        client, server, delays = live
        server.script = [401]
        with pytest.raises(AuthError):
            self.correct(client)
        assert len(server.requests) == 1
        assert delays == []

    @pytest.mark.parametrize("step,error", [
        (403, AuthError), (404, TransportError), (400, TransportError),
        ((302, "", {"Location": "/elsewhere"}), TransportError)])
    def test_not_retried(self, live, step, error):
        client, server, delays = live
        server.script = [step]
        with pytest.raises(error):
            self.correct(client)
        # a redirect is not followed, so the bearer key goes nowhere else
        assert [path for path, _, _ in server.requests] == ["/v1/chat"]
        assert delays == []

    @pytest.mark.parametrize("body", [
        "not json", "[]", "{}", '{"choices": null}', '{"choices": []}',
        '{"choices": [{"message": {}}]}',
        '{"choices": [{"message": {"content": null}}]}',
        '{"choices": [{"message": {"content": 7}}]}'])
    def test_malformed_body_is_a_transport_error(self, live, body):
        client, server, delays = live
        server.script = [(200, body)]
        with pytest.raises(TransportError, match="malformed response body"):
            self.correct(client)
        assert len(server.requests) == 1
        assert delays == []

    @pytest.mark.parametrize("url", ["file:///etc/hosts", "localhost:8000/v1", "example.com"])
    def test_endpoint_must_be_http(self, url):
        with pytest.raises(ValueError, match="not http or https"):
            HttpChatClient(url, "secret")

    @pytest.mark.parametrize("env,message", [
        ({}, "LLM_ENDPOINT_URL and LLM_API_KEY must be set"),
        ({"LLM_API_KEY": "k"}, "LLM_ENDPOINT_URL must be set"),
        ({"LLM_ENDPOINT_URL": "http://127.0.0.1:1/"}, "LLM_API_KEY must be set")])
    def test_from_env_names_the_missing_variables(self, monkeypatch, env, message):
        for name in ("LLM_ENDPOINT_URL", "LLM_API_KEY"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(AuthError) as info:
            HttpChatClient.from_env()
        assert str(info.value) == message


class _TunnelHandler(socketserver.BaseRequestHandler):
    def handle(self):
        # answer CONNECT, then record the first thing sent into the tunnel
        # and close it, so every attempt fails and is retried
        self.request.settimeout(5)
        received = b""
        try:
            while b"\r\n\r\n" not in received:
                chunk = self.request.recv(4096)
                if not chunk:
                    break
                received += chunk
            head, _, tunnelled = received.partition(b"\r\n\r\n")
            if head.startswith(b"CONNECT "):
                self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                tunnelled += self.request.recv(4096)
                if tunnelled.startswith(b"POST"):
                    while b"\r\n\r\n" not in tunnelled:
                        chunk = self.request.recv(4096)
                        if not chunk:
                            break
                        tunnelled += chunk
        except OSError:
            head, tunnelled = received, b""
        with self.server.lock:
            self.server.connections.append((head, tunnelled))


class TunnelProxy(socketserver.ThreadingTCPServer):
    """A loopback HTTPS proxy that records each connection as (the request
    head it was sent, the first bytes sent through the tunnel)."""

    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _TunnelHandler)
        self.connections = []
        self.lock = threading.Lock()


@pytest.fixture
def tunnel_proxy():
    proxy = TunnelProxy()
    thread = threading.Thread(target=proxy.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield proxy
    finally:
        proxy.shutdown()
        proxy.server_close()
        thread.join(timeout=30)
        assert not thread.is_alive()


def test_retries_through_an_https_proxy_keep_the_key_encrypted(tunnel_proxy, monkeypatch):
    # urllib's ProxyHandler rewrites the Request it is given, so a Request
    # sent again after a failure would go to the proxy as plain http and
    # carry the bearer key through the tunnel unencrypted
    monkeypatch.setitem(sys.modules, "requests", None)
    monkeypatch.setattr(time, "sleep", lambda delay: None)
    for name in ("no_proxy", "NO_PROXY", "https_proxy", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{tunnel_proxy.server_address[1]}")
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    client = HttpChatClient(f"https://127.0.0.1:{port}/v1/chat", "secret")
    with pytest.raises(TransportError):
        client.complete(CorrectionRequest(language="Dutch", sentence="de kat",
                                          model_name="m"))
    heads = [head for head, _ in tunnel_proxy.connections]
    assert len(heads) == refgen.MAX_RETRIES + 1
    assert all(head.startswith(f"CONNECT 127.0.0.1:{port} ".encode()) for head in heads)
    for head, tunnelled in tunnel_proxy.connections:
        assert b"secret" not in head + tunnelled
        assert tunnelled[:1] == b"\x16"  # a TLS handshake record
