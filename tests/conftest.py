import http.server
import json
import re
import threading

import numpy as np
import pytest

import golden
from asr_inconsistency import Vocabulary, PosteriorMatrix, parse_arpa
from asr_inconsistency.refgen import PROMPT_TEMPLATE


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {name}: {outcome}", flush=True)


@pytest.fixture(scope="session")
def abc_vocab() -> Vocabulary:
    return Vocabulary(symbols=("<blank>", "|", "a", "b", "c"),
                      blank_index=0, delimiter_index=1)


def random_log_matrix(rng: np.random.Generator, t: int, v: int) -> np.ndarray:
    """Row-normalized natural-log probabilities from a flat Dirichlet."""
    probs = rng.dirichlet(np.ones(v), size=t)
    return np.log(probs)


def matrix_from_probs(utterance_id: str, probs) -> PosteriorMatrix:
    return PosteriorMatrix.from_array(utterance_id, np.log(np.asarray(probs, float)))


def peaked_rows(hot_indices, v: int, hot: float = 0.99) -> np.ndarray:
    rows = []
    for idx in hot_indices:
        row = np.full(v, (1.0 - hot) / (v - 1))
        row[idx] = hot
        rows.append(row)
    return np.asarray(rows)


# six entry lines: three unigrams (one with a backoff) and two bigrams;
# P(b|a)=0.5, P(a|a)=0.4, backoff(a)=-0.3 so that sum_w P(w|a) = 1 exactly
BIGRAM_ARPA = """\
\\data\\
ngram 1=3
ngram 2=2

\\1-grams:
-0.5\ta\t-0.3
-0.6020599913279624\tb
-0.7\tc

\\2-grams:
-0.3010299956639812\ta b
-0.3979400086720376\ta a

\\end\\
"""


@pytest.fixture(scope="session")
def bigram_model():
    return parse_arpa(BIGRAM_ARPA)


# models over words spelled from the symbols a, b and c, for the decoder's
# word-boundary paths. A bigram with <unk>, <unk> n-grams and boundary
# tokens, so P(b | <unk>) differs from P(b | ())
UNK_BIGRAM_ARPA = """\
\\data\\
ngram 1=6
ngram 2=5

\\1-grams:
-99\t<s>\t-0.2
-0.9\t</s>
-1.0\t<unk>\t-0.4
-0.5\ta\t-0.3
-0.6\tb\t-0.1
-0.8\tab

\\2-grams:
-0.1\t<unk> b
-0.2\ta <unk>
-0.3\t<s> a
-0.4\tab </s>
-0.7\tb <unk>

\\end\\
"""

# a trigram with back-off at orders 1 and 2
TRIGRAM_ARPA = """\
\\data\\
ngram 1=5
ngram 2=4
ngram 3=3

\\1-grams:
-99\t<s>\t-0.3
-0.7\t</s>
-0.5\ta\t-0.2
-0.6\tb\t-0.25
-0.9\tca\t-0.1

\\2-grams:
-0.3\t<s> a\t-0.15
-0.4\ta b\t-0.35
-0.2\tb a\t-0.05
-0.5\tca </s>

\\3-grams:
-0.1\t<s> a b
-0.2\ta b a
-0.15\tb a </s>

\\end\\
"""

# upper-case entries: queries are lowercased, so "B" and "Ab" never match
UPPER_CASE_ARPA = """\
\\data\\
ngram 1=3
ngram 2=2

\\1-grams:
-0.5\ta\t-0.3
-0.6\tB\t-0.2
-0.8\tAb

\\2-grams:
-0.3\ta B
-0.4\tB a

\\end\\
"""

# "ca" has no unigram, so it scores the OOV floor, but the bigrams "ca b"
# and "b ca" contain it, so P(b | ca) is not P(b)
BIGRAM_ONLY_WORD_ARPA = """\
\\data\\
ngram 1=3
ngram 2=3

\\1-grams:
-0.5\ta\t-0.3
-0.6\tb\t-0.2
-0.7\tc

\\2-grams:
-0.3\ta b
-0.4\tca b
-0.2\tb ca

\\end\\
"""


@pytest.fixture(scope="session")
def synthetic_corpus(tmp_path_factory):
    from asr_inconsistency.synthetic import generate_corpus

    return generate_corpus(tmp_path_factory.mktemp("corpus"), **golden.CORPUS)


@pytest.fixture(scope="session")
def quickstart_run(synthetic_corpus, tmp_path_factory):
    """The run directory of the README quick-start eval; tests copy it
    before changing anything in it."""
    run_dir = tmp_path_factory.mktemp("quickstart") / "run"
    golden.quickstart_eval(synthetic_corpus, run_dir)
    return run_dir


_HEAD, _, _TAIL = PROMPT_TEMPLATE.partition("{sentence}")
_PROMPT = re.compile(
    re.escape(_HEAD).replace(re.escape("{language}"), ".*?") + "(.*)" + re.escape(_TAIL),
    re.DOTALL)


def echo_reply(prompt: str) -> str:
    """The prompt's sentence in brackets, as MockCorrector answers it."""
    return f"[{_PROMPT.fullmatch(prompt).group(1)}]"


class _ChatHandler(http.server.BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with server.lock:
            server.requests.append((self.path, dict(self.headers), body))
            step = server.script.pop(0) if server.script else None
        if step == "drop":
            return  # the connection closes without a status line
        if step == "hang":
            server.release.wait(30)
            return
        if step is None:
            content = echo_reply(body["messages"][0]["content"])
            step = (200, json.dumps({"choices": [{"message": {"content": content}}]}))
        elif isinstance(step, int):
            step = (step, "")
        status, payload, *headers = step
        payload = payload.encode("utf-8")
        self.send_response(status)
        for name, value in (headers[0] if headers else {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


class ChatServer(http.server.ThreadingHTTPServer):
    """A loopback chat-completion endpoint.

    Each request takes the next step of `script`: a status with an empty
    body, a (status, body[, headers]) tuple, "drop" (close without an
    answer) or "hang" (answer nothing until teardown). Past the script it
    answers 200 with echo_reply's content. `requests` records each request
    as (path, headers, JSON body).
    """

    daemon_threads = False  # so server_close joins every handler thread

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/chat"
        self.script = []
        self.requests = []
        self.lock = threading.Lock()
        self.release = threading.Event()


@pytest.fixture
def chat_server():
    server = ChatServer()
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
        assert not thread.is_alive()
