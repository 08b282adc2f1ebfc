import csv
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import asr_inconsistency
from asr_inconsistency.cli import main
from asr_inconsistency.harness import replay_run_results
from asr_inconsistency.metrics import WER_SOURCES


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_manifest_lines(path, corpus, n, changes):
    """The first n corpus records with absolute paths, record i updated
    with changes[i] (relative paths there resolve beside `path`)."""
    lines = corpus.manifest_path.read_text().splitlines()[:n]
    objs = [json.loads(line) for line in lines]
    for i, obj in enumerate(objs):
        for key in ("posterior_path", "audio_path"):
            obj[key] = str(corpus.root / obj[key])
        obj.update(changes.get(i, {}))
    path.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
    return objs


@pytest.fixture(scope="module")
def eval_values(synthetic_corpus, tmp_path_factory):
    """{(utterance_id, method): value cell} of one eval run's
    utterance_scores.csv."""
    run_dir = tmp_path_factory.mktemp("eval") / "run"
    code = main(["eval", "--manifest", str(synthetic_corpus.manifest_path),
                 "--vocab", str(synthetic_corpus.vocab_path),
                 "--methods", "speech_rate,wada_snr,ngram",
                 "--lm", str(synthetic_corpus.lm_path), "--out", str(run_dir)])
    assert code == 0
    with open(run_dir / "utterance_scores.csv", encoding="utf-8") as fin:
        return {(r["utterance_id"], r["method"]): r["value"]
                for r in csv.DictReader(fin)}


def file_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def child_env():
    """The environment for a fresh interpreter that imports this package."""
    src = str(Path(asr_inconsistency.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_cli_import_loads_no_scipy_or_requests():
    # a fresh interpreter, so modules other tests imported do not count; the
    # live client imports the HTTP stack only when it sends a request
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, asr_inconsistency.cli; "
         "print(sorted({'scipy', 'requests', 'urllib.request', 'http.client', 'ssl'}"
         " & set(sys.modules)))"],
        env=child_env(), check=True, capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


class TestDecode:
    def test_greedy_prints_transcripts(self, synthetic_corpus, capsys):
        post = str(synthetic_corpus.root / "post" / "spk00_utt00.ctcp")
        code, out, _ = run_cli(capsys, "decode",
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--greedy", post)
        assert code == 0
        assert out.startswith("spk00_utt00\tgreedy\t")

    def test_beam_with_lm_and_defaults(self, synthetic_corpus, capsys):
        post = str(synthetic_corpus.root / "post" / "spk03_utt00.ctcp")
        code, out, _ = run_cli(capsys, "decode",
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--beam", "--lm", str(synthetic_corpus.lm_path),
                               "--alpha", "0.5", "--beta", "0.5", post)
        assert code == 0
        assert "\tbeam\t" in out

    def test_beam_without_lm_is_usage_error(self, synthetic_corpus, capsys):
        post = str(synthetic_corpus.root / "post" / "spk00_utt00.ctcp")
        code, _, err = run_cli(capsys, "decode",
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--beam", post)
        assert code == 2
        assert "--lm" in err

    def test_neither_mode_is_usage_error(self, synthetic_corpus, capsys):
        post = str(synthetic_corpus.root / "post" / "spk00_utt00.ctcp")
        code, _, _ = run_cli(capsys, "decode",
                             "--vocab", str(synthetic_corpus.vocab_path), post)
        assert code == 2

    def test_unknown_flag_fails_fast(self, synthetic_corpus, capsys):
        code, _, _ = run_cli(capsys, "decode", "--frobnicate")
        assert code == 2

    def test_missing_posterior_file_is_runtime_error(self, synthetic_corpus, capsys):
        code, _, _ = run_cli(capsys, "decode",
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--greedy", str(synthetic_corpus.root / "nope.ctcp"))
        assert code in (1, 2) and code != 0


class TestScore:
    def test_ngram_csv(self, synthetic_corpus, eval_values, tmp_path, capsys):
        out_csv = tmp_path / "scores.csv"
        code, _, _ = run_cli(capsys, "score",
                             "--manifest", str(synthetic_corpus.manifest_path),
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--methods", "ngram",
                             "--lm", str(synthetic_corpus.lm_path),
                             "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 72
        assert rows[0]["method"] == "ngram"
        assert float(rows[0]["value"]) == 0.0  # clean speaker
        # the same cells as the ngram rows of eval on the same corpus
        assert {r["utterance_id"]: r["value"] for r in rows} == {
            uid: value for (uid, method), value in eval_values.items()
            if method == "ngram"}

    def test_missing_posterior_is_quarantined(self, synthetic_corpus, tmp_path,
                                              capsys):
        manifest = tmp_path / "m.jsonl"
        objs = write_manifest_lines(manifest, synthetic_corpus, 3,
                                    {1: {"posterior_path": "missing.ctcp"}})
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_cli(capsys, "score", "--manifest", str(manifest),
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--methods", "ngram",
                               "--lm", str(synthetic_corpus.lm_path),
                               "--out", str(out_csv))
        assert code == 0
        # the failed utterance has one warning and no row
        rows = list(csv.DictReader(out_csv.open()))
        assert [r["utterance_id"] for r in rows] == [objs[0]["utterance_id"],
                                                     objs[2]["utterance_id"]]
        assert all(r["value"] for r in rows)
        assert len(err.splitlines()) == 1
        assert err.startswith(f"warning: {objs[1]['utterance_id']}: decode: ")

    def test_every_posterior_missing_is_runtime_error(self, synthetic_corpus,
                                                      tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        missing = {"posterior_path": "missing.ctcp"}
        write_manifest_lines(manifest, synthetic_corpus, 2, {0: missing, 1: missing})
        code, _, err = run_cli(capsys, "score", "--manifest", str(manifest),
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--methods", "ngram",
                               "--lm", str(synthetic_corpus.lm_path))
        assert code == 1
        assert err.count("warning: ") == 2
        assert "no utterance produced any score" in err

    def test_llm_mock_three_run_rows(self, synthetic_corpus, tmp_path, capsys):
        out_csv = tmp_path / "scores.csv"
        code, _, _ = run_cli(capsys, "score",
                             "--manifest", str(synthetic_corpus.manifest_path),
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--methods", "llm", "--mock", "--runs", "3",
                             "--mock-replies", str(synthetic_corpus.mock_half_fix_path),
                             "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(out_csv.open()))
        first = rows[0]["utterance_id"]
        # one row per run, each followed by its accuracy against the ground truth
        assert [(r["method"], r["model"], r["run_index"]) for r in rows
                if r["utterance_id"] == first] == [
            (method, "mock-corrector", str(run))
            for run in range(3) for method in ("llm", "llm_accuracy")]
        assert len(rows) == 72 * 6

    def test_quickstart_methods_match_eval_byte_for_byte(self, synthetic_corpus,
                                                         quickstart_run, tmp_path,
                                                         capsys):
        out_csv = tmp_path / "scores.csv"
        code, out, err = run_cli(
            capsys, "score", "--manifest", str(synthetic_corpus.manifest_path),
            "--vocab", str(synthetic_corpus.vocab_path),
            "--methods", "speech_rate,wada_snr,ngram,llm,reference_wer",
            "--lm", str(synthetic_corpus.lm_path),
            "--mock", "--mock-replies", str(synthetic_corpus.mock_half_fix_path),
            "--out", str(out_csv))
        assert (code, out, err) == (0, "", "")
        assert out_csv.read_bytes() == (
            quickstart_run / "utterance_scores.csv").read_bytes()

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_decoded_method_without_vocab_is_usage_error(self, synthetic_corpus,
                                                         tmp_path, capsys, command):
        fresh = tmp_path / "out"
        code, out, err = run_cli(capsys, command,
                                 "--manifest", str(synthetic_corpus.manifest_path),
                                 "--methods", "speech_rate,reference_wer",
                                 "--out", str(fresh))
        assert code == 2 and out == ""
        assert err == "error: the reference_wer method needs a vocabulary\n"
        assert not fresh.exists()

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_repeated_method_is_usage_error(self, synthetic_corpus, tmp_path, capsys,
                                            command):
        fresh = tmp_path / "out"
        code, out, err = run_cli(capsys, command,
                                 "--manifest", str(synthetic_corpus.manifest_path),
                                 "--methods", "speech_rate,wada_snr,speech_rate",
                                 "--out", str(fresh))
        assert code == 2 and out == ""
        assert err == "error: method 'speech_rate' is given twice\n"
        assert not fresh.exists()

    def test_llm_without_mock_or_env_is_usage_error(self, synthetic_corpus,
                                                    tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LLM_ENDPOINT_URL", raising=False)
        monkeypatch.delenv("LLM_API_KEY", raising=False)
        code, _, err = run_cli(capsys, "score",
                               "--manifest", str(synthetic_corpus.manifest_path),
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--methods", "llm")
        assert code == 2
        assert "mock" in err.lower()

    @pytest.mark.parametrize("env,message", [
        # the endpoint is checked before --model is resolved
        ({"LLM_API_KEY": "k"}, "LLM_ENDPOINT_URL must be set"),
        ({"LLM_ENDPOINT_URL": "ftp://host/chat", "LLM_API_KEY": "k"},
         "endpoint URL 'ftp://host/chat' is not http or https"),
    ])
    def test_live_endpoint_environment_is_checked_once(self, synthetic_corpus, tmp_path,
                                                       capsys, monkeypatch, env, message):
        for name in ("LLM_ENDPOINT_URL", "LLM_API_KEY", "LLM_MODEL_NAME"):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, "score",
                                 "--manifest", str(synthetic_corpus.manifest_path),
                                 "--vocab", str(synthetic_corpus.vocab_path),
                                 "--methods", "llm", "--out", str(tmp_path / "s.csv"))
        assert code == 2 and out == ""
        assert err == f"error: llm method needs --mock or a live endpoint: {message}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_live_llm_scores_like_the_mock_echo(self, synthetic_corpus, chat_server,
                                               tmp_path, capsys, monkeypatch):
        # the loopback endpoint answers each prompt with its sentence in
        # brackets, as MockCorrector does
        monkeypatch.setitem(sys.modules, "requests", None)
        monkeypatch.setenv("LLM_ENDPOINT_URL", chat_server.url)
        monkeypatch.setenv("LLM_API_KEY", "key")
        args = ["score", "--manifest", str(synthetic_corpus.manifest_path),
                "--vocab", str(synthetic_corpus.vocab_path),
                "--methods", "llm", "--model", "m"]
        live, mock = tmp_path / "live.csv", tmp_path / "mock.csv"
        assert run_cli(capsys, *args, "--out", str(live)) == (0, "", "")
        assert run_cli(capsys, *args, "--mock", "--out", str(mock)) == (0, "", "")
        assert live.read_bytes() == mock.read_bytes()
        assert len(chat_server.requests) == 72 * 3

    def test_unknown_method_is_usage_error(self, synthetic_corpus, capsys):
        code, _, _ = run_cli(capsys, "score",
                             "--manifest", str(synthetic_corpus.manifest_path),
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--methods", "magic")
        assert code == 2


class TestScoreUtterance:
    """Each input is read only for the methods that read it, so a failed
    decode excludes only ngram, llm and reference_wer."""

    def test_failed_decode_keeps_the_baseline_rows(self, synthetic_corpus, tmp_path,
                                                   capsys):
        manifest = tmp_path / "m.jsonl"
        objs = write_manifest_lines(manifest, synthetic_corpus, 3,
                                    {1: {"posterior_path": "missing.ctcp"}})
        out_csv = tmp_path / "scores.csv"
        code, _, err = run_cli(capsys, "score", "--manifest", str(manifest),
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--lm", str(synthetic_corpus.lm_path),
                               "--methods", "ngram,speech_rate",
                               "--out", str(out_csv))
        assert code == 0
        assert len(err.splitlines()) == 1
        assert err.startswith(f"warning: {objs[1]['utterance_id']}: decode: ")
        first, middle, last = (obj["utterance_id"] for obj in objs)
        assert [(r["utterance_id"], r["method"])
                for r in csv.DictReader(out_csv.open())] == [
            (first, "ngram"), (first, "speech_rate"), (middle, "speech_rate"),
            (last, "ngram"), (last, "speech_rate")]

    def test_baselines_with_a_vocabulary_read_no_posterior(self, synthetic_corpus,
                                                           tmp_path, capsys):
        manifest = tmp_path / "m.jsonl"
        write_manifest_lines(manifest, synthetic_corpus, 3,
                             {1: {"posterior_path": "missing.ctcp"}})
        out_csv = tmp_path / "scores.csv"
        code, out, err = run_cli(capsys, "score", "--manifest", str(manifest),
                                 "--vocab", str(synthetic_corpus.vocab_path),
                                 "--methods", "speech_rate,wada_snr",
                                 "--out", str(out_csv))
        assert (code, out, err) == (0, "", "")
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 6 and all(r["value"] for r in rows)


class TestEval:
    def test_baselines_need_no_vocabulary(self, synthetic_corpus, eval_values,
                                          tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, _, err = run_cli(capsys, "eval",
                               "--manifest", str(synthetic_corpus.manifest_path),
                               "--methods", "speech_rate,wada_snr",
                               "--out", str(run_dir))
        assert code == 0 and err == ""
        with open(run_dir / "utterance_scores.csv", encoding="utf-8") as fin:
            assert {(r["utterance_id"], r["method"]): r["value"]
                    for r in csv.DictReader(fin)} == {
                key: value for key, value in eval_values.items()
                if key[1] in ("speech_rate", "wada_snr")}
        # no method read a decode, so the ground truth is the one transcript kept
        tdir = run_dir / "transcripts" / next(iter(eval_values))[0]
        assert [p.name for p in tdir.iterdir()] == ["ground_truth.txt"]

    def test_baseline_only_report(self, synthetic_corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, out, _ = run_cli(capsys, "eval",
                               "--manifest", str(synthetic_corpus.manifest_path),
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--methods", "speech_rate,wada_snr",
                               "--dataset-name", "demo",
                               "--out", str(run_dir))
        assert code == 0
        assert "speech_rate" in out and "wada_snr" in out
        assert (run_dir / "report.csv").exists()

    def test_manifest_without_ratings_is_usage_error(self, synthetic_corpus,
                                                     tmp_path, capsys):
        stripped = tmp_path / "norating.jsonl"
        lines = []
        for line in synthetic_corpus.manifest_path.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("rating", None)
            lines.append(json.dumps(obj))
        stripped.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "eval",
                               "--manifest", str(stripped),
                               "--vocab", str(synthetic_corpus.vocab_path),
                               "--methods", "speech_rate",
                               "--out", str(tmp_path / "run"))
        assert code == 2
        assert "rating" in err

    def test_ngram_without_lm_is_usage_error(self, synthetic_corpus, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "eval",
                             "--manifest", str(synthetic_corpus.manifest_path),
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--methods", "ngram",
                             "--out", str(tmp_path / "run"))
        assert code == 2

    def test_occupied_out_is_usage_error_and_left_untouched(self, synthetic_corpus,
                                                            quickstart_run, tmp_path,
                                                            capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(quickstart_run, run_dir)
        before = file_bytes(run_dir)
        code, out, err = run_cli(capsys, "eval",
                                 "--manifest", str(synthetic_corpus.manifest_path),
                                 "--vocab", str(synthetic_corpus.vocab_path),
                                 "--methods", "reference_wer", "--out", str(run_dir))
        assert code == 2
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert file_bytes(run_dir) == before
        # an existing empty directory is still a fresh run directory
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, _ = run_cli(capsys, "eval",
                             "--manifest", str(synthetic_corpus.manifest_path),
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--methods", "reference_wer", "--out", str(empty))
        assert code == 0
        assert (empty / "report.txt").exists()

    def test_config_records_the_argv_main_parsed(self, synthetic_corpus, tmp_path,
                                                 capsys):
        run_dir = tmp_path / "run"
        argv = ["eval", "--manifest", str(synthetic_corpus.manifest_path),
                "--vocab", str(synthetic_corpus.vocab_path),
                "--methods", "reference_wer", "--out", str(run_dir)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert json.loads((run_dir / "config.json").read_text())["argv"] == argv


@pytest.mark.parametrize("command", ["score", "eval"])
def test_rejected_key_stops_at_the_first_request(synthetic_corpus, chat_server,
                                                 tmp_path, capsys, monkeypatch,
                                                 command):
    monkeypatch.setenv("LLM_ENDPOINT_URL", chat_server.url)
    monkeypatch.setenv("LLM_API_KEY", "rejected")
    chat_server.script = [401] * (72 * 3)  # every request the corpus could make
    out = tmp_path / "out"
    code, stdout, err = run_cli(capsys, command,
                                "--manifest", str(synthetic_corpus.manifest_path),
                                "--vocab", str(synthetic_corpus.vocab_path),
                                "--methods", "llm,speech_rate", "--model", "m",
                                "--out", str(out))
    assert (code, stdout, err) == (1, "", "error: endpoint returned 401\n")
    assert len(chat_server.requests) == 1
    assert not out.exists()


def test_score_and_eval_write_one_table_in_manifest_order(synthetic_corpus,
                                                          tmp_path, capsys):
    manifest = tmp_path / "reversed.jsonl"
    objs = write_manifest_lines(manifest, synthetic_corpus, 72,
                                {5: {"posterior_path": "missing.ctcp"}})
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(reversed(lines)))
    flags = ["--manifest", str(manifest), "--vocab", str(synthetic_corpus.vocab_path),
             "--methods", "speech_rate,wada_snr,llm,reference_wer",
             "--mock", "--mock-replies", str(synthetic_corpus.mock_half_fix_path)]
    scores, run_dir = tmp_path / "scores.csv", tmp_path / "run"
    score_code, _, score_err = run_cli(capsys, "score", *flags, "--out", str(scores))
    eval_code, _, eval_err = run_cli(capsys, "eval", *flags, "--out", str(run_dir))
    assert (score_code, eval_code) == (0, 0)
    table = (run_dir / "utterance_scores.csv").read_bytes()
    assert scores.read_bytes() == table
    with open(scores, encoding="utf-8") as fin:
        order = list(dict.fromkeys(r["utterance_id"] for r in csv.DictReader(fin)))
    assert order == [obj["utterance_id"] for obj in reversed(objs)]
    # the broken posterior excludes only the methods that decode
    assert score_err == eval_err
    assert score_err.count("\n") == 1
    assert score_err.startswith(f"warning: {objs[5]['utterance_id']}: decode: ")


# one out-of-range flag value each; {out} is where the output would go
BAD_FLAG_VALUES = {
    "score_beam_width": "score --manifest {manifest} --vocab {vocab} "
                        "--methods ngram --lm {lm} --beam-width 0 --out {out}",
    "eval_runs": "eval --manifest {manifest} --vocab {vocab} "
                 "--methods reference_wer --runs 0 --out {out}",
    "eval_alpha": "eval --manifest {manifest} --vocab {vocab} "
                  "--methods ngram --lm {lm} --alpha -1 --out {out}",
    "decode_beam_width": "decode --vocab {vocab} --beam --lm {lm} "
                         "--beam-width 0 {post}",
    "eval_llm_temperature": "eval --manifest {manifest} --vocab {vocab} "
                            "--methods llm --mock --temperature -1 --out {out}",
    "score_alpha_inf": "score --manifest {manifest} --vocab {vocab} "
                       "--methods ngram --lm {lm} --alpha inf --out {out}",
    "decode_beta_inf": "decode --vocab {vocab} --beam --lm {lm} --beta inf {post}",
    "eval_empty_model": "eval --manifest {manifest} --vocab {vocab} "
                        "--methods llm,reference_wer --mock --model '' --runs 1 "
                        "--out {out}",
    "score_temperature_inf": "score --manifest {manifest} --vocab {vocab} "
                             "--methods llm --mock --temperature inf --out {out}",
    "score_temperature_nan": "score --manifest {manifest} --vocab {vocab} "
                             "--methods llm --mock --temperature nan --out {out}",
}


@pytest.mark.parametrize("case", sorted(BAD_FLAG_VALUES))
def test_bad_flag_value_is_usage_error_before_any_output(synthetic_corpus,
                                                         tmp_path, case):
    out = tmp_path / "out"
    argv = [arg.format(manifest=synthetic_corpus.manifest_path,
                       vocab=synthetic_corpus.vocab_path,
                       lm=synthetic_corpus.lm_path, out=out,
                       post=synthetic_corpus.root / "post" / "spk00_utt00.ctcp")
            for arg in shlex.split(BAD_FLAG_VALUES[case])]
    # a fresh interpreter, so stderr is exactly what a user would see
    proc = subprocess.run([sys.executable, "-m", "asr_inconsistency.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert proc.stdout == ""
    assert not out.exists()


# one malformed input file each, written to {bad}
MALFORMED_INPUTS = {
    "arpa_not_utf8": ("decode --vocab {vocab} --beam --lm {bad} {post}",
                      b"\xff\xfe\\data\\\n"),
    "arpa_nan": ("decode --vocab {vocab} --beam --lm {bad} {post}",
                 b"\\data\\\nngram 1=1\n\n\\1-grams:\nnan\ta\n\n\\end\\\n"),
    "vocab_not_utf8": ("decode --vocab {bad} --greedy {post}", b"\xff\xfe<blank>\n"),
    "manifest_not_utf8": ("eval --manifest {bad} --vocab {vocab} "
                          "--methods speech_rate --out {out}", b"\xff\xfe{}\n"),
    "manifest_too_large": ("eval --manifest {bad} --vocab {vocab} "
                           "--methods speech_rate --out {out}",
                           b'{"utterance_id": "u", "speaker_id": "s", '
                           b'"posterior_path": "p", "rating": 1' + b"0" * 400 + b"}\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_file_is_one_error_line_naming_it(synthetic_corpus, tmp_path,
                                                          case):
    template, content = MALFORMED_INPUTS[case]
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    argv = [arg.format(bad=bad, vocab=synthetic_corpus.vocab_path,
                       out=tmp_path / "out",
                       post=synthetic_corpus.root / "post" / "spk00_utt00.ctcp")
            for arg in shlex.split(template)]
    proc = subprocess.run([sys.executable, "-m", "asr_inconsistency.cli", *argv],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {bad}")
    assert proc.stdout == ""


class TestGoldenReport:
    def test_mock_eval_report_matches_golden_byte_for_byte(self, quickstart_run):
        golden = Path(__file__).parent / "data" / "golden_report.txt"
        assert (quickstart_run / "report.txt").read_bytes() == golden.read_bytes()

    def test_provenance_columns_name_the_compared_pair(self, quickstart_run):
        with open(quickstart_run / "utterance_scores.csv", encoding="utf-8") as fin:
            rows = list(csv.DictReader(fin))
        triples = {(r["method"], r["hyp_source"], r["ref_source"]) for r in rows}
        assert triples == {(method, *pair) for method, pair in WER_SOURCES.items()} | {
            ("speech_rate", "", ""), ("wada_snr", "", "")}


class TestBaselinesAndReport:
    def test_baselines_csv(self, synthetic_corpus, eval_values, tmp_path, capsys):
        # the two confounder baselines need no vocabulary
        out_csv = tmp_path / "base.csv"
        code, _, err = run_cli(capsys, "score",
                               "--manifest", str(synthetic_corpus.manifest_path),
                               "--methods", "speech_rate,wada_snr",
                               "--out", str(out_csv))
        assert code == 0 and err == ""
        rows = list(csv.DictReader(out_csv.open()))
        assert len(rows) == 144  # two methods per utterance
        assert {(r["utterance_id"], r["method"]): r["value"] for r in rows} == {
            key: value for key, value in eval_values.items()
            if key[1] in ("speech_rate", "wada_snr")}

    def test_baselines_missing_wav_is_a_warning(self, synthetic_corpus, tmp_path,
                                                capsys):
        manifest = tmp_path / "m.jsonl"
        objs = write_manifest_lines(manifest, synthetic_corpus, 2,
                                    {0: {"audio_path": "missing.wav"}})
        out_csv = tmp_path / "base.csv"
        code, _, err = run_cli(capsys, "score", "--manifest", str(manifest),
                               "--methods", "speech_rate,wada_snr",
                               "--out", str(out_csv))
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"warning: {objs[0]['utterance_id']}: wada_snr: ")
        assert "missing.wav" in lines[0]
        # speech rate uses duration_s, so only wada_snr fails
        rows = {(r["utterance_id"], r["method"]): r["value"]
                for r in csv.DictReader(out_csv.open())}
        assert sorted(rows) == sorted([(objs[0]["utterance_id"], "speech_rate"),
                                       (objs[1]["utterance_id"], "speech_rate"),
                                       (objs[1]["utterance_id"], "wada_snr")])
        assert all(rows.values())

    def test_report_replay_over_run_dir(self, synthetic_corpus, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_cli(capsys, "eval",
                "--manifest", str(synthetic_corpus.manifest_path),
                "--vocab", str(synthetic_corpus.vocab_path),
                "--methods", "ngram", "--lm", str(synthetic_corpus.lm_path),
                "--out", str(run_dir))
        code, out, _ = run_cli(capsys, "report", str(run_dir))
        assert code == 0
        assert "ngram" in out

    def test_baselines_report_per_utterance_errors(self, synthetic_corpus,
                                                   tmp_path, capsys):
        # strip audio and duration: speech_rate and wada_snr both fail in
        # every utterance, each with its own warning, and only then does the
        # command fail because nothing was scored
        stripped = tmp_path / "noaudio.jsonl"
        lines = []
        for line in synthetic_corpus.manifest_path.read_text().splitlines():
            obj = json.loads(line)
            obj.pop("audio_path", None)
            obj.pop("duration_s", None)
            lines.append(json.dumps(obj))
        stripped.write_text("\n".join(lines[:4]) + "\n")
        out_csv = tmp_path / "base.csv"
        code, out, err = run_cli(capsys, "score", "--manifest", str(stripped),
                                 "--methods", "speech_rate,wada_snr",
                                 "--out", str(out_csv))
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len([line for line in lines if line.startswith("warning: ")]) == 8
        assert lines[-1] == "error: no utterance produced any score"
        assert not out_csv.exists()

    def test_llm_accuracy_r_is_the_mean_of_correlated_runs(self, synthetic_corpus,
                                                           tmp_path, capsys):
        run_dir = tmp_path / "run"
        code, _, _ = run_cli(capsys, "eval",
                             "--manifest", str(synthetic_corpus.manifest_path),
                             "--vocab", str(synthetic_corpus.vocab_path),
                             "--methods", "llm,reference_wer",
                             "--mock", "--model", "half", "--model", "echo",
                             "--mock-replies", str(synthetic_corpus.mock_half_fix_path),
                             "--runs", "2", "--out", str(run_dir))
        assert code == 0
        code, out, _ = run_cli(capsys, "report", str(run_dir), "--llm-accuracy")
        assert code == 0
        run_results, _ = replay_run_results(run_dir)
        for model in ("half", "echo"):
            rs = [rr.pearson_r for rr in run_results
                  if rr.method == "llm_accuracy" and rr.model_name == model]
            assert len(rs) == 2
            assert (f"corrected[{model}] r vs ratings: "
                    f"{sum(rs) / len(rs):.4f} over 2 runs\n") in out

    def test_report_replay_skips_a_non_finite_score(self, quickstart_run, tmp_path,
                                                    capsys):
        _, before, _ = run_cli(capsys, "report", str(quickstart_run))
        run_dir = tmp_path / "run"
        shutil.copytree(quickstart_run, run_dir)
        path = run_dir / "utterance_scores.csv"
        with open(path, encoding="utf-8") as fin:
            rows = list(csv.reader(fin))
        value = rows[0].index("value")
        first = next(r for r in rows if r[rows[0].index("method")] == "reference_wer")
        first[value] = "nan"
        with open(path, "w", encoding="utf-8", newline="") as fout:
            csv.writer(fout, lineterminator="\n").writerows(rows)
        code, after, _ = run_cli(capsys, "report", str(run_dir))
        assert code == 0
        # the NaN speaker mean used to give reference_wer r=1.0000; now that
        # variant has no correlation, a note says why, and every other line
        # is unchanged
        assert "reference_wer: r=" in before and "note: " not in before
        assert after.splitlines() == [
            *(line for line in before.splitlines()
              if not line.startswith("reference_wer:")),
            "note: reference_wer: correlation unavailable "
            "(an input holds a NaN or infinite value)"]

    @pytest.mark.parametrize("damage,message", [
        ("number", ":2: could not convert string to float: 'abc'"),
        ("column", ":2: no 'rating' column"),
        ("bytes", ": not UTF-8 text"),
    ])
    @pytest.mark.parametrize("flags", [[], ["--llm-accuracy"]])
    def test_damaged_scores_table_is_a_runtime_error(self, quickstart_run, tmp_path,
                                                     capsys, damage, message, flags):
        run_dir = tmp_path / "run"
        shutil.copytree(quickstart_run, run_dir)
        path = run_dir / "utterance_scores.csv"
        header, first, rest = path.read_bytes().split(b"\n", 2)
        if damage == "number":
            cells = first.split(b",")
            cells[header.split(b",").index(b"value")] = b"abc"
            first = b",".join(cells)
        elif damage == "column":
            header = header.replace(b",rating,", b",score,")
        else:
            rest = b"\xff" + rest
        path.write_bytes(b"\n".join([header, first, rest]))
        code, out, err = run_cli(capsys, "report", str(run_dir), *flags)
        assert code == 1 and out == ""
        assert err == f"error: {path}{message}\n"

    def test_report_on_non_run_dir_is_usage_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "report", str(tmp_path))
        assert code == 2

    def test_help_lists_subcommands(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "{decode,score,eval,report}" in out
        assert "baselines" not in out

    @pytest.mark.parametrize("subcommand,flags", [
        ("decode", ["--vocab", "--greedy", "--beam", "--lm", "--alpha",
                    "--beta", "--beam-width"]),
        ("score", ["--manifest", "--vocab", "--methods", "--lm", "--model",
                   "--runs", "--temperature", "--mock", "--mock-replies",
                   "--language", "--speech-rate-unit", "--out"]),
        ("eval", ["--manifest", "--vocab", "--methods", "--out", "--lm",
                  "--dataset-name", "--language", "--mock",
                  "--model", "--runs", "--speech-rate-unit"]),
        ("report", ["--llm-accuracy"]),
    ])
    def test_subcommand_help_enumerates_flags(self, capsys, subcommand, flags):
        code, out, _ = run_cli(capsys, subcommand, "--help")
        assert code == 0
        for flag in flags:
            assert flag in out, flag
