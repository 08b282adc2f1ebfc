"""The golden run directory: the outputs that data/golden_run.sha256 pins.

The outputs are made from the session's synthetic corpus (`CORPUS`):

- `run/...`: every file of the README quick-start run directory, with the
  corpus and run directory paths in config.json replaced by `<corpus>` and
  `<out>`
- `score.csv`: `score`'s CSV with the quick start's flags
- `decode/<config>.tsv`: `decode --greedy --beam` over every posterior,
  at each of `DECODE_CONFIGS`

Each output file is one line of the golden file:

    <sha256 of the file>  <name>  <first 8 hex digits of each line's sha256>

The line digests let a test name the first differing line without the
expected text in the tree. `python3 tests/make_golden_run.py` rewrites
the file, for a change that means to change the outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from asr_inconsistency.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_run.sha256"
CORPUS = dict(n_speakers=12, utterances_per_speaker=6, words_per_utterance=5,
              seed=20240, write_audio=True)
DECODE_CONFIGS = {
    "default": [],
    "alpha0_beta0": ["--alpha", "0", "--beta", "0"],
}


def quickstart_flags(corpus) -> list[str]:
    """The README quick start's flags of score and eval."""
    return ["--manifest", str(corpus.manifest_path), "--vocab", str(corpus.vocab_path),
            "--methods", "speech_rate,wada_snr,ngram,llm,reference_wer",
            "--lm", str(corpus.lm_path),
            "--mock", "--mock-replies", str(corpus.mock_half_fix_path)]


def _run(argv: list[str]) -> bytes:
    """The standard output of a CLI call that must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"asrinc {argv[0]} exited {code}")
    return out.getvalue().encode("utf-8")


def quickstart_eval(corpus, run_dir: Path) -> None:
    _run(["eval", *quickstart_flags(corpus), "--dataset-name", "synthetic",
          "--out", str(run_dir)])


def outputs(corpus, run_dir: Path, work: Path) -> dict[str, bytes]:
    """The golden outputs by name, from the quick-start run directory
    `run_dir` and `score` and `decode` runs (writing under `work`)."""
    found = {"run/" + p.relative_to(run_dir).as_posix(): p.read_bytes()
             for p in run_dir.rglob("*") if p.is_file()}
    config = found["run/config.json"].decode("utf-8")
    found["run/config.json"] = (config.replace(str(run_dir), "<out>")
                                .replace(str(corpus.root), "<corpus>").encode("utf-8"))
    _run(["score", *quickstart_flags(corpus), "--out", str(work / "score.csv")])
    found["score.csv"] = (work / "score.csv").read_bytes()
    posteriors = [str(corpus.root / rec.posterior_path) for rec in corpus.records]
    for name, flags in DECODE_CONFIGS.items():
        found[f"decode/{name}.tsv"] = _run(
            ["decode", "--vocab", str(corpus.vocab_path), "--greedy", "--beam",
             "--lm", str(corpus.lm_path), *flags, *posteriors])
    return found


def _line_digests(data: bytes) -> list[str]:
    return [hashlib.sha256(line).hexdigest()[:8] for line in data.splitlines(keepends=True)]


def render(found: dict[str, bytes]) -> str:
    """The golden file's text for the outputs `found`."""
    return "".join(
        f"{hashlib.sha256(data).hexdigest()}  {name}  {' '.join(_line_digests(data))}".rstrip()
        + "\n" for name, data in sorted(found.items()))


def first_difference(golden_text: str, found: dict[str, bytes]) -> str | None:
    """Where the outputs `found` first differ from the golden file, by name
    and line, or None if they match it."""
    expected = {}
    for line in golden_text.splitlines():
        digest, name, *lines = line.split()
        expected[name] = (digest, lines)
    for name in sorted(expected.keys() | found.keys()):
        if name not in found:
            return f"{name}: not written"
        if name not in expected:
            return f"{name}: written, but not in {GOLDEN.name}"
        digest, lines = expected[name]
        data = found[name]
        if hashlib.sha256(data).hexdigest() == digest:
            continue
        got = data.splitlines(keepends=True)
        for i, (want, line) in enumerate(zip(lines, got)):
            if _line_digests(line) != [want]:
                return f"{name}: line {i + 1} differs, it is now {line!r}"
        return f"{name}: {len(got)} lines, {len(lines)} in {GOLDEN.name}"
    return None
