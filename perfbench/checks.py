"""Output checks on one eval run directory.

Every expected value is computed here from the inputs the benchmark wrote
or from the run's own persisted transcripts, with the code in
reference.py; nothing is compared against a stored copy of an earlier run.
One operation is one utterance (its transcripts and score rows), plus one
for the report; a check that fails marks its operation failed.
"""

from __future__ import annotations

import csv
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference

WER_METHODS = ("ngram", "llm", "reference_wer", "llm_accuracy")
POSITIVE = ("speech_rate", "wada_snr")
NEGATIVE = ("ngram", "llm", "reference_wer")
LLM_RUNS = 3   # the CLI's default --runs


class Vocab:
    def __init__(self, path: Path) -> None:
        self.symbols = path.read_text(encoding="utf-8").splitlines()
        self.blank = self.symbols.index("<blank>")
        self.delimiter = self.symbols.index("|")


def _words(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split()


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fin:
        return list(csv.DictReader(fin))


def _expected_rows(methods: list[str], models: list[str], runs: int) -> int:
    per_method = {"ngram": 1, "reference_wer": 1, "speech_rate": 1, "wada_snr": 1,
                  "llm": 2 * len(models) * runs}   # inconsistency + accuracy
    return sum(per_method[m] for m in methods)


def check_utterance(uid: str, record: dict, rows: list[dict], run_dir: Path,
                    inputs, vocab: Vocab, methods: list[str], models: list[str],
                    runs: int, top_beam: dict | None = None) -> list[str]:
    """Problems found with one utterance's outputs; empty when it is right."""
    problems = []
    tdir = run_dir / "transcripts" / uid
    frames = reference.read_ctcp(inputs.manifest.parent / record["posterior_path"])
    greedy = reference.labels_to_text(
        reference.greedy_labels(frames, vocab.blank), vocab.symbols, vocab.delimiter)
    if (tdir / "greedy.txt").read_text(encoding="utf-8").strip() != greedy:
        problems.append("greedy transcript is not the argmax-and-collapse path")
    greedy_words = greedy.split()
    truth = _words(tdir / "ground_truth.txt")
    if truth != inputs.intended[uid]:
        problems.append("ground truth transcript differs from the generated sentence")

    if len(rows) != _expected_rows(methods, models, runs):
        problems.append(f"{len(rows)} score rows")
    for row in rows:
        method = row["method"]
        if method in WER_METHODS:
            if method == "ngram":
                hyp, ref = greedy_words, _words(tdir / "ngram.txt")
            elif method == "reference_wer":
                hyp, ref = greedy_words, truth
            else:
                llm = _words(tdir / f"llm_{row['model']}_run{row['run_index']}.txt")
                hyp, ref = (greedy_words, llm) if method == "llm" else (llm, truth)
            if float(row["value"]) != reference.word_error_rate(hyp, ref) or \
                    int(row["n_edits"]) != reference.edit_distance(hyp, ref) or \
                    int(row["ref_len"]) != len(ref):
                problems.append(f"{method} {row['model']} {row['run_index']}: "
                                f"WER {row['value']} is not the edit distance")
        elif method == "speech_rate":
            expected = len(truth) / record["duration_s"] * 60.0
            if not reference.close(float(row["value"]), expected):
                problems.append(f"speech rate {row['value']} != {expected}")
        elif method == "wada_snr":
            if not np.isfinite(float(row["value"])):
                problems.append("wada_snr is not finite")
    if "ngram" in methods and _words(tdir / "ngram.txt") != inputs.intended[uid]:
        problems.append("the beam did not recover the intended sentence")

    if top_beam is not None and "ngram" in methods:
        # a prefix beam sums a subset of the prefix's alignments, so it can
        # never exceed the full CTC forward sum
        if not top_beam:
            return problems + ["no beam was decoded"]
        full = reference.ctc_forward_logp(frames, top_beam["prefix"], vocab.blank)
        if top_beam["acoustic_logp"] > full + 1e-9 * max(1.0, abs(full)):
            problems.append(f"top beam log-probability {top_beam['acoustic_logp']} "
                            f"exceeds the CTC forward sum {full}")
    return problems


def check_report(run_dir: Path, score_rows: list[dict], methods: list[str]) -> list[str]:
    """Every correlation in report.csv, recomputed from utterance_scores.csv."""
    problems = []
    # variant -> speaker-time -> values; speaker-time -> rating
    values: dict[tuple, dict[tuple, list[float]]] = defaultdict(lambda: defaultdict(list))
    ratings: dict[tuple, float] = {}
    for row in score_rows:
        group = (row["speaker_id"], row["timepoint_id"])
        values[(row["method"], row["model"], row["run_index"])][group].append(
            float(row["value"]))
        ratings[group] = float(row["rating"])
    expected = {}
    for variant, groups in values.items():
        means = [float(np.mean(v)) for v in groups.values()]
        rates = [ratings[g] for g in groups]
        if len(means) >= 3 and np.ptp(means) > 0 and np.ptp(rates) > 0:
            expected[variant] = reference.pearson(means, rates)

    seen, by_model = set(), defaultdict(list)
    for row in _read_csv(run_dir / "report.csv"):
        r = float(row["pearson_r"])
        method = row["method"]
        if row["run_index"] == "mean":
            mean = np.mean(by_model[(method, row["model"])])
            if not reference.close(r, float(mean)):
                problems.append(f"{method} {row['model']}: mean r {r} != {mean}")
            seen.add(method)
        else:
            variant = (method, row["model"], row["run_index"])
            want = expected.pop(variant, None)
            if want is None or not reference.close(r, want):
                problems.append(f"{variant}: r {r} != {want}")
            by_model[(method, row["model"])].append(r)
        if (method in POSITIVE and r <= 0) or (method in NEGATIVE and r >= 0):
            problems.append(f"{method} {row['model']}: r {r} has the wrong sign")
    if expected:
        problems.append(f"report misses {sorted(expected)}")
    if seen != set(methods):
        problems.append(f"report covers {sorted(seen)}, not {sorted(methods)}")
    return problems


def check_run(run_dir: Path, inputs, top_beams: dict | None = None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for one eval run directory."""
    args = inputs.eval_args
    methods = args[args.index("--methods") + 1].split(",")
    models = [args[i + 1] for i, a in enumerate(args) if a == "--model"]
    if "llm" in methods and not models:
        models = ["mock-corrector"]
    vocab = Vocab(Path(args[args.index("--vocab") + 1]))
    manifest = [json.loads(line) for line in
                inputs.manifest.read_text(encoding="utf-8").splitlines() if line]

    score_path = run_dir / "utterance_scores.csv"
    if not score_path.exists():
        return len(manifest) + 1, len(manifest) + 1, ["no utterance_scores.csv"]
    score_rows = _read_csv(score_path)
    by_utt = defaultdict(list)
    for row in score_rows:
        by_utt[row["utterance_id"]].append(row)

    failed, problems = 0, []
    for record in manifest:
        uid = record["utterance_id"]
        try:
            found = check_utterance(
                uid, record, by_utt.get(uid, []), run_dir, inputs, vocab, methods,
                models, LLM_RUNS, None if top_beams is None else top_beams.get(uid, {}))
        except (OSError, ValueError, KeyError) as exc:
            found = [f"{type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.extend(f"{uid}: {p}" for p in found)
    try:
        found = check_report(run_dir, score_rows, methods)
    except (OSError, ValueError, KeyError) as exc:
        found = [f"{type(exc).__name__}: {exc}"]
    if found:
        failed += 1
        problems.extend(f"report: {p}" for p in found)
    return len(manifest) + 1, failed, problems
