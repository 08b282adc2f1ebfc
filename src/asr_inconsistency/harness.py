"""Evaluation harness: per-utterance scoring, speaker aggregation,
correlation with perceptual ratings, run statistics, and report emission.

A run writes a self-contained directory: the config snapshot, every
intermediate transcript and raw correction reply (the audit trail the
explainability story depends on), per-utterance scores, speaker-level
scores, and the human/machine report pair. Every report cell can be
recomputed from the persisted per-utterance scores. The hyp_source and
ref_source columns of utterance_scores.csv are written from
metrics.WER_SOURCES and never read back.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import re
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .audio import read_wav
from .baselines import WORDS_PER_MINUTE, WORDS_PER_SECOND, speech_rate, wada_snr
from .decoder import DecoderConfig, beam_search_decode, collapse, greedy_decode
from .errors import (
    AuthError,
    ManifestFormatError,
    MissingInputError,
    PipelineError,
    RunDirectoryError,
    ToolkitError,
)
from .manifest import UtteranceRecord
from .metrics import WER_SOURCES, ScoreRecord, inconsistency_score, reference_wer
from .ngram import NGramModel
from .posteriors import load_posteriors
from .refgen import CorrectionClient, correct_with_llm
from .stats import mean_ci, pearson, two_sample_t
from .transcript import Transcript
from .vocab import Vocabulary

log = logging.getLogger(__name__)

# the one per-utterance input each method reads besides the ground truth, in
# the report's row order; "decode" is the posterior and its greedy transcript
METHOD_INPUTS = {"speech_rate": "duration", "wada_snr": "audio", "ngram": "decode",
                 "llm": "decode", "reference_wer": "decode"}
KNOWN_METHODS = tuple(METHOD_INPUTS)
SIGNIFICANCE_LEVEL = 0.05


@dataclass(frozen=True)
class LlmSpec:
    model_name: str
    client: CorrectionClient


@dataclass
class EvalConfig:
    methods: tuple[str, ...]
    vocab: Vocabulary | None = None
    lm: NGramModel | None = None
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    llm_models: tuple[LlmSpec, ...] = ()
    llm_runs: int = 3
    llm_temperature: float = 0.0
    language: str = "unknown"
    dataset_name: str = "dataset"
    speech_rate_unit: str = WORDS_PER_MINUTE
    base_dir: Path = field(default_factory=Path.cwd)
    snapshot: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for i, m in enumerate(self.methods):
            if m not in KNOWN_METHODS:
                raise ValueError(f"unknown method {m!r}")
            # a method scored twice would count twice in the speaker means
            if m in self.methods[:i]:
                raise ValueError(f"method {m!r} is given twice")
            if METHOD_INPUTS[m] == "decode" and self.vocab is None:
                raise ValueError(f"the {m} method needs a vocabulary")
        if "ngram" in self.methods and self.lm is None:
            raise ValueError("the ngram method needs a language model")
        if "llm" in self.methods and not self.llm_models:
            raise ValueError("the llm method needs at least one model client")
        if any(not spec.model_name for spec in self.llm_models):
            raise ValueError("an llm model name must not be empty")
        if self.llm_runs < 1:
            raise ValueError("llm_runs must be >= 1")
        if not (self.llm_temperature >= 0 and math.isfinite(self.llm_temperature)):
            raise ValueError("llm_temperature must be a finite number >= 0")
        if self.speech_rate_unit not in (WORDS_PER_MINUTE, WORDS_PER_SECOND):
            raise ValueError(f"unknown speech rate unit {self.speech_rate_unit!r}")


@dataclass(frozen=True)
class SpeakerScore:
    speaker_id: str
    timepoint_id: str
    method: str
    model_name: str | None
    run_index: int | None
    mean_value: float
    n_utterances: int
    rating: float | None


@dataclass(frozen=True)
class RunResult:
    method: str
    model_name: str | None
    run_index: int | None
    pearson_r: float
    n_points: int


@dataclass(frozen=True)
class ReportRow:
    method: str
    model_name: str | None
    r_mean: float | None
    ci_halfwidth: float | None
    n_points: int
    n_runs: int
    significant: bool | None
    note: str = ""

    @property
    def label(self) -> str:
        return variant_label(self.method, self.model_name)


@dataclass
class ReportTable:
    metadata: dict
    rows: list[ReportRow]
    footnotes: list[str] = field(default_factory=list)


@dataclass
class UtteranceResult:
    record: UtteranceRecord
    greedy: Transcript | None = None
    ground_truth: Transcript | None = None
    references: dict[str, Transcript] = field(default_factory=dict)
    raw_replies: dict[str, str] = field(default_factory=dict)
    scores: list[ScoreRecord] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class PipelineResult:
    report: ReportTable
    run_results: list[RunResult]
    speaker_scores: list[SpeakerScore]
    utterances: list[UtteranceResult]
    run_dir: Path


# ---------------------------------------------------------------------------
# per-utterance scoring


def score_utterance(record: UtteranceRecord, config: EvalConfig) -> UtteranceResult:
    """Score one utterance by the config's methods, reading each input of
    METHOD_INPUTS at most once and only for the methods that read it. A failed
    input excludes only those methods. Failures are recorded, not raised: a
    failed decode once, as "decode", any other under its method's name. An
    AuthError is raised: a rejected key would fail every request alike."""
    result = UtteranceResult(record=record)
    uid = record.utterance_id
    if record.ground_truth_text is not None:
        result.ground_truth = Transcript.from_raw(record.ground_truth_text)
    # each input read, or the error reading it raised; a manifest duration_s is one
    inputs: dict = {} if record.duration_s is None else {"duration": record.duration_s}

    def read(source: str):
        if source not in inputs:
            try:
                if source == "decode":
                    inputs[source] = load_posteriors(
                        config.base_dir / record.posterior_path, config.vocab)
                    result.greedy = collapse(greedy_decode(inputs[source]), config.vocab)
                elif record.audio_path is None:
                    raise MissingInputError(f"{uid}: " + (
                        "neither duration_s nor audio_path present"
                        if source == "duration" else "no audio_path for wada_snr"))
                elif source == "duration":
                    inputs[source] = read("audio").duration_s
                else:
                    inputs[source] = read_wav(config.base_dir / record.audio_path)
            except (ToolkitError, OSError) as exc:
                inputs[source] = exc
                if source == "decode":
                    result.errors.append(("decode", str(exc)))
        if isinstance(inputs[source], Exception):
            raise inputs[source]
        return inputs[source]

    for method in config.methods:
        try:
            value = read(METHOD_INPUTS[method])
            if method == "ngram":
                ref = beam_search_decode(value, config.vocab, config.lm, config.decoder)
                result.references["ngram"] = ref
                result.scores.append(
                    inconsistency_score(result.greedy, ref, uid, method="ngram"))
            elif method == "llm":
                _score_llm(result, config)
            elif method == "speech_rate":
                result.scores.append(speech_rate(
                    result.ground_truth, value, uid, unit=config.speech_rate_unit))
            elif method == "wada_snr":
                result.scores.append(wada_snr(value, uid))
            elif method == "reference_wer":
                result.scores.append(
                    reference_wer(result.greedy, result.ground_truth, uid))
        except AuthError:
            raise
        except (ToolkitError, OSError) as exc:
            if exc is not inputs.get("decode"):  # that one is recorded once
                result.errors.append((method, str(exc)))
    return result


def _score_llm(result: UtteranceResult, config: EvalConfig) -> None:
    uid = result.record.utterance_id
    if not result.greedy.words:
        raise PipelineError(f"{uid}: empty greedy transcript, nothing to correct")
    for spec in config.llm_models:
        for corr in correct_with_llm(
                spec.client, result.greedy, config.language, spec.model_name,
                runs=config.llm_runs, temperature=config.llm_temperature):
            label = f"llm_{spec.model_name}_run{corr.run_index}"
            result.references[label] = corr.corrected
            result.raw_replies[label] = corr.raw_reply
            result.scores.append(inconsistency_score(
                result.greedy, corr.corrected, uid, method="llm",
                model_name=spec.model_name, run_index=corr.run_index))
            if result.ground_truth is not None:
                result.scores.append(reference_wer(
                    corr.corrected, result.ground_truth, uid,
                    method="llm_accuracy", model_name=spec.model_name,
                    run_index=corr.run_index))


# ---------------------------------------------------------------------------
# aggregation and statistics


def _variant_key(score: ScoreRecord | SpeakerScore) -> tuple:
    return (score.method, score.model_name or "", -1 if score.run_index is None
            else score.run_index)


def variant_label(method: str, model_name: str | None) -> str:
    """How reports and CSVs name a method variant: llm[model], or ngram."""
    return f"{method}[{model_name}]" if model_name else method


def aggregate_speaker(scores: list[ScoreRecord],
                      manifest: list[UtteranceRecord]) -> list[SpeakerScore]:
    """Arithmetic mean per (speaker, timepoint, method variant).

    Utterances without a score for a variant are simply absent from its
    mean; a speaker-time with zero scored utterances for a variant is
    skipped (and logged). A score for an utterance outside the manifest
    raises PipelineError.
    """
    by_utterance = {r.utterance_id: r for r in manifest}
    group_keys = sorted({r.group_key for r in manifest})

    ratings: dict[tuple[str, str], float | None] = {}
    for rec in manifest:
        key = rec.group_key
        if rec.rating is None:
            ratings.setdefault(key, None)
            continue
        seen = ratings.get(key)
        if seen is not None and seen != rec.rating:
            raise ManifestFormatError(
                f"speaker-time {key} carries ratings {seen} and {rec.rating}")
        ratings[key] = rec.rating

    grouped: dict[tuple, dict[tuple[str, str], list[float]]] = {}
    for score in scores:
        rec = by_utterance.get(score.utterance_id)
        if rec is None:
            raise PipelineError(f"score for unknown utterance {score.utterance_id!r}")
        grouped.setdefault(_variant_key(score), {}).setdefault(
            rec.group_key, []).append(score.value)

    out: list[SpeakerScore] = []
    for variant in sorted(grouped):
        method, model_name, run_index = variant
        per_group = grouped[variant]
        for key in group_keys:
            values = per_group.get(key)
            if not values:
                log.info("speaker-time %s skipped for %s: no scored utterances",
                         key, method)
                continue
            out.append(SpeakerScore(
                speaker_id=key[0],
                timepoint_id=key[1],
                method=method,
                model_name=model_name or None,
                run_index=None if run_index < 0 else run_index,
                # canonical summation order: the mean must not depend on
                # the order scores arrived in
                mean_value=sum(sorted(values)) / len(values),
                n_utterances=len(values),
                rating=ratings.get(key),
            ))
    return out


def correlate(speaker_scores: list[SpeakerScore]) -> tuple[list[RunResult], list[str]]:
    """Pearson r of speaker-level scores against ratings, per method variant.

    Variants that cannot be correlated (too few rated points, degenerate
    variance) are reported in the notes instead of failing the run.
    """
    variants: dict[tuple, list[SpeakerScore]] = {}
    for s in speaker_scores:
        variants.setdefault(_variant_key(s), []).append(s)
    results: list[RunResult] = []
    notes: list[str] = []
    for key in sorted(variants):
        method, model_name, run_index = key
        rated = [(s.mean_value, s.rating) for s in variants[key] if s.rating is not None]
        label = variant_label(method, model_name)
        if run_index >= 0:
            label += f" run{run_index}"
        try:
            r = pearson([v for v, _ in rated], [g for _, g in rated])
        except ToolkitError as exc:
            notes.append(f"{label}: correlation unavailable ({exc})")
            continue
        results.append(RunResult(
            method=method,
            model_name=model_name or None,
            run_index=None if run_index < 0 else run_index,
            pearson_r=r,
            n_points=len(rated),
        ))
    return results, notes


def build_report(
    run_results: list[RunResult],
    manifest: list[UtteranceRecord],
    config: EvalConfig,
    notes: list[str],
    n_scored: int,
) -> ReportTable:
    groups = sorted({r.group_key for r in manifest})
    speakers = sorted({r.speaker_id for r in manifest})
    per_group = [sum(1 for r in manifest if r.group_key == g) for g in groups]
    n_sen = per_group[0] if len(set(per_group)) == 1 else (
        sum(per_group) / len(per_group))
    metadata = {
        "dataset": config.dataset_name,
        "language": config.language,
        "n_spk": len(speakers),
        "n_spk_time": len(groups),
        "n_sen": n_sen,
        "n_utterances": len(manifest),
        "n_utterances_scored": n_scored,
        "aggregation": "arithmetic mean of per-utterance scores per speaker-time",
    }

    by_variant: dict[tuple[str, str], list[RunResult]] = {}
    for rr in run_results:
        by_variant.setdefault((rr.method, rr.model_name or ""), []).append(rr)

    # run-level r samples per llm model, for the model-vs-model t-test
    llm_runs: dict[str, list[float]] = {}
    for (method, model), results in by_variant.items():
        if method == "llm":
            llm_runs[model] = [rr.pearson_r for rr in sorted(
                results, key=lambda rr: rr.run_index or 0)]
    significant: set[str] = set()
    footnotes = list(notes)
    models = sorted(llm_runs)
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            a, b = models[i], models[j]
            if len(llm_runs[a]) < 2 or len(llm_runs[b]) < 2:
                continue
            t_stat, p = two_sample_t(llm_runs[a], llm_runs[b])
            footnotes.append(
                f"t-test llm[{a}] vs llm[{b}]: t={t_stat:.4f} p={p:.4f}")
            if p < SIGNIFICANCE_LEVEL:
                significant.update((a, b))

    rows: list[ReportRow] = []
    order = {m: i for i, m in enumerate(KNOWN_METHODS)}
    for (method, model) in sorted(by_variant,
                                  key=lambda k: (order.get(k[0], 9), k[1])):
        if method == "llm_accuracy":
            # reference-accuracy cells live in the dedicated accuracy table
            continue
        results = by_variant[(method, model)]
        rs = [rr.pearson_r for rr in results]
        n_points = results[0].n_points
        if len(rs) == 1:
            rows.append(ReportRow(method, model or None, rs[0], None,
                                  n_points, 1, None))
        else:
            mean, half = mean_ci(rs)
            rows.append(ReportRow(
                method, model or None, mean, half, n_points, len(rs),
                (model in significant) if method == "llm" and len(models) > 1 else None))
    return ReportTable(metadata=metadata, rows=rows, footnotes=footnotes)


# ---------------------------------------------------------------------------
# rendering and persistence


def _fmt(value, decimals: int = 4) -> str:
    if value is None:
        return "-"
    return f"{value:.{decimals}f}"


def render_report_text(table: ReportTable) -> str:
    meta = table.metadata
    lines = [
        "speaker-level correlation with perceptual ratings",
        f"dataset: {meta['dataset']}    language: {meta['language']}",
        f"n_spk: {meta['n_spk']}    n_spk_time: {meta['n_spk_time']}    "
        f"n_sen: {meta['n_sen']}",
        f"utterances scored: {meta['n_utterances_scored']}/{meta['n_utterances']}",
        f"aggregation: {meta['aggregation']}",
        "",
        f"{'method':<30} {'r':>9} {'ci95':>11} {'n_points':>9} {'runs':>5} {'sig':>4}",
    ]
    for row in table.rows:
        sig = "-" if row.significant is None else ("yes" if row.significant else "no")
        ci = f"+/-{_fmt(row.ci_halfwidth)}" if row.ci_halfwidth is not None else "-"
        lines.append(
            f"{row.label:<30} {_fmt(row.r_mean):>9} {ci:>11} "
            f"{row.n_points:>9} {row.n_runs:>5} {sig:>4}")
    if table.footnotes:
        lines.append("")
        lines.extend(f"note: {n}" for n in table.footnotes)
    lines.append("")
    return "\n".join(lines)


def _write_csv(path: str | Path | None, header: list[str], rows: list[list]) -> None:
    """Write a CSV to path, or to stdout when path is None."""
    out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report_csv(table: ReportTable, run_results: list[RunResult],
                     path: Path) -> None:
    rows = []
    for rr in run_results:
        rows.append([table.metadata["dataset"], rr.method, _cell(rr.model_name),
                     _cell(rr.run_index), _cell(rr.pearson_r), "",
                     rr.n_points, ""])
    for row in table.rows:
        rows.append([table.metadata["dataset"], row.method, _cell(row.model_name),
                     "mean", _cell(row.r_mean), _cell(row.ci_halfwidth),
                     row.n_points,
                     "" if row.significant is None else str(row.significant)])
    _write_csv(path, ["dataset", "method", "model", "run_index", "pearson_r",
                      "ci95_halfwidth", "n_points", "significant"], rows)


def write_speaker_scores_csv(speaker_scores: list[SpeakerScore],
                             dataset: str, path: Path) -> None:
    rows = []
    for s in speaker_scores:
        rows.append([dataset, variant_label(s.method, s.model_name),
                     _cell(s.run_index), s.speaker_id,
                     s.timepoint_id, s.n_utterances, _cell(s.mean_value),
                     _cell(s.rating)])
    _write_csv(path, ["dataset", "method", "run_index", "speaker_id",
                      "timepoint_id", "n_utterances", "score", "rating"], rows)


def write_utterance_scores_csv(results: list[UtteranceResult],
                               path: str | Path | None = None) -> None:
    """One row per score, in the order of results; stdout when path is None."""
    rows = []
    for res in results:
        rec = res.record
        for s in res.scores:
            hyp_source, ref_source = WER_SOURCES.get(s.method, ("", ""))
            rows.append([s.utterance_id, rec.speaker_id, rec.timepoint_id or "",
                         _cell(rec.rating), s.method, _cell(s.model_name),
                         _cell(s.run_index), _cell(s.value),
                         hyp_source, ref_source,
                         _cell(s.n_edits), _cell(s.ref_len)])
    _write_csv(path, ["utterance_id", "speaker_id", "timepoint_id", "rating",
                      "method", "model", "run_index", "value", "hyp_source",
                      "ref_source", "n_edits", "ref_len"], rows)


def _safe_name(name: str) -> str:
    return re.sub(r"[^\w.,+=@-]", "_", name)


def _persist(results: list[UtteranceResult], run_dir: Path) -> None:
    tdir = run_dir / "transcripts"
    for res in results:
        if res.greedy is None and res.ground_truth is None and not res.references:
            continue
        udir = tdir / _safe_name(res.record.utterance_id)
        udir.mkdir(parents=True, exist_ok=True)
        if res.greedy is not None:
            (udir / "greedy.txt").write_text(res.greedy.text() + "\n", "utf-8")
        if res.ground_truth is not None:
            (udir / "ground_truth.txt").write_text(
                res.ground_truth.text() + "\n", "utf-8")
        for label, transcript in sorted(res.references.items()):
            (udir / f"{_safe_name(label)}.txt").write_text(
                transcript.text() + "\n", "utf-8")
    replies = [(f"{_safe_name(res.record.utterance_id)}__{_safe_name(label)}.txt", reply)
               for res in results for label, reply in sorted(res.raw_replies.items())]
    rdir = run_dir / "llm_raw"
    if replies:
        rdir.mkdir(exist_ok=True)
    for name, reply in replies:
        (rdir / name).write_text(reply + "\n", "utf-8")
    exclusions = [[res.record.utterance_id, stage, message]
                  for res in results for stage, message in res.errors]
    if exclusions:
        _write_csv(run_dir / "exclusions.csv",
                   ["utterance_id", "stage", "message"], exclusions)


def score_manifest(manifest: list[UtteranceRecord], config: EvalConfig,
                   on_result=None) -> list[UtteranceResult]:
    """Score every utterance in manifest order, passing each result to
    on_result as it is made; PipelineError if no utterance got a score."""
    results = []
    for record in manifest:
        results.append(score_utterance(record, config))
        if on_result is not None:
            on_result(results[-1])
    if not any(res.scores for res in results):
        raise PipelineError("no utterance produced any score")
    return results


def run_pipeline(manifest: list[UtteranceRecord], config: EvalConfig,
                 output_dir: str | Path, on_result=None) -> PipelineResult:
    """Score every utterance (by score_manifest), aggregate, correlate, and
    persist the run.

    Per-utterance failures are quarantined into exclusions. A run that fails
    as a whole (no utterance scored, a rejected key, conflicting ratings)
    creates no run directory.
    """
    results = score_manifest(manifest, config, on_result)
    n_scored = sum(1 for res in results if res.scores)
    all_scores = [s for res in results for s in res.scores]

    speaker_scores = aggregate_speaker(all_scores, manifest)
    run_results, notes = correlate(speaker_scores)
    report = build_report(run_results, manifest, config, notes, n_scored)

    run_dir = Path(output_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    snapshot = dict(config.snapshot)
    snapshot.setdefault("methods", list(config.methods))
    snapshot.setdefault("decoder", asdict(config.decoder))
    snapshot.setdefault("llm_runs", config.llm_runs)
    snapshot.setdefault("llm_temperature", config.llm_temperature)
    snapshot.setdefault("dataset_name", config.dataset_name)
    snapshot.setdefault("language", config.language)
    (run_dir / "config.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", "utf-8")

    _persist(results, run_dir)
    write_utterance_scores_csv(results, run_dir / "utterance_scores.csv")
    write_speaker_scores_csv(speaker_scores, config.dataset_name,
                             run_dir / "scores.csv")
    write_report_csv(report, run_results, run_dir / "report.csv")
    (run_dir / "report.txt").write_text(render_report_text(report), "utf-8")

    return PipelineResult(report=report, run_results=run_results,
                          speaker_scores=speaker_scores, utterances=results,
                          run_dir=run_dir)


# ---------------------------------------------------------------------------
# post-hoc views over a persisted run directory


def _load_utterance_scores(run_dir: Path) -> tuple[list[ScoreRecord],
                                                   list[UtteranceRecord]]:
    path = run_dir / "utterance_scores.csv"
    scores: list[ScoreRecord] = []
    pseudo: dict[str, UtteranceRecord] = {}
    with open(path, encoding="utf-8") as fin:
        # a short row's missing cells read "", like empty ones, not None
        reader = csv.DictReader(fin, restval="")
        try:
            for row in reader:
                scores.append(ScoreRecord(
                    utterance_id=row["utterance_id"],
                    method=row["method"],
                    value=float(row["value"]),
                    model_name=row["model"] or None,
                    run_index=int(row["run_index"]) if row["run_index"] else None,
                    n_edits=int(row["n_edits"]) if row["n_edits"] else None,
                    ref_len=int(row["ref_len"]) if row["ref_len"] else None,
                ))
                if row["utterance_id"] not in pseudo:
                    pseudo[row["utterance_id"]] = UtteranceRecord(
                        utterance_id=row["utterance_id"],
                        speaker_id=row["speaker_id"],
                        posterior_path="unused",
                        timepoint_id=row["timepoint_id"] or None,
                        rating=float(row["rating"]) if row["rating"] else None,
                    )
        except UnicodeDecodeError as exc:
            raise RunDirectoryError(f"{path}: not UTF-8 text") from exc
        except KeyError as exc:
            raise RunDirectoryError(f"{path}:{reader.line_num}: no {exc} column") from exc
        except (csv.Error, ValueError) as exc:
            raise RunDirectoryError(f"{path}:{reader.line_num}: {exc}") from exc
    return scores, list(pseudo.values())


def replay_run_results(run_dir: str | Path) -> tuple[list[RunResult], list[str]]:
    """Recompute correlation cells, and correlate's notes, from the persisted
    per-utterance scores."""
    scores, pseudo_manifest = _load_utterance_scores(Path(run_dir))
    return correlate(aggregate_speaker(scores, pseudo_manifest))


def llm_accuracy_report(run_dir: str | Path) -> str:
    """Reference accuracy table: greedy vs corrected WER and the
    correlation of corrected-reference WER with the ratings.

    Micro pools edits over pooled reference words; macro averages
    per-utterance WER. Micro is the headline number.
    """
    run_dir = Path(run_dir)
    scores, pseudo_manifest = _load_utterance_scores(run_dir)

    def micro_macro(records: list[ScoreRecord]) -> tuple[float, float]:
        edits = sum(s.n_edits or 0 for s in records)
        ref = sum(s.ref_len or 0 for s in records)
        micro = edits / ref if ref else 0.0
        macro = sum(s.value for s in records) / len(records)
        return micro, macro

    greedy = [s for s in scores if s.method == "reference_wer"]
    if not greedy:
        return "llm accuracy report: no ground-truth WER scores in this run\n"
    lines = ["reference accuracy (WER against ground truth)"]
    micro, macro = micro_macro(greedy)
    lines.append(f"greedy WER: micro {micro:.4f}  macro {macro:.4f}  "
                 f"n={len(greedy)}")

    accuracy = [s for s in scores if s.method == "llm_accuracy"]
    models = sorted({s.model_name or "" for s in accuracy})
    run_results, _ = correlate(aggregate_speaker(scores, pseudo_manifest))
    for model in models:
        runs = sorted({s.run_index for s in accuracy if s.model_name == model})
        micros, macros = [], []
        for run in runs:
            mi, ma = micro_macro([s for s in accuracy
                                  if s.model_name == model and s.run_index == run])
            micros.append(mi)
            macros.append(ma)
        # correlate orders each model's runs by run index
        rs = [rr.pearson_r for rr in run_results
              if rr.method == "llm_accuracy" and rr.model_name == model]
        micro = sum(micros) / len(micros)
        macro = sum(macros) / len(macros)
        lines.append(f"corrected[{model}] WER: micro {micro:.4f}  "
                     f"macro {macro:.4f}  runs={len(runs)}")
        if rs:
            lines.append(f"corrected[{model}] r vs ratings: "
                         f"{sum(rs) / len(rs):.4f} over {len(rs)} runs")
    lines.append("")
    return "\n".join(lines)
