"""Command-line interface.

Subcommands: decode, score, eval, report. Exit codes follow a
scripting contract: 0 success, 1 runtime failure, 2 validation/usage
failure detected before any work starts.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .baselines import WORDS_PER_MINUTE, WORDS_PER_SECOND
from .decoder import DecoderConfig, beam_search_decode, collapse, greedy_decode
from .errors import AuthError, ToolkitError
from .harness import (
    KNOWN_METHODS,
    EvalConfig,
    LlmSpec,
    llm_accuracy_report,
    render_report_text,
    replay_run_results,
    run_pipeline,
    score_manifest,
    variant_label,
    write_utterance_scores_csv,
)
from .manifest import load_manifest
from .ngram import load_arpa
from .posteriors import load_posteriors
from .refgen import ENV_MODEL, HttpChatClient, MockCorrector
from .vocab import load_vocabulary

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _add_decoder_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5,
                        help="language model weight (default 0.5)")
    parser.add_argument("--beta", type=float, default=0.5,
                        help="word insertion bonus (default 0.5)")
    parser.add_argument("--beam-width", type=int, default=100)


def _add_scoring_args(parser: argparse.ArgumentParser) -> None:
    """The flags of score and eval; both map them onto one EvalConfig."""
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--vocab",
                        help="CTC vocabulary; ngram, llm and reference_wer need it")
    parser.add_argument("--methods", required=True,
                        help="comma-separated subset of " + ",".join(KNOWN_METHODS))
    parser.add_argument("--lm", help="ARPA language model; ngram needs it")
    parser.add_argument("--language", default="unknown")
    parser.add_argument("--speech-rate-unit", default=WORDS_PER_MINUTE,
                        choices=[WORDS_PER_MINUTE, WORDS_PER_SECOND])
    _add_decoder_args(parser)
    parser.add_argument("--model", action="append", default=None,
                        help="correction model name; repeatable")
    parser.add_argument("--runs", type=int, default=3,
                        help="independent correction runs (default 3)")
    parser.add_argument("--temperature", type=float, default=0.0)
    parser.add_argument("--mock", action="store_true",
                        help="use the offline mock corrector")
    parser.add_argument("--mock-replies", action="append", default=None,
                        help="JSON substitution table for the mock; repeatable, "
                             "paired with --model in order")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asrinc",
        description="Reference-free speech intelligibility scoring from CTC posteriors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode posterior files to text")
    p_decode.add_argument("--vocab", required=True)
    p_decode.add_argument("--greedy", action="store_true",
                          help="emit the acoustic-driven transcript")
    p_decode.add_argument("--beam", action="store_true",
                          help="emit the LM-fused beam transcript")
    p_decode.add_argument("--lm", help="ARPA language model for --beam")
    _add_decoder_args(p_decode)
    p_decode.add_argument("posteriors", nargs="+")

    p_score = sub.add_parser(
        "score", help="per-utterance scores of any manifest, no ratings needed")
    _add_scoring_args(p_score)
    p_score.add_argument("--out", help="CSV output path (default stdout)")

    p_eval = sub.add_parser("eval", help="full evaluation run with a report")
    _add_scoring_args(p_eval)
    p_eval.add_argument("--out", required=True, help="run directory")
    p_eval.add_argument("--dataset-name")

    p_report = sub.add_parser("report", help="views over a persisted run directory")
    p_report.add_argument("run_dir")
    p_report.add_argument("--llm-accuracy", action="store_true",
                          help="print the reference accuracy table")
    return parser


def _load_decoder_config(args) -> DecoderConfig:
    try:
        return DecoderConfig(alpha=args.alpha, beta=args.beta,
                             beam_width=args.beam_width)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_methods(text: str) -> tuple[str, ...]:
    methods = tuple(m.strip() for m in text.split(",") if m.strip())
    if not methods:
        raise UsageError("--methods is empty")
    return methods


def _load_eval_config(args, methods: tuple[str, ...], **fields) -> EvalConfig:
    """The EvalConfig of score and eval; an unknown method, a method without
    the input it needs and an out-of-range flag value are each a UsageError,
    raised before any output is written."""
    decoder = _load_decoder_config(args)
    specs = _build_llm_specs(args) if "llm" in methods else []
    vocab = load_vocabulary(args.vocab) if args.vocab else None
    lm = load_arpa(args.lm) if args.lm else None
    try:
        return EvalConfig(
            methods=methods,
            vocab=vocab,
            lm=lm,
            decoder=decoder,
            llm_models=tuple(specs),
            llm_runs=args.runs,
            llm_temperature=args.temperature,
            language=args.language,
            speech_rate_unit=args.speech_rate_unit,
            base_dir=Path(args.manifest).resolve().parent,
            **fields,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_llm_specs(args) -> list[LlmSpec]:
    models = args.model or []
    if args.mock:
        if not models:
            models = ["mock-corrector"]
        tables = args.mock_replies or []
        return [LlmSpec(name, MockCorrector.from_json(tables[i]) if i < len(tables)
                        else MockCorrector()) for i, name in enumerate(models)]
    try:
        client = HttpChatClient.from_env()
    except (AuthError, ValueError) as exc:
        raise UsageError(f"llm method needs --mock or a live endpoint: {exc}") from None
    if not models:
        env_model = os.environ.get(ENV_MODEL, "")
        if not env_model:
            raise UsageError(f"no --model given and {ENV_MODEL} is not set")
        models = [env_model]
    return [LlmSpec(name, client) for name in models]


def cmd_decode(args) -> int:
    if not args.greedy and not args.beam:
        raise UsageError("choose --greedy and/or --beam")
    if args.beam and not args.lm:
        raise UsageError("--beam needs --lm ARPA_FILE")
    cfg = _load_decoder_config(args)
    vocab = load_vocabulary(args.vocab)
    lm = load_arpa(args.lm) if args.lm else None
    for path in args.posteriors:
        post = load_posteriors(path, vocab)
        if args.greedy:
            transcript = collapse(greedy_decode(post), vocab)
            print(f"{post.utterance_id}\tgreedy\t{transcript.text()}")
        if args.beam:
            transcript = beam_search_decode(post, vocab, lm, cfg)
            print(f"{post.utterance_id}\tbeam\t{transcript.text()}")
    return EXIT_OK


def _warn(result) -> None:
    """score's and eval's one stderr line per quarantined failure."""
    for stage, message in result.errors:
        print(f"warning: {result.record.utterance_id}: {stage}: {message}",
              file=sys.stderr)


def cmd_score(args) -> int:
    config = _load_eval_config(args, _parse_methods(args.methods))
    results = score_manifest(load_manifest(args.manifest), config, _warn)
    write_utterance_scores_csv(results, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    out = Path(args.out)
    if out.exists() and (not out.is_dir() or any(out.iterdir())):
        # a run directory describes exactly one run
        raise UsageError(f"--out {out} is not an empty directory")
    methods = _parse_methods(args.methods)
    manifest = load_manifest(args.manifest)
    if not any(r.rating is not None for r in manifest):
        raise UsageError(
            "eval needs perceptual ratings in the manifest; none found "
            "(use score for rating-free scoring)")

    config = _load_eval_config(
        args, methods,
        dataset_name=args.dataset_name or Path(args.manifest).stem,
        snapshot={"argv": args.argv, "manifest": args.manifest,
                  "vocab": args.vocab, "lm": args.lm,
                  "mock": bool(args.mock)},
    )
    result = run_pipeline(manifest, config, args.out, _warn)
    print(render_report_text(result.report))
    print(f"run directory: {result.run_dir}")
    return EXIT_OK


def cmd_report(args) -> int:
    run_dir = Path(args.run_dir)
    if not (run_dir / "utterance_scores.csv").exists():
        raise UsageError(f"{run_dir} does not look like a run directory")
    if args.llm_accuracy:
        print(llm_accuracy_report(run_dir))
        return EXIT_OK
    run_results, notes = replay_run_results(run_dir)
    for rr in run_results:
        run = "" if rr.run_index is None else f" run{rr.run_index}"
        print(f"{variant_label(rr.method, rr.model_name)}{run}: "
              f"r={rr.pearson_r:.4f} over {rr.n_points} points")
    for note in notes:
        print(f"note: {note}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    args.argv = argv  # eval records it in config.json
    handlers = {
        "decode": cmd_decode,
        "score": cmd_score,
        "eval": cmd_eval,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
