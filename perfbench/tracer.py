"""In-memory spans and counts around the program's public functions.

The tracer replaces a function in the module that looks it up (the CLI
looks up run_pipeline in asr_inconsistency.cli, the harness looks up
beam_search_decode in asr_inconsistency.harness, and so on), so the
program's code is unchanged. Each call records a span: name, start, end
and the span that was open when it began. Spans stay in flat arrays until
the traced run ends and are then written out as one JSON file.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self.top_beams: dict[str, dict] = {}

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, owner, attr: str, name: str, after=None) -> None:
        """Record a span for every call of owner.attr; after(args, result)
        runs outside the span."""
        fn = getattr(owner, attr)
        nid = self._name_id(name)
        kind, start, end, parent, stack = (
            self.kind, self.start, self.end, self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    def observe(self, owner, attr: str, after) -> None:
        """Call after(args, result) on every call of owner.attr, without a span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        setattr(owner, attr, observed)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fout:
            json.dump({
                "names": self.names,
                "kind": self.kind.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
                "parent": self.parent.tolist(),
                "counts": dict(self.counts),
                "top_beams": self.top_beams,
            }, fout)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from asr_inconsistency import cli, decoder, harness, metrics, ngram, refgen, transcript

    def count(key, amount=lambda args, result: 1):
        return lambda args, result: tracer.counts.update(
            {key: amount(args, result)})

    def keep_top_beam(args, beams):
        post = args[0]
        tracer.top_beams[post.utterance_id] = {
            "prefix": list(beams[0].prefix), "acoustic_logp": beams[0].acoustic_logp}

    tracer.span(cli, "main", "cli.main")
    tracer.span(cli, "load_manifest", "manifest.load")
    tracer.span(cli, "load_vocabulary", "vocab.load")
    tracer.span(cli, "load_arpa", "ngram.load")
    tracer.span(cli, "run_pipeline", "harness.run_pipeline")
    tracer.span(harness, "score_utterance", "harness.score")
    # the bytes of a CTCP file follow from its shape: a 16-byte header and
    # float32 cells
    tracer.span(harness, "load_posteriors", "posteriors.load",
                after=count("posteriors.bytes",
                            lambda args, post: 16 + 4 * post.frames.size))
    tracer.span(harness, "greedy_decode", "decoder.greedy")
    tracer.span(harness, "collapse", "decoder.collapse")
    tracer.span(harness, "beam_search_decode", "decoder.beam",
                after=count("decoder.beam_frames",
                            lambda args, result: args[0].frame_count))
    tracer.observe(decoder, "decode_beams", keep_top_beam)
    tracer.span(ngram.NGramModel, "advance", "ngram.advance")
    tracer.span(transcript, "normalize_text", "textnorm.normalize")
    tracer.observe(transcript.Transcript, "__post_init__", count("transcript.created"))
    tracer.span(metrics, "align_words", "metrics.align")
    tracer.span(harness, "read_wav", "audio.read")
    tracer.span(harness, "wada_snr", "baselines.wada")
    tracer.span(harness, "correct_with_llm", "refgen.correct")
    tracer.observe(refgen.MockCorrector, "complete", count("refgen.requests"))
    for stage in ("aggregate_speaker", "correlate", "build_report"):
        tracer.span(harness, stage, "harness.aggregate")
