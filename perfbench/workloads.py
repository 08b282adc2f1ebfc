"""Seeded inputs for the benchmark workloads.

Every corpus starts from the public synthetic.generate_corpus and is
transformed only through public writers (PosteriorMatrix, write_posteriors,
write_arpa, write_manifest), so the program sees files a user could have
produced.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from asr_inconsistency.manifest import UtteranceRecord, write_manifest
from asr_inconsistency.ngram import BOS, EOS, NGramModel, write_arpa
from asr_inconsistency.posteriors import PosteriorMatrix, load_posteriors, write_posteriors
from asr_inconsistency.synthetic import LEXICON, generate_corpus
from asr_inconsistency.vocab import load_vocabulary

# longform: three speakers, one utterance each, joined from four sentences
# whose corrupted-word counts are fixed per speaker, so the sign of every
# correlation is known whatever the seed
LONG_SPEAKERS = 3
LONG_SENTENCES = 4
# (frames, emitting frames) of each joined sentence: five words, no
# repeated letter, the most common shape the generator makes
LONG_SENTENCE_SHAPE = (23, 21)
LONG_BLANK_PAD = 2        # blank frames after every emitting frame
LONG_TEMPERATURE = 2.0    # flattens sharp frames from ~8 nats to ~4
LONG_FPS = 50.0
BIGRAM_SUCCESSORS = 8     # explicit bigrams per history; the rest back off
BIGRAM_LISTED_MASS = 0.5


@dataclass
class Inputs:
    """One workload's generated corpus and the eval arguments that run it."""

    manifest: Path
    eval_args: list[str]
    frames: int
    # utterance id -> the words the speaker intended; both corpora are built
    # so that the beam search recovers them
    intended: dict[str, list[str]]


def _intended_words(meta_path: Path) -> dict[str, list[str]]:
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return {u["utterance_id"]: u["true_words"] for u in meta["utterances"]}


def _frame_count(root: Path, records) -> int:
    total = 0
    for rec in records:
        with open(root / rec.posterior_path, "rb") as fin:
            total += int.from_bytes(fin.read(12)[8:12], "little")
    return total


def quickstart(root: Path, seed: int) -> Inputs:
    """The README quick start: the default corpus, all five methods."""
    c = generate_corpus(root, seed=seed)
    return Inputs(
        manifest=c.manifest_path,
        eval_args=["--manifest", str(c.manifest_path), "--vocab", str(c.vocab_path),
                   "--methods", "speech_rate,wada_snr,ngram,llm,reference_wer", "--lm", str(c.lm_path),
                   "--mock", "--mock-replies", str(c.mock_half_fix_path)],
        frames=_frame_count(root, c.records),
        intended=_intended_words(c.meta_path),
    )


def _bigram_model(rng: np.random.Generator) -> NGramModel:
    """A normalised back-off bigram model over the synthetic lexicon.

    Each history lists a few successors explicitly and reaches the rest by
    back-off to a uniform unigram, so both ARPA paths are exercised while
    no intended word becomes too unlikely for the beam to recover.
    """
    targets = [*LEXICON, EOS]
    p_uni = 1.0 / len(targets)
    unigrams = {(w,): (float(np.log10(p_uni)), None) for w in targets}
    bigrams = {}
    for history in (BOS, *LEXICON):
        chosen = rng.choice(len(targets), BIGRAM_SUCCESSORS, replace=False)
        weights = rng.uniform(0.8, 1.2, BIGRAM_SUCCESSORS)
        weights *= BIGRAM_LISTED_MASS / weights.sum()
        for i, p in zip(chosen, weights):
            bigrams[(history, targets[i])] = (float(np.log10(p)), None)
        backoff = (1.0 - BIGRAM_LISTED_MASS) / (1.0 - BIGRAM_SUCCESSORS * p_uni)
        logp = -99.0 if history == BOS else unigrams[(history,)][0]
        unigrams[(history,)] = (logp, float(np.log10(backoff)))
    return NGramModel(order=2, tables=(unigrams, bigrams))


def _log_softmax(x: np.ndarray) -> np.ndarray:
    x = x - x.max(axis=1, keepdims=True)
    return x - np.log(np.exp(x).sum(axis=1, keepdims=True))


def longform(root: Path, seed: int) -> Inputs:
    """A few long, blank-padded, flattened utterances under a bigram LM."""
    pool = generate_corpus(root / "pool", n_speakers=12, utterances_per_speaker=100,
                           noise_rate_step=0.06, seed=seed, write_audio=False)
    vocab = load_vocabulary(pool.vocab_path)
    meta = json.loads(pool.meta_path.read_text(encoding="utf-8"))
    by_id = {u["utterance_id"]: u for u in meta["utterances"]}
    rng = np.random.default_rng(seed)
    order = [pool.records[i] for i in rng.permutation(len(pool.records))]

    def sentences(n_corrupted: int):
        # one sentence shape for every seed: the beam's cost per frame grows
        # with prefix length, so a seed must not change the utterance length
        for rec in order:
            if len(by_id[rec.utterance_id]["corrupted_positions"]) != n_corrupted:
                continue
            mat = load_posteriors(pool.root / rec.posterior_path, vocab).frames
            emitting = int(np.sum(np.argmax(mat, axis=1) != vocab.blank_index))
            if (len(mat), emitting) == LONG_SENTENCE_SHAPE:
                yield rec, mat

    (root / "post").mkdir(parents=True, exist_ok=True)
    records, intended, frames = [], {}, 0
    for k in range(LONG_SPEAKERS):
        # speaker k: every sentence carries exactly k corrupted words
        chosen = list(itertools.islice(sentences(k), LONG_SENTENCES))
        if len(chosen) < LONG_SENTENCES:
            raise RuntimeError(f"seed {seed}: too few sentences with {k} corruptions")
        mats = [mat for _, mat in chosen]
        delim_row = next(row for row in mats[0]
                         if int(np.argmax(row)) == vocab.delimiter_index)
        blank_row = mats[0][0]
        padded = []
        for i, mat in enumerate(mats):
            for row in ([delim_row] if i else []) + list(mat):
                padded.append(row)
                if int(np.argmax(row)) != vocab.blank_index:
                    padded.extend([blank_row] * LONG_BLANK_PAD)
        arr = _log_softmax(np.asarray(padded) / LONG_TEMPERATURE)
        uid = f"long{k:02d}"
        write_posteriors(PosteriorMatrix.from_array(uid, arr),
                         root / "post" / f"{uid}.ctcp")
        words = [w for rec, _ in chosen for w in by_id[rec.utterance_id]["true_words"]]
        intended[uid] = words
        frames += len(arr)
        records.append(UtteranceRecord(
            utterance_id=uid, speaker_id=f"spk{k:02d}",
            posterior_path=f"post/{uid}.ctcp",
            ground_truth_text=" ".join(words),
            rating=5.0 * (1.0 - 0.2 * k),
            duration_s=round(len(arr) / LONG_FPS, 3)))

    manifest = root / "manifest.jsonl"
    write_manifest(records, manifest)
    lm_path = root / "bigram.arpa"
    lm_path.write_text(write_arpa(_bigram_model(rng)), encoding="utf-8")
    return Inputs(
        manifest=manifest,
        eval_args=["--manifest", str(manifest), "--vocab", str(pool.vocab_path),
                   "--methods", "ngram,reference_wer", "--lm", str(lm_path)],
        frames=frames,
        intended=intended,
    )


WORKLOADS = {"quickstart": quickstart, "longform": longform}
