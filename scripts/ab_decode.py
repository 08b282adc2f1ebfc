#!/usr/bin/env python3
"""Decode-alone A/B comparison of the beam search against another checkout.

    python3 scripts/ab_decode.py PARENT_CHECKOUT

The checkout the script sits in is compared with PARENT_CHECKOUT, the
root of another one (say, `git archive` of the parent commit unpacked
elsewhere).
The parent's package is imported under the name `parent_asr_inconsistency`
(the package imports itself only relatively), this checkout's as
`asr_inconsistency`. Both benchmark corpora are built by
`perfbench/workloads.py` at each seed, and each side loads the vocabulary,
LM and posteriors with its own loaders.

First every utterance's full `decode_beams` list must be equal on both
sides, field by field; the script exits 1 at the first difference. Then
each round times one pass over a corpus's utterances on each side, as an
`eval` decodes them (`n_best=1`, default `DecoderConfig`). Both sides
decode an utterance back to back, in ABBA order: which side goes first
alternates from one utterance to the next and from one round to the next,
so a drift in the host's speed falls on both. It prints, per corpus, the
median and quartiles over the rounds of parent time / this time (above 1
means this checkout is faster) and each side's median ms/frame.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import asr_inconsistency  # noqa: E402
import workloads  # noqa: E402

PARENT_NAME = "parent_asr_inconsistency"
SEEDS = (1, 2, 3)
ROUNDS = 14


def load_package(package_dir: Path, name: str):
    """Import the package in `package_dir` as `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_searches(pkg, inputs) -> list[tuple]:
    """(utterance id, decode_beams arguments) of every manifest record,
    loaded with `pkg`'s own loaders."""
    args = dict(zip(inputs.eval_args[::2], inputs.eval_args[1::2]))
    vocab = pkg.load_vocabulary(args["--vocab"])
    lm = pkg.load_arpa(args["--lm"])
    cfg = pkg.DecoderConfig()
    base = inputs.manifest.parent
    return [(rec.utterance_id,
             (pkg.load_posteriors(base / rec.posterior_path, vocab), vocab, lm, cfg))
            for rec in pkg.load_manifest(inputs.manifest)]


def check_equal(name: str, sides) -> None:
    """Exit 1 unless both sides return the same full list of beams."""
    (pkg_a, searches_a), (pkg_b, searches_b) = sides
    for (uid, a), (_, b) in zip(searches_a, searches_b):
        beams_a = [dataclasses.astuple(x) for x in pkg_a.decode_beams(*a)]
        beams_b = [dataclasses.astuple(x) for x in pkg_b.decode_beams(*b)]
        if beams_a != beams_b:
            i = next((i for i, (x, y) in enumerate(zip(beams_a, beams_b)) if x != y),
                     min(len(beams_a), len(beams_b)))
            sys.exit(f"{name}: {uid}: the beams differ first at index {i} "
                     f"({len(beams_a)} against {len(beams_b)} beams)")


def time_round(sides, first: int) -> list[float]:
    """Each side's time for one pass over the utterances, alternating per
    utterance which side decodes it first, `first` at the first one."""
    totals = [0.0, 0.0]
    gc.collect()
    for i, pair in enumerate(zip(*(searches for _, searches in sides))):
        for k in ((0, 1) if (first + i) % 2 == 0 else (1, 0)):
            decode = sides[k][0].decode_beams
            start = time.perf_counter()
            decode(*pair[k][1], 1)
            totals[k] += time.perf_counter() - start
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the checkout to compare against")
    args = parser.parse_args(argv)
    parent = load_package(args.parent.resolve() / "src" / "asr_inconsistency", PARENT_NAME)

    with tempfile.TemporaryDirectory(prefix="ab_decode-") as tmp:
        for name, make_inputs in workloads.WORKLOADS.items():
            sides = [(parent, []), (asr_inconsistency, [])]
            frames = 0
            for seed in SEEDS:
                inputs = make_inputs(Path(tmp) / f"{name}{seed}", seed)
                frames += inputs.frames
                for pkg, searches in sides:
                    searches += load_searches(pkg, inputs)
            check_equal(name, sides)
            times = [time_round(sides, r % 2) for r in range(ROUNDS)]
            ratios = [a / b for a, b in times]
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            ms = [1e3 * statistics.median(side) / frames for side in zip(*times)]
            print(f"{name}: seeds {' '.join(map(str, SEEDS))}, "
                  f"{len(sides[0][1])} utterances, {frames} frames, beams equal; "
                  f"parent/this median {median:.3f} (IQR {q1:.3f}-{q3:.3f}) "
                  f"over {ROUNDS} rounds; ms/frame parent {ms[0]:.4f}, "
                  f"this {ms[1]:.4f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
