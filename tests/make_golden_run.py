#!/usr/bin/env python3
"""Rewrite tests/data/golden_run.sha256 from this checkout's outputs.

    python3 tests/make_golden_run.py

It builds the tests' synthetic corpus in a temporary directory, makes
the outputs that tests/golden.py lists with the checkout it sits in, and
writes their hashes. Only a change that means to change the
outputs regenerates the file, and it says which files changed and why.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import golden  # noqa: E402
from asr_inconsistency.synthetic import generate_corpus  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="golden_run-") as tmp:
        work = Path(tmp)
        corpus = generate_corpus(work / "corpus", **golden.CORPUS)
        run_dir = work / "run"
        golden.quickstart_eval(corpus, run_dir)
        found = golden.outputs(corpus, run_dir, work)
    golden.GOLDEN.write_text(golden.render(found), encoding="utf-8")
    print(f"wrote {len(found)} files' hashes to {golden.GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
