"""The outputs of the quick start, `score` and `decode` against the hashes
in data/golden_run.sha256 (see golden.py)."""

import pytest

import golden


@pytest.fixture(scope="module")
def found(synthetic_corpus, quickstart_run, tmp_path_factory):
    return golden.outputs(synthetic_corpus, quickstart_run, tmp_path_factory.mktemp("golden"))


def test_outputs_match_the_golden_run(found):
    problem = golden.first_difference(golden.GOLDEN.read_text(encoding="utf-8"), found)
    assert problem is None, problem


def test_a_difference_is_named_by_file_and_line(found):
    text = golden.render(found)
    lines = found["score.csv"].splitlines(keepends=True)
    lines[2] = lines[2].replace(b",", b";", 1)
    changed = {**found, "score.csv": b"".join(lines)}
    assert golden.first_difference(text, changed) == (
        f"score.csv: line 3 differs, it is now {lines[2]!r}")
    assert golden.first_difference(text, {**found, "extra.txt": b""}) == (
        "extra.txt: written, but not in golden_run.sha256")
    del changed["run/report.txt"]
    assert golden.first_difference(text, changed) == "run/report.txt: not written"
