import json

from asr_inconsistency.synthetic import main


def test_main_writes_a_corpus_without_audio(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    assert main([str(out_dir), "--speakers", "2", "--utterances", "2",
                 "--no-audio"]) == 0
    assert capsys.readouterr().out == f"wrote 4 utterances under {out_dir}\n"
    lines = (out_dir / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 4
    assert not any("audio_path" in r for r in records)
