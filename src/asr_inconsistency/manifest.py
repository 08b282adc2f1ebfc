"""Dataset manifests: one JSON-Lines record per utterance."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ManifestFormatError


@dataclass(frozen=True)
class UtteranceRecord:
    utterance_id: str
    speaker_id: str
    posterior_path: str
    timepoint_id: str | None = None
    audio_path: str | None = None
    ground_truth_text: str | None = None
    rating: float | None = None
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not self.utterance_id or not self.speaker_id or not self.posterior_path:
            raise ManifestFormatError(
                "utterance_id, speaker_id and posterior_path are required")
        if self.duration_s is not None and self.duration_s <= 0:
            raise ManifestFormatError(
                f"{self.utterance_id}: duration_s must be > 0")

    @property
    def group_key(self) -> tuple[str, str]:
        """Aggregation key: one speaker at one data-collection point."""
        return (self.speaker_id, self.timepoint_id or "")


_STR_FIELDS = ("utterance_id", "speaker_id", "posterior_path", "timepoint_id",
               "audio_path", "ground_truth_text")
_NUM_FIELDS = ("rating", "duration_s")


def load_manifest(path: str | Path) -> list[UtteranceRecord]:
    """Load and validate a manifest, preserving file order."""
    records: list[UtteranceRecord] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fin:
        try:
            lines = fin.readlines()
        except UnicodeDecodeError as exc:
            raise ManifestFormatError(f"{path}: not UTF-8 text") from exc
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestFormatError(f"{path}:{lineno}: {exc}") from exc
            if not isinstance(obj, dict):
                raise ManifestFormatError(f"{path}:{lineno}: record must be an object")
            kwargs: dict = {}
            for key in _STR_FIELDS:
                if key in obj and obj[key] is not None:
                    if not isinstance(obj[key], str):
                        raise ManifestFormatError(
                            f"{path}:{lineno}: {key} must be a string")
                    kwargs[key] = obj[key]
            for key in _NUM_FIELDS:
                if key in obj and obj[key] is not None:
                    if not isinstance(obj[key], (int, float)) or isinstance(obj[key], bool):
                        raise ManifestFormatError(
                            f"{path}:{lineno}: {key} must be a number")
                    try:
                        value = float(obj[key])
                    except OverflowError:
                        raise ManifestFormatError(
                            f"{path}:{lineno}: {key} is too large for a float") from None
                    if not math.isfinite(value):
                        raise ManifestFormatError(
                            f"{path}:{lineno}: {key} must be finite")
                    kwargs[key] = value
            try:
                record = UtteranceRecord(**kwargs)
            except (TypeError, ManifestFormatError) as exc:
                raise ManifestFormatError(f"{path}:{lineno}: {exc}") from exc
            if record.utterance_id in seen:
                raise ManifestFormatError(
                    f"{path}:{lineno}: duplicate utterance_id {record.utterance_id!r}")
            seen.add(record.utterance_id)
            records.append(record)
    return records


def write_manifest(records: list[UtteranceRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fout:
        for rec in records:
            obj = {k: v for k, v in vars(rec).items() if v is not None}
            fout.write(json.dumps(obj, ensure_ascii=False) + "\n")
