"""Exception types shared across the toolkit.

Everything raised on purpose derives from ToolkitError so callers (and the
CLI) can distinguish toolkit failures from programming errors.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


# --- vocabulary / posterior / manifest / audio loading ---------------------

class VocabularyError(ToolkitError):
    pass


class EmptyVocabularyError(VocabularyError):
    pass


class DuplicateSymbolError(VocabularyError):
    pass


class MissingBlankError(VocabularyError):
    pass


class MissingDelimiterError(VocabularyError):
    pass


class PosteriorFormatError(ToolkitError):
    """Bad magic/version, truncated payload, or unparsable text matrix."""


class DimensionMismatchError(ToolkitError):
    """Posterior column count disagrees with the vocabulary size."""


class NonFiniteEntryError(ToolkitError):
    """A NaN or infinite value where a finite number is required."""


class PositiveLogProbError(ToolkitError):
    pass


class RowNotNormalizedError(ToolkitError):
    """A posterior row does not sum to one in probability space."""


class ManifestFormatError(ToolkitError):
    pass


class DuplicateUtteranceError(ManifestFormatError):
    pass


class NonMonoAudioError(ToolkitError):
    pass


class UnsupportedEncodingError(ToolkitError):
    pass


class TruncatedAudioError(ToolkitError):
    pass


class TranscriptInvariantError(ToolkitError):
    """A transcript word is empty or contains the word delimiter."""


# --- language model ---------------------------------------------------------

class ArpaFormatError(ToolkitError):
    """Malformed ARPA line; message carries the 1-based line number."""


class CountMismatchError(ArpaFormatError):
    pass


class TruncatedModelError(ArpaFormatError):
    pass


class EmptySequenceError(ToolkitError):
    pass


# --- decoding ----------------------------------------------------------------

class EmptyBeamError(ToolkitError):
    """Every hypothesis was pruned to zero probability mass."""


# --- reference generation ----------------------------------------------------

class EmptyReplyError(ToolkitError):
    pass


class TransportError(ToolkitError):
    """HTTP request failed after bounded retries."""


class AuthError(ToolkitError):
    pass


class RateLimitedError(ToolkitError):
    pass


# --- metrics / baselines -----------------------------------------------------

class MissingGroundTruthError(ToolkitError):
    pass


class MissingDurationError(ToolkitError):
    pass


class NonPositiveDurationError(ToolkitError):
    pass


class SilentAudioError(ToolkitError):
    pass


# --- statistics / harness ----------------------------------------------------

class LengthMismatchError(ToolkitError):
    pass


class TooFewValuesError(ToolkitError):
    pass


class DegenerateVarianceError(ToolkitError):
    pass


class NonConvergenceError(ToolkitError):
    """An iterative numeric routine hit its iteration limit."""


class EmptyGroupError(ToolkitError):
    """A score names an utterance that no speaker-time group holds."""


class RatingMismatchError(ToolkitError):
    """Utterances of one speaker-time carry conflicting ratings."""


class PipelineError(ToolkitError):
    """The evaluation run produced no usable utterance at all."""


class RunDirectoryError(ToolkitError):
    """A run directory's per-utterance table is damaged; the message names
    the file and line."""
