"""Exception types shared across the toolkit.

Everything raised on purpose derives from ToolkitError so callers (and the
CLI) can distinguish toolkit failures from programming errors. Each kind of
input a user has to fix has one class, and the message says what is wrong
with it. AuthError is the one class the harness treats apart: it quarantines
any other failure in the utterance it occurred in, but a rejected key fails
every request alike, so an AuthError stops the run.
"""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class VocabularyError(ToolkitError):
    """Empty, duplicate or missing reserved symbols, or an unreadable file."""


class PosteriorFormatError(ToolkitError):
    """An unreadable posterior file, or a matrix that is not row-normalized
    finite log-probabilities over the vocabulary."""


class ManifestFormatError(ToolkitError):
    """A malformed manifest record, a repeated utterance, or conflicting
    ratings within one speaker-time."""


class AudioError(ToolkitError):
    """A WAV file that is not mono 16-bit PCM, is truncated, or is silent."""


class TranscriptInvariantError(ToolkitError):
    """A transcript word is empty or contains the word delimiter."""


class ArpaFormatError(ToolkitError):
    """Malformed ARPA text; the message names the file and line."""


class EmptyBeamError(ToolkitError):
    """Every hypothesis was pruned to zero probability mass."""


class EmptyReplyError(ToolkitError):
    """The correction endpoint answered with an empty reply."""


class TransportError(ToolkitError):
    """HTTP request failed, or was rate limited, after bounded retries."""


class AuthError(ToolkitError):
    """The endpoint rejected the key, or the endpoint is not configured."""


class MissingInputError(ToolkitError):
    """An utterance lacks the ground truth, duration or audio a method reads."""


class StatisticsError(ToolkitError):
    """Values that cannot be correlated or summarized: too few, unequal in
    number, non-finite or without variance, or a quantile that did not
    converge."""


class PipelineError(ToolkitError):
    """The run cannot be scored or aggregated as a whole."""


class RunDirectoryError(ToolkitError):
    """A run directory's per-utterance table is damaged; the message names
    the file and line."""
