"""Reference-free, explainable speech intelligibility scoring.

The toolkit decodes CTC posterior matrices two ways, an acoustic-driven
greedy pass and a language-model-informed reference pass, and scores their
word-level disagreement (the inconsistency score) against perceptual
ratings alongside confounder baselines.
"""

from .audio import AudioBuffer, read_wav, write_wav
from .baselines import speech_rate, wada_snr
from .decoder import (
    DecodedBeam,
    DecoderConfig,
    RawPath,
    beam_search_decode,
    collapse,
    decode_beams,
    fused_score,
    greedy_decode,
)
from .harness import (
    EvalConfig,
    LlmSpec,
    PipelineResult,
    ReportTable,
    RunResult,
    SpeakerScore,
    aggregate_speaker,
    build_report,
    correlate,
    llm_accuracy_report,
    run_pipeline,
)
from .manifest import UtteranceRecord, load_manifest, write_manifest
from .metrics import (
    EditAlignment,
    EditOp,
    ScoreRecord,
    align_words,
    diff_report,
    inconsistency_score,
    reference_wer,
    render_diff,
    wer,
)
from .ngram import NGramModel, load_arpa, parse_arpa, write_arpa
from .posteriors import PosteriorMatrix, load_posteriors, write_posteriors
from .refgen import (
    CorrectionRequest,
    CorrectionResult,
    HttpChatClient,
    MockCorrector,
    build_prompt,
    correct_with_llm,
    extract_bracketed,
)
from .stats import mean_ci, pearson, two_sample_t
from .transcript import Transcript, normalize_text
from .vocab import Vocabulary, load_vocabulary

__version__ = "0.1.0"
