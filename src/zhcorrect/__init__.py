"""Toolkit for Chinese text correction experiments: deterministic
alignment and edit extraction, sentence- and edit-level scorers, a
count-based noisy-channel corrector with two-stage training, and batch
commands around them."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FormatError,
    NormalizationError,
    StructuralError,
    UsageError,
    ZhcorrectError,
)
from .textnorm import NormalizePolicy, units_of
from .corpus import (
    Corpus,
    ParallelPair,
    parse_parallel,
    split,
)
from .alignment import align
from .edits import (
    Edit,
    EditKind,
    EditSet,
    GoldRecord,
    MatchCounts,
    MergePolicy,
    apply_edits,
    extract_edits,
    format_edit_records,
    match_edits,
    parse_edit_file,
)
from .metrics import (
    ScoreReport,
    f_beta,
    macro_average,
    precision_recall,
    score_cgc,
    score_csc,
    sentence_edit_counts,
)
from .model import (
    BOUNDARY,
    DEFAULT_MIX_GRID,
    UNK,
    ConfusionChannel,
    MixtureCorrectorModel,
    NgramLM,
    Stage,
    conditional,
    dataset_objective,
    decode,
    fit_stage,
    initial_model,
    load_model,
    save_model,
    stage_heldout,
)

__all__ = [
    "__version__",
    "ZhcorrectError", "NormalizationError", "FormatError", "ConfigError",
    "UsageError", "StructuralError",
    "NormalizePolicy", "units_of",
    "Corpus", "ParallelPair",
    "parse_parallel", "split",
    "align",
    "Edit", "EditKind", "EditSet", "MergePolicy", "MatchCounts",
    "GoldRecord", "extract_edits", "apply_edits", "match_edits",
    "format_edit_records", "parse_edit_file",
    "ScoreReport",
    "f_beta", "precision_recall", "macro_average",
    "score_csc", "score_cgc", "sentence_edit_counts",
    "BOUNDARY", "UNK", "DEFAULT_MIX_GRID",
    "NgramLM", "ConfusionChannel", "MixtureCorrectorModel",
    "Stage",
    "initial_model", "conditional", "dataset_objective",
    "fit_stage", "stage_heldout", "decode", "save_model", "load_model",
]
