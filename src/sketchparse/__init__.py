"""Coarse-to-fine sketch-based semantic parser.

Questions are parsed in three stages: a joint model predicts the logical-form
sketch and labels parameter spans, same-class pattern matching picks the
predicate and entity order, and a fused score over pattern, co-occurrence and
generation-loss signals reranks the assembled candidates.
"""

from .data import (
    Corpus,
    GenConfig,
    Sample,
    generate_synthetic,
    load_jsonl,
    load_mspars_text,
    save_jsonl,
    split,
)
from .genscore import fit_genmodel, normalize_losses, seq_loss, split_logical_form
from .lf import (
    LfPattern,
    LfTemplate,
    LogicalForm,
    ParamAnnotation,
    QuestionPattern,
    Sketch,
    derive_lf_pattern,
    derive_question_pattern,
    derive_template,
    extract_sketch,
    parse_logical_form,
    tokenize,
    tokenize_question,
)
from .matchers import (
    build_cooccurrence,
    build_pattern_index,
    score_candidate_pe,
    score_pair,
    train_matcher_ensemble,
)
from .multitask import (
    classify_sketch,
    extract_entities,
    train_multitask,
    viterbi,
)
from .pipeline import (
    FusionWeights,
    ParserSystem,
    SystemConfig,
    evaluate,
    load_system,
    parse,
    predict,
    rank,
    save_system,
    train_system,
    tune_weights,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "FusionWeights",
    "GenConfig",
    "LfPattern",
    "LfTemplate",
    "LogicalForm",
    "ParamAnnotation",
    "ParserSystem",
    "QuestionPattern",
    "Sample",
    "Sketch",
    "SystemConfig",
    "build_cooccurrence",
    "build_pattern_index",
    "classify_sketch",
    "derive_lf_pattern",
    "derive_question_pattern",
    "derive_template",
    "evaluate",
    "extract_entities",
    "extract_sketch",
    "fit_genmodel",
    "generate_synthetic",
    "load_jsonl",
    "load_mspars_text",
    "load_system",
    "normalize_losses",
    "parse",
    "parse_logical_form",
    "predict",
    "rank",
    "save_jsonl",
    "save_system",
    "score_candidate_pe",
    "score_pair",
    "seq_loss",
    "split",
    "split_logical_form",
    "tokenize",
    "tokenize_question",
    "train_matcher_ensemble",
    "train_multitask",
    "train_system",
    "tune_weights",
    "viterbi",
]
