"""End-to-end orchestration: candidate generation from predicted sketches and
spans, score fusion and ranking, simplex grid weight tuning, the evaluation
metrics, and system training plus checkpoint persistence."""

from __future__ import annotations

import dataclasses
import itertools
import logging
import os
import re
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from . import genscore, learn, lf, matchers, multitask
from .data import Corpus, EmptyCorpus, Sample
from .genscore import GenMemberConfig, GenModel
from .learn import EncoderParams, LinearHead, Vocab
from .matchers import (
    CooccurrenceConfig,
    CooccurrenceModel,
    MatcherConfig,
    MatcherEnsemble,
    MatcherModel,
    PatternIndex,
)
from .multitask import MultiTaskConfig, MultiTaskModel

logger = logging.getLogger(__name__)


class NoCandidates(Exception):
    """No candidate fits the question; ``parse`` reports it as a diagnostic."""


@dataclass(frozen=True)
class FusionWeights:
    w_pattern: float
    w_pe: float
    w_gen: float

    def __post_init__(self):
        total = self.w_pattern + self.w_pe + self.w_gen
        if min(self.w_pattern, self.w_pe, self.w_gen) < -1e-12 or abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must be a simplex point, got {self}")

    def as_dict(self) -> dict[str, float]:
        return {"w_pattern": self.w_pattern, "w_pe": self.w_pe, "w_gen": self.w_gen}


PATTERN_ONLY = FusionWeights(1.0, 0.0, 0.0)


@dataclass
class Candidate:
    tokens: lf.TokenSeq
    pattern: lf.LfPattern
    entity_fillers: tuple[str, ...]
    freq: int

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass
class ScoredCandidate:
    candidate: Candidate
    pattern_score: float
    pe_score: float
    gen_score: float
    fused: float = 0.0


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

_E_SLOT = re.compile(r"E(\d+)")
_V_SLOT = re.compile(r"V(\d*)")
_T_SLOT = re.compile(r"T(\d*)")
_DELIMITERS = frozenset(("(", ")", lf.TURN_SEPARATOR))


def class_slot_counts(sketch_class: str) -> tuple[int, int, int]:
    """(entity arity, value slots, type slots) read off a sketch-class string."""
    tokens = sketch_class.split()
    e_indices = {int(m.group(1)) for t in tokens if (m := _E_SLOT.fullmatch(t))}
    v_slots = {t for t in tokens if _V_SLOT.fullmatch(t)}
    t_slots = {t for t in tokens if _T_SLOT.fullmatch(t)}
    return (max(e_indices) if e_indices else 0, len(v_slots), len(t_slots))


def assign_spans(
    question_tokens: lf.TokenSeq,
    spans: Sequence[tuple[int, int]],
    sketch_class: str,
) -> tuple[list[str], list[str], list[str], lf.QuestionPattern]:
    """Distribute labeled spans over the slots the sketch class calls for.

    Numeric spans fill value slots; the remaining spans fill entity slots
    first and type slots after, in question order. Returns (entity fillers,
    value fillers, type fillers, question pattern). A span that is a bare
    delimiter ("(", ")" or the turn separator) fills no slot.
    """
    arity, n_values, n_types = class_slot_counts(sketch_class)
    spans = sorted(spans)
    numeric: list[str] = []
    other_spans: list[tuple[int, int]] = []
    for span in spans:
        surface = lf.span_surface(question_tokens, span)
        if surface in _DELIMITERS:
            raise NoCandidates(f"span {list(span)} is the delimiter {surface!r}")
        if lf.is_numeric(surface):
            numeric.append(surface)
        else:
            other_spans.append(span)

    distinct: list[str] = []
    for span in other_spans:
        surface = lf.span_surface(question_tokens, span)
        if surface not in distinct:
            distinct.append(surface)
    if len(distinct) < arity or len(distinct) - arity != n_types:
        raise NoCandidates(
            f"class {sketch_class!r} needs {arity} entity and {n_types} type "
            f"fillers, got {len(distinct)} spans"
        )
    if len(numeric) != n_values:
        raise NoCandidates(
            f"class {sketch_class!r} needs {n_values} value fillers, got {len(numeric)}"
        )
    entity_fillers = distinct[:arity]
    type_fillers = distinct[arity:]
    pseudo_params = [
        lf.ParamAnnotation(surface=lf.span_surface(question_tokens, span), kind="entity", span=span)
        for span in other_spans
        if lf.span_surface(question_tokens, span) in entity_fillers
    ]
    qp = lf.derive_question_pattern(question_tokens, pseudo_params)
    return entity_fillers, numeric, type_fillers, qp


def generate_candidates_from(
    question_tokens: lf.TokenSeq,
    sketch_class: str,
    spans: Sequence[tuple[int, int]],
    index: PatternIndex,
) -> tuple[list[Candidate], lf.QuestionPattern]:
    """Fill every arity-compatible template of the predicted class, slot by
    slot at the positions its index entry recorded."""
    entries = index.patterns(sketch_class)
    if not entries:
        raise NoCandidates(f"no patterns indexed for class {sketch_class!r}")
    entity_fillers, value_fillers, type_fillers, qp = assign_spans(
        question_tokens, spans, sketch_class
    )

    seen: dict[lf.TokenSeq, Candidate] = {}
    for entry in entries:
        template = entry.template
        if template.entity_arity != len(entity_fillers):
            continue
        if len(entry.value_positions) != len(value_fillers):
            continue
        if len(entry.type_positions) != len(type_fillers):
            continue
        tokens = list(template.tokens)
        for pos, k in entry.entity_positions:
            tokens[pos] = entity_fillers[k]
        for pos, filler in zip(entry.value_positions, value_fillers):
            tokens[pos] = filler
        for pos, filler in zip(entry.type_positions, type_fillers):
            tokens[pos] = filler
        key = tuple(tokens)
        if key not in seen:
            seen[key] = Candidate(
                tokens=key,
                pattern=entry.pattern,
                entity_fillers=tuple(entity_fillers),
                freq=entry.freq,
            )
        else:
            seen[key].freq = max(seen[key].freq, entry.freq)
    if not seen:
        raise NoCandidates(f"no template of class {sketch_class!r} fits the labeled spans")
    return list(seen.values()), qp


# ---------------------------------------------------------------------------
# Scoring, ranking, weight tuning
# ---------------------------------------------------------------------------


@dataclass
class ParserSystem:
    multitask: MultiTaskModel
    index: PatternIndex
    matcher: MatcherEnsemble
    cooccurrence: CooccurrenceModel
    gen: GenModel
    weights: FusionWeights
    config: "SystemConfig"


def score_components(
    system: ParserSystem,
    question_tokens: lf.TokenSeq,
    qp: lf.QuestionPattern,
    sketch_class: str,
    candidates: Sequence[Candidate],
) -> list[ScoredCandidate]:
    """Attach the three component scores, each computed for the whole pool;
    fusion happens in rank()."""
    gen = genscore.gen_scores(
        system.gen,
        question_tokens,
        sketch_class,
        genscore.split_pool([c.tokens for c in candidates]),
    )
    pattern = system.matcher.score(qp.tokens, [c.pattern.tokens for c in candidates]).tolist()
    return [
        ScoredCandidate(
            candidate=cand,
            pattern_score=ps,
            pe_score=matchers.score_candidate_pe(
                cand.tokens, cand.entity_fillers, system.cooccurrence
            ),
            gen_score=g,
        )
        for cand, ps, g in zip(candidates, pattern, gen)
    ]


def rank(scored: Sequence[ScoredCandidate], weights: FusionWeights) -> list[ScoredCandidate]:
    """Fuse and sort descending; ties break on pattern frequency then text."""
    fused = [
        replace(
            s,
            fused=weights.w_pattern * s.pattern_score
            + weights.w_pe * s.pe_score
            + weights.w_gen * s.gen_score,
        )
        for s in scored
    ]
    return sorted(fused, key=lambda s: (-s.fused, -s.candidate.freq, s.candidate.text))


@dataclass
class Parse:
    """One question through every stage: the predicted sketch class and spans,
    the fused ranking, and why the ranking is empty when it is."""

    sketch_class: str
    spans: list[tuple[int, int]]
    ranked: list[ScoredCandidate]
    diagnostic: str = ""


def parse(question_tokens: lf.TokenSeq, system: ParserSystem) -> Parse:
    """Classify the sketch, label spans, fill the class's templates, score and rank."""
    model = system.multitask
    probs = multitask.classify_sketch(question_tokens, model)
    sketch_class = model.classes[int(np.argmax(probs))]
    spans = multitask.predict_spans(question_tokens, model)
    try:
        candidates, qp = generate_candidates_from(
            question_tokens, sketch_class, spans, system.index
        )
    except NoCandidates as exc:
        return Parse(sketch_class, spans, [], str(exc))
    scored = score_components(system, question_tokens, qp, sketch_class, candidates)
    return Parse(sketch_class, spans, rank(scored, system.weights))


def grid_points(step: float = 0.05) -> list[FusionWeights]:
    """Every simplex lattice point with the given spacing (231 at step 0.05)."""
    n = round(1.0 / step)
    points = []
    for i in range(n + 1):
        for j in range(n - i + 1):
            points.append(FusionWeights(i / n, j / n, (n - i - j) / n))
    return points


def tune_weights(
    dev_packs: Sequence[tuple[lf.TokenSeq, Sequence[tuple[lf.TokenSeq, float, float, float, int]]]],
) -> FusionWeights:
    """Exhaustive search of the 231-point simplex grid maximizing dev exact match.

    Ties prefer larger w_pattern, then larger w_pe, so the pattern-only corner
    wins when every weighting is equivalent. Each pack is scored at every grid
    point at once and picks the same top candidate as ``rank``.
    """
    if not dev_packs:
        raise EmptyCorpus("cannot tune fusion weights without scored dev samples")
    points = grid_points()
    w = np.array([[p.w_pattern, p.w_pe, p.w_gen] for p in points])
    hits = np.zeros(len(points), dtype=np.int64)
    for gold, pack in dev_packs:
        if not pack:
            continue
        # argmax takes the first maximum, so order ties as rank does.
        ordered = sorted(pack, key=lambda c: (-c[4], " ".join(c[0])))
        scores = np.array([c[1:4] for c in ordered], dtype=np.float64)
        # Elementwise in rank's order, so the fused floats are equal.
        fused = w[:, :1] * scores[:, 0] + w[:, 1:2] * scores[:, 1] + w[:, 2:] * scores[:, 2]
        is_gold = np.array([c[0] == gold for c in ordered])
        hits += is_gold[fused.argmax(axis=1)]
    best = max(range(len(points)), key=lambda k: (hits[k], points[k].w_pattern, points[k].w_pe))
    return points[best]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


@dataclass
class SampleOutcome:
    gold_class: str
    pred_class: str
    gold_spans: list[tuple[int, int]]
    pred_spans: list[tuple[int, int]]
    gold_lf: lf.TokenSeq
    pred_lf: lf.TokenSeq | None
    gold_generated: bool = False
    in_inventory: bool = True
    no_candidates: bool = False

    @property
    def sketch_ok(self) -> bool:
        return self.pred_class == self.gold_class

    @property
    def entities_ok(self) -> bool:
        return self.pred_spans == self.gold_spans

    @property
    def lf_ok(self) -> bool:
        return self.pred_lf is not None and self.pred_lf == self.gold_lf


def _f1_by_class(outcomes: Sequence[SampleOutcome]) -> dict[str, float]:
    tp: dict[str, int] = {}
    fp: dict[str, int] = {}
    fn: dict[str, int] = {}
    for o in outcomes:
        if o.sketch_ok:
            tp[o.gold_class] = tp.get(o.gold_class, 0) + 1
        else:
            fn[o.gold_class] = fn.get(o.gold_class, 0) + 1
            fp[o.pred_class] = fp.get(o.pred_class, 0) + 1
    scores = {}
    for cls in {o.gold_class for o in outcomes}:
        t = tp.get(cls, 0)
        precision = t / (t + fp.get(cls, 0)) if t + fp.get(cls, 0) else 0.0
        recall = t / (t + fn.get(cls, 0)) if t + fn.get(cls, 0) else 0.0
        scores[cls] = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return scores


def classify_error(outcome: SampleOutcome) -> str | None:
    """Error taxonomy for a wrong sample: sketch, entities, order or predicate."""
    if outcome.lf_ok:
        return None
    if not outcome.sketch_ok:
        return "wrong_sketch"
    if not outcome.entities_ok:
        return "wrong_entities"
    if outcome.pred_lf is not None and sorted(outcome.pred_lf) == sorted(outcome.gold_lf):
        return "wrong_order"
    return "wrong_predicate"


def compute_metrics(outcomes: Sequence[SampleOutcome]) -> dict:
    """Err_s (1 - F1), Err_e, Err_m and Err_l per class and sample-weighted overall."""
    if not outcomes:
        return {"overall": {}, "per_class": {}, "taxonomy": {}, "counts": {}}
    f1 = _f1_by_class(outcomes)
    per_class: dict[str, dict[str, float]] = {}
    classes = sorted({o.gold_class for o in outcomes})
    n_total = len(outcomes)
    overall = {"err_s": 0.0, "err_e": 0.0, "err_m": 0.0, "err_l": 0.0}
    for cls in classes:
        members = [o for o in outcomes if o.gold_class == cls]
        n = len(members)
        row = {
            "count": n,
            "err_s": 1.0 - f1[cls],
            "err_e": sum(not o.entities_ok for o in members) / n,
            "err_m": sum(not (o.sketch_ok and o.entities_ok) for o in members) / n,
            "err_l": sum(not o.lf_ok for o in members) / n,
        }
        per_class[cls] = row
        for key in overall:
            overall[key] += row[key] * n / n_total

    taxonomy: dict[str, int] = {
        "wrong_sketch": 0,
        "wrong_entities": 0,
        "wrong_order": 0,
        "wrong_predicate": 0,
    }
    exchangeable = 0
    for o in outcomes:
        bucket = classify_error(o)
        if bucket:
            taxonomy[bucket] += 1
            if bucket == "wrong_order" and "or" in o.gold_class.split():
                exchangeable += 1
    taxonomy["exchangeable_near_miss"] = exchangeable

    return {
        "overall": overall,
        "per_class": per_class,
        "taxonomy": taxonomy,
        "counts": {
            "samples": n_total,
            "exact_match": sum(o.lf_ok for o in outcomes),
            "gold_candidate_generated": sum(o.gold_generated for o in outcomes),
            "no_candidates": sum(o.no_candidates for o in outcomes),
            "inventory_misses": sum(not o.in_inventory for o in outcomes),
        },
        "gold_candidate_rate": sum(o.gold_generated for o in outcomes) / n_total,
    }


def analyze_sample(system: ParserSystem, sample: Sample) -> SampleOutcome:
    """Full prediction for one sample, recorded for metric aggregation."""
    result = parse(sample.question_tokens, system)
    return SampleOutcome(
        gold_class=sample.sketch_class,
        pred_class=result.sketch_class,
        gold_spans=sample.sorted_spans(),
        pred_spans=result.spans,
        gold_lf=sample.lf.tokens,
        pred_lf=result.ranked[0].candidate.tokens if result.ranked else None,
        gold_generated=any(s.candidate.tokens == sample.lf.tokens for s in result.ranked),
        in_inventory=sample.sketch_class in system.multitask.classes,
        no_candidates=not result.ranked,
    )


def evaluate(corpus: Corpus, system: ParserSystem) -> dict:
    """MetricsReport plus the error taxonomy and pattern-coverage statistic."""
    outcomes = [analyze_sample(system, sample) for sample in corpus]
    report = compute_metrics(outcomes)
    report["pattern_coverage"] = system.index.coverage(corpus)
    report["fusion_weights"] = system.weights.as_dict()
    report["split"] = corpus.split
    return report


def predict(question: str, system: ParserSystem) -> str:
    """Top-ranked logical form for a raw question, or "" when nothing fits."""
    result = predict_detailed(question, system)
    return result["predicted_logical_form"]


def predict_detailed(question: str, system: ParserSystem) -> dict:
    """The ranked candidates with their scores, or an empty prediction with a
    diagnostic when the question is blank or no candidate fits."""
    try:
        tokens = lf.tokenize_question(question)
    except lf.EmptyInput as exc:
        result = Parse("", [], [], str(exc))
    else:
        result = parse(tokens, system)
    detail = {
        "predicted_logical_form": result.ranked[0].candidate.text if result.ranked else "",
        "sketch_class": result.sketch_class,
        "spans": [list(span) for span in result.spans],
        "candidates": [
            {
                "logical_form": s.candidate.text,
                "pattern_score": s.pattern_score,
                "pe_score": s.pe_score,
                "gen_score": s.gen_score,
                "fused": s.fused,
            }
            for s in result.ranked
        ],
    }
    if not result.ranked:
        detail["diagnostic"] = result.diagnostic
    return detail


# ---------------------------------------------------------------------------
# System training and persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    multitask: MultiTaskConfig = MultiTaskConfig()
    matcher: MatcherConfig = MatcherConfig()
    cooccurrence: CooccurrenceConfig = CooccurrenceConfig()


def _dev_packs(system: ParserSystem, dev: Corpus):
    """Each dev sample's gold form with its scored candidates, as tune_weights reads them."""
    return [
        (
            sample.lf.tokens,
            [
                (s.candidate.tokens, s.pattern_score, s.pe_score, s.gen_score, s.candidate.freq)
                for s in parse(sample.question_tokens, system).ranked
            ],
        )
        for sample in dev
    ]


def train_system(train: Corpus, dev: Corpus, cfg: SystemConfig | None = None) -> ParserSystem:
    """Fit every stage on train, then tune fusion weights on dev."""
    cfg = cfg or SystemConfig()
    if not train.samples:
        raise EmptyCorpus("cannot train a system on an empty corpus")
    logger.info("training multitask model on %d samples", len(train.samples))
    mt = multitask.train_multitask(train, dev, cfg.multitask)
    index = matchers.build_pattern_index(train)
    logger.info("pattern index: %d entries", index.size())
    matcher = matchers.train_matcher_ensemble(train, index, cfg.matcher)
    cooccurrence = matchers.build_cooccurrence(train, cfg.cooccurrence)
    gen = genscore.fit_genmodel(train)
    system = ParserSystem(
        multitask=mt,
        index=index,
        matcher=matcher,
        cooccurrence=cooccurrence,
        gen=gen,
        weights=PATTERN_ONLY,
        config=cfg,
    )
    if dev.samples:
        system.weights = tune_weights(_dev_packs(system, dev))
        logger.info("tuned fusion weights: %s", system.weights)
    return system


MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"
PATTERNS_NAME = "patterns.json"
COOCCUR_NAME = "cooccurrence.json"
GENMODEL_NAME = "genmodel.json"


CHECKPOINT_FILES = (MANIFEST_NAME, ARRAYS_NAME, PATTERNS_NAME, COOCCUR_NAME, GENMODEL_NAME)


def save_system(system: ParserSystem, model_dir: str | Path) -> None:
    """Write the checkpoint into a temporary sibling directory, then rename
    it into place, so that a save that fails or is killed while writing
    leaves the old checkpoint as it was. An existing ``model_dir`` is
    replaced whole, so it may hold only checkpoint files."""
    model_dir = Path(model_dir).resolve()
    if model_dir.is_dir():
        foreign = sorted(p.name for p in model_dir.iterdir() if p.name not in CHECKPOINT_FILES)
        if foreign:
            raise learn.CheckpointError(
                f"{model_dir} holds files that are not part of a checkpoint: {', '.join(foreign)}"
            )
    # Named, not mkdtemp'd, so the directory gets the umask's permissions.
    staging = model_dir.with_name(f".{model_dir.name}.{os.urandom(6).hex()}.partial")
    staging.mkdir(parents=True)
    try:
        _write_checkpoint(system, staging)
        if model_dir.is_dir():
            # Between these two renames the old checkpoint sits under the
            # retired name, complete.
            retired = staging.with_name(staging.name + ".old")
            os.replace(model_dir, retired)
            os.replace(staging, model_dir)
            shutil.rmtree(retired)
        else:
            os.replace(staging, model_dir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _write_checkpoint(system: ParserSystem, model_dir: Path) -> None:
    manifest = {
        "format_version": learn.CHECKPOINT_VERSION,
        "classes": system.multitask.classes,
        "mt_vocab": system.multitask.vocab.tokens,
        "matcher_vocab": system.matcher.members[0].vocab.tokens,
        "matcher_members": len(system.matcher.members),
        "fusion_weights": system.weights.as_dict(),
        "config": dataclasses.asdict(system.config),
    }
    learn.save_json(model_dir / MANIFEST_NAME, manifest)

    arrays: dict[str, np.ndarray] = {
        f"mt.{k}": v for k, v in system.multitask.params().items()
    }
    for i, member in enumerate(system.matcher.members):
        for k, v in member.params().items():
            arrays[f"matcher.{i}.{k}"] = v
    arrays["pe.head_w"] = system.cooccurrence.head.weight
    arrays["pe.head_b"] = system.cooccurrence.head.bias
    learn.save_arrays(model_dir / ARRAYS_NAME, arrays)

    learn.save_json(
        model_dir / PATTERNS_NAME,
        {
            cls: [
                {
                    "pattern": list(e.pattern.tokens),
                    "template": list(e.template.tokens),
                    "arity": e.template.entity_arity,
                    "freq": e.freq,
                }
                for e in entries
            ]
            for cls, entries in system.index.by_class.items()
        },
    )
    learn.save_json(
        model_dir / COOCCUR_NAME,
        {
            "pairs": [
                [pred, ent, count]
                for (pred, ent), count in sorted(system.cooccurrence.pair_counts.items())
            ],
            "pred_counts": dict(sorted(system.cooccurrence.pred_counts.items())),
            "ent_counts": dict(sorted(system.cooccurrence.ent_counts.items())),
        },
    )
    learn.save_json(
        model_dir / GENMODEL_NAME,
        {
            "members": [[m.lam, m.alpha] for m in system.gen.members],
            "classes": {
                cls: {
                    "vocab": list(stats.vocab),
                    "bigram": {
                        prev: dict(sorted(row.items()))
                        for prev, row in sorted(stats.bigram.items())
                    },
                }
                for cls, stats in sorted(system.gen.class_stats.items())
            },
        },
    )


_CONFIG_BLOCKS = {
    "multitask": MultiTaskConfig, "matcher": MatcherConfig, "cooccurrence": CooccurrenceConfig
}
# The JSON shape of each file load_system reads. A shape is a scalar type,
# list[S], dict[str, S], tuple[S1, ..., Sn] (a list of n items) or
# {key: S, ...} (an object with exactly those keys).
_MANIFEST_SHAPE = {
    "format_version": int,
    "classes": list[str],
    "mt_vocab": list[str],
    "matcher_vocab": list[str],
    "matcher_members": int,
    "fusion_weights": dict.fromkeys(PATTERN_ONLY.as_dict(), float),
    "config": {name: get_type_hints(cls) for name, cls in _CONFIG_BLOCKS.items()},
}
_PATTERNS_SHAPE = dict[
    str, list[{"pattern": list[str], "template": list[str], "arity": int, "freq": int}]
]
_COOCCUR_SHAPE = {
    "pairs": list[tuple[str, str, int]], "pred_counts": dict[str, int], "ent_counts": dict[str, int]
}
_GENMODEL_SHAPE = {
    "members": list[tuple[float, float]],
    "classes": dict[str, {"vocab": list[str], "bigram": dict[str, dict[str, int]]}],
}


def _scalars_are(values: list, kind: type) -> bool:
    """Whether every value is a ``kind`` (str, int or float; a JSON number
    passes as a float and ``true``/``false`` as 0/1), tested in one pass in C by
    joining or summing them."""
    try:
        if kind is str:
            "".join(values)
            return True
        return type(sum(values, kind())) is kind  # a float makes an int sum a float
    except TypeError:  # a value of another type
        return False


def _check_shape(values: list, shape, path: Path, where: str) -> None:
    """Raise CheckpointError naming the file and ``where`` unless every one of
    ``values`` has the JSON shape ``shape``. Each level of the shape is checked
    in one pass over all of its values, run in C."""
    record = isinstance(shape, dict)
    origin = dict if record else getattr(shape, "__origin__", None)
    if origin is None:
        if not _scalars_are(values, shape):
            raise learn.CheckpointError(f"{path}: {where} must be {shape.__name__}")
        return
    if origin is not tuple and not set(map(type, values)) <= {dict if origin is dict else list}:
        what = "an object" if origin is dict else "a list"
        raise learn.CheckpointError(f"{path}: {where} must be {what}")
    entries = where if where.startswith("an entry of") else f"an entry of {where}"
    if record:
        for value in values:
            if value.keys() != shape.keys():
                raise learn.CheckpointError(
                    f"{path}: {where} has the keys {sorted(value)}, not {sorted(shape)}"
                )
        for key, sub in shape.items():
            _check_shape(list(map(dict.get, values, itertools.repeat(key))), sub, path, repr(key))
    elif origin is dict:
        items = itertools.chain.from_iterable(map(dict.values, values))
        _check_shape(list(items), shape.__args__[1], path, entries)
    elif origin is list:
        _check_shape(list(itertools.chain.from_iterable(values)), shape.__args__[0], path, entries)
    else:
        # The strict zip stops at rows of unequal length or rows that are not
        # sequences. A string or object row gives strings, which the checks
        # below reject, as every tuple shape here holds a number.
        try:
            columns = list(zip(*values, strict=True))
        except (TypeError, ValueError):
            columns = []
        if values and len(columns) != len(shape.__args__):
            raise learn.CheckpointError(f"{path}: {where} must be a list of {len(shape.__args__)}")
        for column, sub in zip(columns, shape.__args__):
            _check_shape(column, sub, path, entries)


def _config_from_dict(raw: dict) -> SystemConfig:
    mt = dict(raw["multitask"])
    mt["loss_weights"] = tuple(mt["loss_weights"])
    return SystemConfig(
        multitask=MultiTaskConfig(**mt),
        matcher=MatcherConfig(**raw["matcher"]),
        cooccurrence=CooccurrenceConfig(**raw["cooccurrence"]),
    )


def _expected_shapes(manifest: dict, cfg: SystemConfig) -> dict[str, tuple[int, ...]]:
    """Every array a system with this manifest reads, with its shape."""
    h, w = cfg.multitask.hidden, cfg.multitask.window
    n_classes, n_labels = len(manifest["classes"]), len(multitask.LABELS)
    shapes = {
        "mt.embedding": (len(manifest["mt_vocab"]), h),
        "mt.cls_w": (n_classes, h),
        "mt.cls_b": (n_classes,),
        "mt.emit_w": (n_labels, (2 * w + 1) * h),
        "mt.emit_b": (n_labels,),
        "mt.trans": (n_labels, n_labels),
        "pe.head_w": (2, 5),
        "pe.head_b": (2,),
    }
    hm = cfg.matcher.hidden
    for i in range(manifest["matcher_members"]):
        shapes[f"matcher.{i}.embedding"] = (len(manifest["matcher_vocab"]), hm)
        shapes[f"matcher.{i}.head_w"] = (2, 4 * hm)
        shapes[f"matcher.{i}.head_b"] = (2,)
    return shapes


def _check_manifest(manifest: object, path: Path) -> SystemConfig:
    """The manifest's config, once its version and shape are what this code
    writes; raises CheckpointError otherwise."""
    if not isinstance(manifest, dict):
        raise learn.CheckpointError(f"{path}: not a JSON object")
    version = manifest.get("format_version")
    if version != learn.CHECKPOINT_VERSION:
        raise learn.UnsupportedCheckpoint(
            f"{path}: format_version {version!r}, this version reads {learn.CHECKPOINT_VERSION}"
        )
    _check_shape([manifest], _MANIFEST_SHAPE, path, "the top level")
    members = manifest["matcher_members"]
    if members < 1:
        raise learn.CheckpointError(f"{path}: matcher_members must be positive, got {members}")
    return _config_from_dict(manifest["config"])


def _check_arrays(
    arrays: dict[str, np.ndarray], expected: dict[str, tuple[int, ...]], path: Path
) -> None:
    """Raise CheckpointError unless ``arrays`` holds exactly the expected
    names, each with its shape. Compares shapes only, never the data."""
    for name, shape in expected.items():
        if name not in arrays:
            raise learn.CheckpointError(f"{path}: lacks {name!r}")
        if arrays[name].shape != shape:
            raise learn.CheckpointError(
                f"{path}: {name!r} has shape {arrays[name].shape}, the manifest implies {shape}"
            )
    extra = sorted(set(arrays) - set(expected))
    if extra:
        raise learn.CheckpointError(f"{path}: holds {extra}, which the manifest does not name")


def load_system(model_dir: str | Path) -> ParserSystem:
    """Rebuild a saved system. Raises CheckpointError when the directory's
    files disagree with each other or a JSON file is not of its shape; the
    manifest and arrays are checked before anything is built."""
    model_dir = Path(model_dir)
    manifest = learn.load_json(model_dir / MANIFEST_NAME)
    cfg = _check_manifest(manifest, model_dir / MANIFEST_NAME)
    arrays = learn.load_arrays(model_dir / ARRAYS_NAME)
    _check_arrays(arrays, _expected_shapes(manifest, cfg), model_dir / ARRAYS_NAME)

    mt_vocab = Vocab(tokens=list(manifest["mt_vocab"]))
    mt = MultiTaskModel(
        vocab=mt_vocab,
        encoder=EncoderParams(
            embedding=arrays["mt.embedding"], window=cfg.multitask.window
        ),
        cls=LinearHead(arrays["mt.cls_w"], arrays["mt.cls_b"]),
        emit=LinearHead(arrays["mt.emit_w"], arrays["mt.emit_b"]),
        trans=arrays["mt.trans"],
        classes=list(manifest["classes"]),
        config=cfg.multitask,
    )

    matcher_vocab = Vocab(tokens=list(manifest["matcher_vocab"]))
    members = []
    for i in range(manifest["matcher_members"]):
        members.append(
            MatcherModel(
                vocab=matcher_vocab,
                encoder=EncoderParams(embedding=arrays[f"matcher.{i}.embedding"], window=0),
                head=LinearHead(arrays[f"matcher.{i}.head_w"], arrays[f"matcher.{i}.head_b"]),
            )
        )

    patterns_raw = learn.load_json(model_dir / PATTERNS_NAME)
    _check_shape([patterns_raw], _PATTERNS_SHAPE, model_dir / PATTERNS_NAME, "the top level")
    index = PatternIndex()
    for cls, entries in patterns_raw.items():
        index.by_class[cls] = [
            matchers.PatternEntry(
                pattern=lf.LfPattern(tuple(e["pattern"])),
                template=lf.LfTemplate(tuple(e["template"]), e["arity"]),
                freq=e["freq"],
            )
            for e in entries
        ]

    co_raw = learn.load_json(model_dir / COOCCUR_NAME)
    _check_shape([co_raw], _COOCCUR_SHAPE, model_dir / COOCCUR_NAME, "the top level")
    cooccurrence = CooccurrenceModel(
        pair_counts={(p, e): c for p, e, c in co_raw["pairs"]},
        pred_counts=co_raw["pred_counts"],
        ent_counts=co_raw["ent_counts"],
        head=LinearHead(arrays["pe.head_w"], arrays["pe.head_b"]),
    )

    gen_raw = learn.load_json(model_dir / GENMODEL_NAME)
    _check_shape([gen_raw], _GENMODEL_SHAPE, model_dir / GENMODEL_NAME, "the top level")
    class_stats = {}
    for cls, payload in gen_raw["classes"].items():
        stats = genscore.ClassStats(
            bigram=payload["bigram"],
            vocab=dict.fromkeys(payload["vocab"]),
        )
        class_stats[cls] = stats
    gen = GenModel(
        class_stats=class_stats,
        members=tuple(GenMemberConfig(lam, alpha) for lam, alpha in gen_raw["members"]),
    )

    weights = FusionWeights(**manifest["fusion_weights"])
    return ParserSystem(
        multitask=mt,
        index=index,
        matcher=MatcherEnsemble(members=members),
        cooccurrence=cooccurrence,
        gen=gen,
        weights=weights,
        config=cfg,
    )
