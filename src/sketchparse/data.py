"""Corpus containers, JSONL and tagged-text loaders, and a seeded generator
of synthetic question/logical-form pairs shaped like the desk-scale task."""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

from . import lf
from .lf import LogicalForm, ParamAnnotation, TokenSeq


class CorpusError(Exception):
    pass


class ParseError(CorpusError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SpanOutOfRange(CorpusError):
    pass


class MalformedBlock(CorpusError):
    def __init__(self, block: int, message: str):
        super().__init__(f"block {block}: {message}")
        self.block = block


class BadRatios(CorpusError):
    pass


class EmptyCorpus(CorpusError):
    pass


@dataclass
class Sample:
    question: str
    logical_form: str
    params: list[ParamAnnotation]
    question_type: str
    sketch_class: str = ""

    @cached_property
    def question_tokens(self) -> TokenSeq:
        return lf.tokenize_question(self.question)

    @cached_property
    def lf(self) -> LogicalForm:
        return lf.parse_logical_form(self.logical_form)

    @cached_property
    def entity_order(self) -> dict[str, int]:
        return lf.question_entity_order(self.params)

    def sorted_spans(self) -> list[tuple[int, int]]:
        return sorted(p.span for p in self.params)


@dataclass
class Corpus:
    samples: list[Sample]
    split: str = "train"

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Sample]:
        return iter(self.samples)

    def classes(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self.samples:
            seen.setdefault(s.sketch_class, None)
        return sorted(seen)


def make_sample(
    question: str,
    logical_form: str,
    params: Sequence[ParamAnnotation],
    question_type: str,
) -> Sample:
    """Validate one record and assign its sketch class."""
    tokens = lf.tokenize_question(question)
    for p in params:
        if p.span[1] >= len(tokens):
            raise SpanOutOfRange(
                f"span {list(p.span)} outside question of {len(tokens)} tokens"
            )
        joined = lf.span_surface(tokens, p.span)
        if joined != p.surface:
            raise SpanOutOfRange(
                f"span {list(p.span)} reads {joined!r}, annotation says {p.surface!r}"
            )
    form = lf.parse_logical_form(logical_form)
    sketch = lf.extract_sketch(form, params)
    return Sample(
        question=question,
        logical_form=logical_form,
        params=list(params),
        question_type=question_type,
        sketch_class=sketch.text,
    )


def _params_from_json(raw: object) -> list[ParamAnnotation]:
    params = []
    for entry in raw or []:
        params.append(
            ParamAnnotation(
                surface=entry["surface"],
                kind=entry["kind"],
                span=(int(entry["span"][0]), int(entry["span"][1])),
            )
        )
    return params


def json_record(text: str, line: int, string_fields: Sequence[str]) -> dict:
    """One JSONL line decoded as an object whose ``string_fields`` are strings."""
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(line, f"bad JSON ({exc.msg})") from None
    if not isinstance(record, dict):
        raise ParseError(line, f"expected a JSON object, got {type(record).__name__}")
    for name in string_fields:
        if name not in record:
            raise ParseError(line, f"record lacks a {name} field")
        if not isinstance(record[name], str):
            raise ParseError(line, f"{name} must be a string, got {type(record[name]).__name__}")
    return record


def read_sample(text: str, line: int = 1) -> Sample:
    """One JSONL record (question / logical_form / parameters / question_type)
    as a validated sample; raises ParseError or SpanOutOfRange."""
    record = json_record(text, line, ("question", "logical_form"))
    try:
        return make_sample(
            question=record["question"],
            logical_form=record["logical_form"],
            params=_params_from_json(record.get("parameters")),
            question_type=record.get("question_type", ""),
        )
    except SpanOutOfRange:
        raise
    except (KeyError, TypeError, ValueError, lf.LfError) as exc:
        raise ParseError(line, str(exc)) from None


def load_jsonl(path: str | Path, split: str = "train") -> Corpus:
    """Read one ``read_sample`` record per non-blank line."""
    samples: list[Sample] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line:
                samples.append(read_sample(line, lineno))
    return Corpus(samples=samples, split=split)


def sample_to_record(sample: Sample) -> dict:
    return {
        "question": sample.question,
        "logical_form": sample.logical_form,
        "parameters": [
            {"surface": p.surface, "kind": p.kind, "span": [p.span[0], p.span[1]]}
            for p in sample.params
        ],
        "question_type": sample.question_type,
    }


def save_jsonl(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in corpus.samples:
            handle.write(json.dumps(sample_to_record(sample), ensure_ascii=False))
            handle.write("\n")


_TAG_RE = re.compile(
    r"^<(question type|question|logical form|parameters)(?:\s+[^>]*)?>\s*(.*)$"
)
_PREFIX_RE = re.compile(r"^(question type|question|logical form|parameters)\s*:\s*(.*)$")
_PARAM_RE = re.compile(r"^(.*?)\s*\((entity|value|type)\)\s*\[(\d+)\s*,\s*(\d+)\]$")
_FIELDS = ("question", "logical form", "parameters", "question type")


def _parse_tagged_line(line: str) -> tuple[str, str] | None:
    m = _TAG_RE.match(line) or _PREFIX_RE.match(line)
    if not m:
        return None
    return m.group(1), m.group(2).strip()


def _parse_param_field(text: str, block: int) -> list[ParamAnnotation]:
    text = text.strip()
    if not text or text in ("-", "null", "none"):
        return []
    params = []
    for chunk in text.split(lf.TURN_SEPARATOR):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _PARAM_RE.match(chunk)
        if not m:
            raise MalformedBlock(block, f"bad parameter {chunk!r}")
        params.append(
            ParamAnnotation(
                surface=m.group(1),
                kind=m.group(2),
                span=(int(m.group(3)), int(m.group(4))),
            )
        )
    return params


def load_mspars_text(path: str | Path, split: str = "train") -> Corpus:
    """Best-effort reader for tagged four-line blocks separated by blank lines.

    Each block carries question / logical form / parameters / question type
    lines, either angle-tagged (``<question id=1> ...``) or colon-prefixed
    (``question: ...``). Parameters look like ``chris_pine (entity) [5,6]``
    and multiple parameters are separated by ``|||``.
    """
    blocks: list[list[str]] = [[]]
    with open(path, encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                if blocks[-1]:
                    blocks.append([])
                continue
            blocks[-1].append(line)
    if blocks and not blocks[-1]:
        blocks.pop()

    samples: list[Sample] = []
    for block_idx, lines in enumerate(blocks):
        fields: dict[str, str] = {}
        for line in lines:
            parsed = _parse_tagged_line(line)
            if parsed is None:
                raise MalformedBlock(block_idx, f"unrecognized line {line!r}")
            fields[parsed[0]] = parsed[1]
        missing = [name for name in _FIELDS if name not in fields]
        if missing:
            raise MalformedBlock(block_idx, f"missing fields {missing}")
        try:
            sample = make_sample(
                question=fields["question"],
                logical_form=fields["logical form"],
                params=_parse_param_field(fields["parameters"], block_idx),
                question_type=fields["question type"],
            )
        except (SpanOutOfRange, lf.LfError, ValueError) as exc:
            raise MalformedBlock(block_idx, str(exc)) from None
        samples.append(sample)
    return Corpus(samples=samples, split=split)


# ---------------------------------------------------------------------------
# Synthetic generation
# ---------------------------------------------------------------------------

# One row per class: (question template, logical-form template). Slot words
# are filled per sample; every other word is copied as it stands.
#   R1-R3  a relation: its phrase in the question, its predicate in the form
#   E1, E2 distinct entity names
#   T      a type word
#   V      a value word
# A class's relation and entity counts, and whether it draws a type and a
# value, are read off its row, so adding a class is adding a row.
_CLASS_TEMPLATES: dict[str, tuple[str, str]] = {
    "single-relation": (
        "what is R1 for E1",
        "( lambda ?x ( R1 E1 ?x ) )",
    ),
    "aggregation": (
        "how many R1 does E1 have",
        "count ( lambda ?x ( R1 E1 ?x ) )",
    ),
    "yesno": (
        "is E1 the R1 of E2",
        "( R1 E1 E2 )",
    ),
    "multi-turn-entity": (
        "what is R1 for E1 ? ||| and what is R2 for it ?",
        "( lambda ?x ( R1 E1 ?x ) ) ||| ( lambda ?x ( R2 E1 ?x ) )",
    ),
    "multi-turn-answer": (
        "what is R1 for E1 ? ||| what is R2 of that answer ?",
        "( lambda ?x ( R1 E1 ?x ) ) ||| "
        "( lambda ?x exist ?y ( and ( R1 E1 ?y ) ( R2 ?y ?x ) ) )",
    ),
    "cvt": (
        "what is R3 for the R1 of E1 whose R2 is E2",
        "( lambda ?x exist ?y ( and ( R1 E1 ?y ) ( R2 ?y E2 ) ( R3 ?y ?x ) ) )",
    ),
    "superlative": (
        "list the top V T by R1",
        "( argmax ?x V ( and ( isa ?x T ) ( R1 ?x ?y ) ) )",
    ),
    "comparative": (
        "which T has R1 more than V",
        "( lambda ?x ( and ( isa ?x T ) ( argmore ( R1 ?x ) V ) ) )",
    ),
}

DEFAULT_CLASSES = tuple(_CLASS_TEMPLATES)

_SLOTS = ("R1", "R2", "R3", "E1", "E2", "T", "V")
_PARAM_KINDS = {"E": "entity", "T": "type", "V": "value"}

_FIRST_NAMES = (
    "adam alice amara anna bella boris carla carlos chen chris clara daniel "
    "diego elena emma felix greta hana henry ines ivan james jonas julia kira "
    "lena luca maria marco nadia omar priya ravi rosa sana tariq vera yuki"
).split()

_LAST_NAMES = (
    "adler baker becker castillo cohen diaz fischer garcia hassan ito jansen "
    "keller kim kowalski larsen lopez mori nakamura novak okafor pine ponte "
    "rossi sato schmidt silva sorin weber young zhang"
).split()

# (question phrase, domain, mid, predicate suffix); the phrase is unique per
# relation so a question pattern determines its logical-form pattern.
_RELATIONS: tuple[tuple[str, str, str, str], ...] = (
    ("birth date", "people", "person", "date_of_birth"),
    ("birth place", "people", "person", "place_of_birth"),
    ("number of pages", "book", "edition", "number_of_pages"),
    ("publication date", "book", "edition", "publication_date"),
    ("running time", "film", "movie", "running_time"),
    ("release year", "film", "movie", "release_year"),
    ("capital city", "geo", "country", "capital_city"),
    ("total population", "geo", "country", "total_population"),
    ("head coach", "sports", "team", "head_coach"),
    ("home city", "sports", "team", "home_city"),
    ("founder", "business", "company", "founder"),
    ("net worth", "business", "company", "net_worth"),
    ("author", "book", "edition", "author"),
    ("director", "film", "movie", "director"),
    ("spouse", "people", "person", "spouse"),
    ("parent company", "business", "company", "parent_company"),
    ("main language", "geo", "country", "main_language"),
    ("land area", "geo", "country", "land_area"),
    ("atomic weight", "science", "element", "atomic_weight"),
    ("melting point", "science", "element", "melting_point"),
    ("national dish", "food", "cuisine", "national_dish"),
    ("main ingredient", "food", "dish", "main_ingredient"),
    ("box office", "film", "movie", "box_office"),
    ("production budget", "film", "movie", "production_budget"),
    ("episode count", "tv", "series", "episode_count"),
    ("season count", "tv", "series", "season_count"),
    ("award count", "people", "person", "award_count"),
    ("member count", "music", "band", "member_count"),
    ("launch year", "space", "mission", "launch_year"),
    ("orbit period", "space", "mission", "orbit_period"),
    ("annual revenue", "business", "company", "annual_revenue"),
    ("chairman", "business", "company", "chairman"),
    ("currency", "geo", "country", "currency"),
    ("calling code", "geo", "country", "calling_code"),
    ("time zone", "geo", "country", "time_zone"),
    ("highest point", "geo", "country", "highest_point"),
    ("average rating", "film", "movie", "average_rating"),
    ("print length", "book", "edition", "print_length"),
    ("cover artist", "book", "edition", "cover_artist"),
    ("twin city", "geo", "city", "twin_city"),
    ("mayor", "geo", "city", "mayor"),
    ("postal code", "geo", "city", "postal_code"),
    ("stadium capacity", "sports", "team", "stadium_capacity"),
    ("jersey color", "sports", "team", "jersey_color"),
)

# The words a T or a V slot draws from; T is drawn before V, an order the
# corpus bytes depend on.
_WORDS = {
    "T": ("movie", "book", "country", "team", "company", "element", "dish", "series"),
    "V": ("2", "3", "4", "5", "6", "7", "8", "9", "10", "12"),
}

# A bound slot: its words in the question and its token in the form.
_Binding = tuple[tuple[str, ...], str]


def _slots(cls: str, letter: str) -> list[str]:
    """The slots of ``cls``'s row that begin with ``letter``, in slot order."""
    words = set(" ".join(_CLASS_TEMPLATES[cls]).split())
    return [slot for slot in _SLOTS if slot[0] == letter and slot in words]


@dataclass(frozen=True)
class GenConfig:
    classes: tuple[str, ...] = DEFAULT_CLASSES
    entity_vocab: int = 50
    predicate_vocab: int = 16
    samples_per_class: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.classes:
            raise ValueError("at least one class required")
        unknown = [c for c in self.classes if c not in DEFAULT_CLASSES]
        if unknown:
            raise ValueError(f"unknown classes {unknown}; choose from {DEFAULT_CLASSES}")
        repeated = sorted({c for c in self.classes if self.classes.count(c) > 1})
        if repeated:
            raise ValueError(f"class {repeated[0]!r} given more than once")
        for name in ("entity_vocab", "predicate_vocab", "samples_per_class"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.predicate_vocab > len(_RELATIONS):
            raise ValueError(f"predicate_vocab capped at {len(_RELATIONS)}")
        if self.entity_vocab > len(_FIRST_NAMES) * len(_LAST_NAMES):
            raise ValueError("entity_vocab larger than the name pool")
        needed = max(len(_slots(cls, "E")) for cls in self.classes)
        if self.entity_vocab < needed:
            raise ValueError(
                f"entity_vocab must be >= {needed}: a chosen class names {needed} distinct entities"
            )


def _fill(cls: str, bound: dict[str, _Binding]) -> Sample:
    """The validated sample that ``cls``'s row gives with its slots bound."""
    question, form = _CLASS_TEMPLATES[cls]
    tokens: list[str] = []
    params: list[ParamAnnotation] = []
    for word in question.split():
        words, token = bound.get(word, ((word,), word))
        if word in bound and word[0] in _PARAM_KINDS:
            span = (len(tokens), len(tokens) + len(words) - 1)
            params.append(ParamAnnotation(surface=token, kind=_PARAM_KINDS[word[0]], span=span))
        tokens.extend(words)
    return make_sample(
        question=" ".join(tokens),
        logical_form=" ".join(bound[w][1] if w in bound else w for w in form.split()),
        params=params,
        question_type=cls,
    )


def _class_inventories(
    cfg: GenConfig, relations: list[_Binding], rng: random.Random
) -> dict[str, list[dict[str, _Binding]]]:
    """Fixed per-class bindings of the relation, type and value slots.

    The inventory bounds the set of logical-form patterns per class, so dev
    and test patterns are drawn from the same closed set as training.
    """
    per_class = max(1, len(relations) // len(cfg.classes))
    inventories: dict[str, list[dict[str, _Binding]]] = {}
    for pos, cls in enumerate(cfg.classes):
        rows = []
        for j in range(per_class):
            # Rk sits k-1 places further along the global list, so
            # multi-relation rows stay distinct even when the per-class slice
            # is tiny.
            bound = {
                slot: relations[(pos * per_class + j + int(slot[1]) - 1) % len(relations)]
                for slot in _slots(cls, "R")
            }
            for letter, words in _WORDS.items():
                for slot in _slots(cls, letter):
                    word = rng.choice(words)
                    bound[slot] = ((word,), word)
            rows.append(bound)
        inventories[cls] = rows
    return inventories


def generate_synthetic(cfg: GenConfig) -> Corpus:
    """Emit a deterministic corpus where each question pattern maps to exactly
    one logical-form pattern."""
    rng = random.Random(cfg.seed)
    relations = [
        (tuple(phrase.split()), f"mso:{dom}.{mid}.{suffix}")
        for phrase, dom, mid, suffix in _RELATIONS[: cfg.predicate_vocab]
    ]
    names = [(first, last) for first in _FIRST_NAMES for last in _LAST_NAMES]
    entities = [names[i] for i in sorted(rng.sample(range(len(names)), cfg.entity_vocab))]
    inventories = _class_inventories(cfg, relations, rng)

    samples: list[Sample] = []
    for cls in cfg.classes:
        rows = inventories[cls]
        entity_slots = _slots(cls, "E")
        for j in range(cfg.samples_per_class):
            bound = dict(rows[j % len(rows)])
            taken: list[tuple[str, ...]] = []
            for slot in entity_slots:  # E1 first; later slots avoid earlier names
                name = rng.choice([e for e in entities if e not in taken] if taken else entities)
                taken.append(name)
                bound[slot] = (name, "_".join(name))
            samples.append(_fill(cls, bound))
    return Corpus(samples=samples, split="synthetic")


def split(
    corpus: Corpus, ratios: tuple[float, float, float], seed: int
) -> tuple[Corpus, Corpus, Corpus]:
    """Seeded, sketch-class-stratified partition into train/dev/test."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise BadRatios(f"ratios {ratios} must be non-negative and sum to 1")
    rng = random.Random(seed)
    by_class: dict[str, list[int]] = {}
    for i, sample in enumerate(corpus.samples):
        by_class.setdefault(sample.sketch_class, []).append(i)

    buckets: tuple[list[int], list[int], list[int]] = ([], [], [])
    carry = [0.0, 0.0, 0.0]  # accumulated rounding deficit per bucket
    for cls in sorted(by_class):
        indices = by_class[cls]
        rng.shuffle(indices)
        n = len(indices)
        ideal = [n * r for r in ratios]
        counts = [int(x) for x in ideal]
        leftover = n - sum(counts)
        # Largest remainder, with the deficit carried across classes so exact
        # ties alternate and global bucket sizes stay on ratio.
        order = sorted(range(3), key=lambda b: (-(ideal[b] - counts[b] + carry[b]), b))
        for b in order[:leftover]:
            counts[b] += 1
        for b in range(3):
            carry[b] += ideal[b] - counts[b]
        start = 0
        for b in range(3):
            buckets[b].extend(indices[start : start + counts[b]])
            start += counts[b]

    parts = []
    for tag, bucket in zip(("train", "dev", "test"), buckets):
        bucket.sort()
        parts.append(Corpus(samples=[corpus.samples[i] for i in bucket], split=tag))
    return parts[0], parts[1], parts[2]
