"""Text algebra for questions and logical forms.

Whitespace tokenization, balance-checked parsing of s-expression logical
forms, sketch extraction, and the pattern/template derivations the matching
stages train on. Everything in this module is a pure function of its inputs,
so it is safe to call concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Sequence

TokenSeq = tuple[str, ...]

TURN_SEPARATOR = "|||"
PREDICATE_PREFIX = "mso:"
_NAMESPACE = "mso"
_COMPOUND_SPLIT_RE = re.compile(r"[:._]+")
_NUMERIC_RE = re.compile(r"-?\d+(\.\d+)?$")
_ENTITY_SLOT_RE = re.compile(r"entity([1-9]\d*)$")


class LfError(Exception):
    """Base class for text-algebra failures."""


class EmptyInput(LfError):
    pass


class EmptyForm(LfError):
    pass


class UnbalancedParens(LfError):
    def __init__(self, turn: int):
        super().__init__(f"unbalanced parentheses in turn {turn}")
        self.turn = turn


class MissingSurface(LfError):
    def __init__(self, surface: str):
        super().__init__(f"annotated surface {surface!r} does not occur in the logical form")
        self.surface = surface


class OverlappingSpans(LfError):
    pass


class UnknownEntity(LfError):
    def __init__(self, surface: str):
        super().__init__(f"entity surface {surface!r} has no question-order index")
        self.surface = surface


@dataclass(frozen=True)
class ParamAnnotation:
    """One annotated parameter: its logical-form surface, kind and inclusive token span."""

    surface: str
    kind: str  # "entity" | "value" | "type"
    span: tuple[int, int]

    def __post_init__(self):
        start, end = self.span
        if start < 0 or end < start:
            raise ValueError(f"bad span {self.span}")


@dataclass(frozen=True)
class LogicalForm:
    tokens: TokenSeq

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True, eq=True)
class Sketch:
    """Delexicalized logical form with P/E/V/T placeholders and their bindings."""

    tokens: TokenSeq
    bindings: tuple[tuple[str, str], ...]  # (placeholder, concrete token), first-occurrence order

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class QuestionPattern:
    tokens: TokenSeq

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class LfPattern:
    tokens: TokenSeq

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


@dataclass(frozen=True)
class LfTemplate:
    """Logical form with entity slots only; predicates, values and types stay concrete."""

    tokens: TokenSeq
    entity_arity: int


def tokenize(text: str, lowercase: bool = False) -> TokenSeq:
    """Split on whitespace. Questions are lowercased, logical forms are not."""
    if lowercase:
        text = text.lower()
    tokens = tuple(text.split())
    if not tokens:
        raise EmptyInput("no tokens after splitting")
    return tokens


def tokenize_question(text: str) -> TokenSeq:
    return tokenize(text, lowercase=True)


def is_numeric(token: str) -> bool:
    """True for decimal integers and floats, the lexical rule for value slots."""
    return bool(_NUMERIC_RE.match(token))


def entity_slot(token: str) -> int:
    """K for an entityK slot token, 0 for any other token."""
    m = _ENTITY_SLOT_RE.match(token)
    return int(m.group(1)) if m else 0


def is_entity_slot(token: str) -> bool:
    return entity_slot(token) > 0


def split_turns(tokens: Sequence[str]) -> list[TokenSeq]:
    turns: list[TokenSeq] = []
    current: list[str] = []
    for tok in tokens:
        if tok == TURN_SEPARATOR:
            turns.append(tuple(current))
            current = []
        else:
            current.append(tok)
    turns.append(tuple(current))
    return turns


def parse_logical_form(text: str) -> LogicalForm:
    """Tokenize a logical form and verify per-turn parenthesis balance."""
    try:
        tokens = tokenize(text)
    except EmptyInput:
        raise EmptyForm("empty logical form") from None
    for i, turn in enumerate(split_turns(tokens)):
        if not turn:
            raise EmptyForm(f"empty turn {i}")
        depth = 0
        for tok in turn:
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth < 0:
                    raise UnbalancedParens(i)
        if depth != 0:
            raise UnbalancedParens(i)
    return LogicalForm(tokens)


def _placeholder(series: str, n: int) -> str:
    if series in ("P", "E"):
        return f"{series}{n}"
    # V and T are normally unique per form; extra distinct tokens get an index
    # so that substituting the bindings back always reproduces the source.
    return series if n == 1 else f"{series}{n}"


def extract_sketch(lf: LogicalForm, params: Sequence[ParamAnnotation]) -> Sketch:
    """Replace predicates, entities, values and types by indexed placeholders.

    Placeholders are numbered by first occurrence; a repeated concrete token
    reuses its placeholder, so bindings invert the substitution exactly.
    """
    token_set = set(lf.tokens)
    for p in params:
        if p.surface not in token_set:
            raise MissingSurface(p.surface)
    entity_surfaces = {p.surface for p in params if p.kind == "entity"}
    value_surfaces = {p.surface for p in params if p.kind == "value"}
    type_surfaces = {p.surface for p in params if p.kind == "type"}

    assigned: dict[str, str] = {}
    counts = {"P": 0, "E": 0, "V": 0, "T": 0}
    out: list[str] = []
    bindings: list[tuple[str, str]] = []
    for tok in lf.tokens:
        if tok in assigned:
            out.append(assigned[tok])
            continue
        if tok in entity_surfaces:
            series = "E"
        elif tok.startswith(PREDICATE_PREFIX):
            series = "P"
        elif tok in value_surfaces or is_numeric(tok):
            series = "V"
        elif tok in type_surfaces:
            series = "T"
        else:
            out.append(tok)
            continue
        counts[series] += 1
        ph = _placeholder(series, counts[series])
        assigned[tok] = ph
        bindings.append((ph, tok))
        out.append(ph)
    return Sketch(tokens=tuple(out), bindings=tuple(bindings))


def question_entity_order(params: Sequence[ParamAnnotation]) -> dict[str, int]:
    """Map each distinct entity surface to its 1-based question-order index."""
    order: dict[str, int] = {}
    for p in sorted((p for p in params if p.kind == "entity"), key=lambda p: p.span):
        if p.surface not in order:
            order[p.surface] = len(order) + 1
    return order


def derive_question_pattern(
    question: TokenSeq, params: Sequence[ParamAnnotation]
) -> QuestionPattern:
    """Replace annotated entity spans with entity1..entityM in question order."""
    entities = sorted((p for p in params if p.kind == "entity"), key=lambda p: p.span)
    prev_end = -1
    for p in entities:
        if p.span[0] <= prev_end:
            raise OverlappingSpans(f"span {p.span} overlaps a previous one")
        prev_end = p.span[1]
    order = question_entity_order(params)
    starts = {p.span[0]: p for p in entities}
    out: list[str] = []
    i = 0
    while i < len(question):
        if i in starts:
            p = starts[i]
            out.append(f"entity{order[p.surface]}")
            i = p.span[1] + 1
        else:
            out.append(question[i])
            i += 1
    return QuestionPattern(tuple(out))


def split_compound(token: str) -> list[str]:
    """Split a predicate or entity token on ':', '.' and '_', dropping the namespace."""
    return [part for part in _COMPOUND_SPLIT_RE.split(token) if part and part != _NAMESPACE]


def derive_lf_pattern(
    lf: LogicalForm,
    params: Sequence[ParamAnnotation],
    question_order: Mapping[str, int],
) -> LfPattern:
    """Strip structure, split predicates into words and index entities by question order.

    Dropped tokens: "(", ")" and "lambda" together with its bound variable.
    All other keywords (count, exist, and, or, equal, isa, argmax, argmin,
    argmore, argless, the turn separator and free variables) are kept.
    """
    entity_surfaces = {p.surface for p in params if p.kind == "entity"}
    out: list[str] = []
    skip_next = False
    for tok in lf.tokens:
        if skip_next:
            skip_next = False
            continue
        if tok in ("(", ")"):
            continue
        if tok == "lambda":
            skip_next = True
            continue
        if tok in entity_surfaces:
            if tok not in question_order:
                raise UnknownEntity(tok)
            out.append(f"entity{question_order[tok]}")
        elif tok.startswith(PREDICATE_PREFIX):
            out.extend(split_compound(tok))
        else:
            out.append(tok)
    return LfPattern(tuple(out))


def derive_template(
    lf: LogicalForm,
    params: Sequence[ParamAnnotation],
    question_order: Mapping[str, int],
) -> LfTemplate:
    """Abstract only the entities; the result reconstructs full forms by substitution."""
    entity_surfaces = {p.surface for p in params if p.kind == "entity"}
    out: list[str] = []
    max_k = 0
    for tok in lf.tokens:
        if tok in entity_surfaces:
            if tok not in question_order:
                raise UnknownEntity(tok)
            k = question_order[tok]
            max_k = max(max_k, k)
            out.append(f"entity{k}")
        else:
            out.append(tok)
    return LfTemplate(tokens=tuple(out), entity_arity=max_k)


def span_surface(question: TokenSeq, span: tuple[int, int]) -> str:
    return "_".join(question[span[0] : span[1] + 1])


def numeric_positions(tokens: Sequence[str]) -> list[int]:
    """Positions of numeric literals, i.e. the value slots of a template."""
    return [i for i, tok in enumerate(tokens) if is_numeric(tok)]


def isa_argument_positions(tokens: Sequence[str]) -> list[int]:
    """Positions of type arguments: non-variable atoms inside a group headed by "isa"."""
    positions: list[int] = []
    stack: list[list[bool]] = []  # per open group: [head is isa, head seen]
    for i, tok in enumerate(tokens):
        if tok == "(":
            stack.append([False, False])
        elif tok == ")":
            if stack:
                stack.pop()
        elif stack:
            frame = stack[-1]
            if not frame[1]:
                frame[1] = True
                frame[0] = tok == "isa"
            elif frame[0] and not tok.startswith("?") and not is_numeric(tok):
                positions.append(i)
    return positions
