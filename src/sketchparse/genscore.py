"""Whole-sequence reranking signal: a copy-augmented, class-conditional bigram
model scores each candidate by its conditional generation loss, and losses are
normalized per candidate pool to scores in [0, 1]."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import lf
from .data import Corpus, EmptyCorpus

BOS = "<s>"
UNK_WORD = "<unk>"


class EmptyCandidate(Exception):
    pass


class AllZeroLosses(UserWarning):
    pass


def split_token(token: str) -> tuple[str, ...]:
    """The plain words of one logical-form token: a numeric literal stays
    whole; any other token containing ':', '.' or '_' is split on those
    characters with the namespace piece dropped."""
    if not (":" in token or "." in token or "_" in token) or lf.is_numeric(token):
        return (token,)
    return tuple(lf.split_compound(token))


def split_logical_form(tokens: Sequence[str]) -> list[str]:
    """Split compound entity/predicate tokens into plain words, token by
    token (``split_token``). The operation is idempotent."""
    out: list[str] = []
    for tok in tokens:
        out += split_token(tok)
    return out


def split_pool(
    pool: Sequence[tuple[Sequence[str], Sequence[Sequence[str]], Sequence[int]]],
) -> list[list[str]]:
    """``split_logical_form`` of every candidate of the pool, given as
    (tokens, template words, slot positions): the template's words around
    its slots already split (``PatternEntry.words`` and ``slot_positions``),
    so only the tokens at the slots are split, each distinct one once."""
    slot_words: dict[str, tuple[str, ...]] = {}
    out = []
    for tokens, words, slots in pool:
        split = list(words[0])
        for pos, after in zip(slots, words[1:]):
            tok = tokens[pos]
            filler = slot_words.get(tok)
            if filler is None:
                filler = slot_words[tok] = split_token(tok)
            split += filler
            split += after
        out.append(split)
    return out


@dataclass
class ClassStats:
    """Smoothed bigram counts over the split logical forms of one sketch class."""

    bigram: dict[str, dict[str, int]] = field(default_factory=dict)
    vocab: dict[str, None] = field(default_factory=dict)  # insertion-ordered set
    # Row key -> sum of the row's counts, filled on first use.
    _totals: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def observe(self, words: Sequence[str]) -> None:
        self._totals.clear()
        prev = BOS
        for w in words:
            self.vocab.setdefault(w, None)
            row = self.bigram.setdefault(prev, {})
            row[w] = row.get(w, 0) + 1
            prev = w

    def counts(self, word: str, prev: str) -> tuple[int, int]:
        """(count of word after prev, total count of prev's row); words outside
        the class vocabulary count 0 and an unknown prev reads the unknown row."""
        key = prev if prev in self.vocab or prev == BOS else UNK_WORD
        row = self.bigram.get(key, {})
        total = self._totals.get(key)
        if total is None:
            total = self._totals[key] = sum(row.values())
        return (row.get(word, 0) if word in self.vocab else 0), total

    def prob(self, word: str, prev: str, alpha: float) -> float:
        """Additively smoothed over the class vocabulary plus an unknown slot."""
        count, total = self.counts(word, prev)
        return (count + alpha) / (total + alpha * (len(self.vocab) + 1))


@dataclass(frozen=True)
class GenMemberConfig:
    lam: float  # copy weight, in (0, 1)
    alpha: float  # smoothing constant, > 0


DEFAULT_MEMBERS = (
    GenMemberConfig(lam=0.3, alpha=0.1),
    GenMemberConfig(lam=0.5, alpha=0.1),
    GenMemberConfig(lam=0.7, alpha=0.1),
)


@dataclass
class GenModel:
    class_stats: dict[str, ClassStats]
    members: tuple[GenMemberConfig, ...] = DEFAULT_MEMBERS

    def stats_for(self, sketch_class: str) -> ClassStats:
        return self.class_stats.get(sketch_class, ClassStats())


def seq_loss(
    question_tokens: Sequence[str],
    target_words: Sequence[str],
    stats: ClassStats,
    lam: float,
    alpha: float,
) -> float:
    """Mean negative log-likelihood of the target under copy + bigram mixture.

    Token probability is lam * copy(w | question) + (1 - lam) * bigram(w | prev)
    where copy(w) is the relative frequency of w among the question tokens.
    """
    if not target_words:
        raise EmptyCandidate("cannot score an empty candidate")
    n_q = len(question_tokens)
    q_counts: dict[str, int] = {}
    for tok in question_tokens:
        q_counts[tok] = q_counts.get(tok, 0) + 1

    total = 0.0
    prev = BOS
    for w in target_words:
        copy_p = q_counts.get(w, 0) / n_q if n_q else 0.0
        p = lam * copy_p + (1.0 - lam) * stats.prob(w, prev, alpha)
        total += -np.log(p)
        prev = w
    return float(total / len(target_words))


def normalize_losses(losses: Sequence[float]) -> list[float]:
    """score_i = 1 - loss_i / max(losses); the max-loss candidate scores 0.

    All-zero pools are degenerate (every candidate scores 1) and are flagged
    with an AllZeroLosses warning.
    """
    if not losses:
        raise ValueError("need at least one loss")
    if any(x < 0 for x in losses):
        raise ValueError("losses must be non-negative")
    peak = max(losses)
    if peak == 0.0:
        warnings.warn("all candidate losses are zero", AllZeroLosses)
        return [1.0 for _ in losses]
    return [1.0 - x / peak for x in losses]


def fit_genmodel(
    train: Corpus, members: Sequence[GenMemberConfig] = DEFAULT_MEMBERS
) -> GenModel:
    """Count class-conditional bigrams over split training logical forms."""
    if not train.samples:
        raise EmptyCorpus("cannot fit the generation scorer on an empty corpus")
    class_stats: dict[str, ClassStats] = {}
    for sample in train:
        stats = class_stats.setdefault(sample.sketch_class, ClassStats())
        stats.observe(split_logical_form(sample.lf.tokens))
    return GenModel(class_stats=class_stats, members=tuple(members))


def gen_scores(
    model: GenModel,
    question_tokens: Sequence[str],
    sketch_class: str,
    candidates_split: Sequence[Sequence[str]],
) -> list[float]:
    """Mean over members of each member's normalized scores for the pool.

    One pass over the pool's words collects its distinct (previous word, word)
    steps; each step's bigram count, row total and copy probability are looked
    up once, and every member's ``seq_loss`` of every candidate follows as
    array operations in the same arithmetic.
    """
    if not candidates_split or not model.members:
        return []
    stats = model.stats_for(sketch_class)
    step_ids: dict[tuple[str, str], int] = {}
    steps, positions, lengths = [], [], []
    for words in candidates_split:
        if not words:
            raise EmptyCandidate("cannot score an empty candidate")
        prev = BOS
        for w in words:
            steps.append(step_ids.setdefault((prev, w), len(step_ids)))
            prev = w
        positions.extend(range(len(words)))
        lengths.append(len(words))

    n_q = len(question_tokens)
    q_counts: dict[str, int] = {}
    for tok in question_tokens:
        q_counts[tok] = q_counts.get(tok, 0) + 1
    table = np.array(
        [
            (*stats.counts(w, prev), q_counts.get(w, 0) / n_q if n_q else 0.0)
            for prev, w in step_ids
        ]
    )
    count, total, copy = table.T
    lam = np.array([[m.lam] for m in model.members])
    alpha = np.array([[m.alpha] for m in model.members])
    bigram = (count + alpha) / (total + alpha * (len(stats.vocab) + 1))
    nll = -np.log(lam * copy + (1.0 - lam) * bigram)  # (members, distinct steps)
    # Step j of candidate i goes to row j, column i; summing over the rows adds
    # each candidate's terms one after another, as seq_loss does.
    padded = np.zeros((len(model.members), max(lengths), len(lengths)))
    padded[:, positions, np.repeat(np.arange(len(lengths)), lengths)] = nll[:, steps]
    losses = padded.sum(axis=1) / np.array(lengths)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AllZeroLosses)
        scores = np.array([normalize_losses(row) for row in losses.tolist()])
    # Members along the contiguous axis: np.mean adds them as it does a list.
    return scores.T.copy().mean(axis=1).tolist()
