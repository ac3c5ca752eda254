"""Candidate scorers: the question-pattern / logical-form-pattern matching
network with in-class negative sampling, ranking-based resampling and a small
ensemble, plus the predicate-entity co-occurrence scorer."""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass, field
from typing import Collection, Iterable, Sequence, TypeVar

import numpy as np

from . import genscore, learn, lf
from .data import Corpus, EmptyCorpus, Sample
from .learn import AdamState, EncoderParams, LinearHead, Vocab

logger = logging.getLogger(__name__)

T = TypeVar("T")


class EmptyClass(Exception):
    pass


# ---------------------------------------------------------------------------
# Pattern index
# ---------------------------------------------------------------------------


@dataclass
class PatternEntry:
    pattern: lf.LfPattern
    template: lf.LfTemplate
    freq: int = 1
    # Found in one pass over the template when the entry is built, so each
    # question only places and splits its fillers. Slots: entity slots as
    # (position, filler index) pairs, value slots (numeric literals) and type
    # slots (non-variable isa arguments) as positions.
    entity_positions: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    value_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)
    type_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # The split words (genscore.split_logical_form) of the tokens around the
    # slots: words[0], then the slot at slot_positions[0], then words[1], ...
    slot_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)
    words: tuple[tuple[str, ...], ...] = field(init=False, repr=False, compare=False)
    # Member positions of each non-empty parenthesized group, in the order the
    # groups close: the groups extract_pred_entity_pairs pairs within.
    groups: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = self.template.tokens
        arity = self.template.entity_arity
        entity, values, types, slots, groups = [], [], [], [], []
        words: list[tuple[str, ...]] = []
        run: list[str] = []
        stack: list[list] = []  # per open group: [member positions, head seen, head is isa]
        for i, tok in enumerate(tokens):
            if tok == "(":
                stack.append([[], False, False])
                run.append(tok)
                continue
            if tok == ")":
                if stack and (members := stack.pop()[0]):
                    groups.append(tuple(members))
                run.append(tok)
                continue
            isa_argument = False
            if stack:
                frame = stack[-1]
                frame[0].append(i)
                if frame[1]:
                    isa_argument = frame[2] and not tok.startswith("?")
                else:
                    frame[1], frame[2] = True, tok == "isa"
            # The prefix tests skip the regular expressions for most tokens.
            if tok.startswith("entity") and (k := lf.entity_slot(tok)):
                if k > arity:
                    raise ValueError(
                        f"template {' '.join(tokens)!r} has a slot beyond its arity {arity}"
                    )
                entity.append((i, k - 1))
            elif (tok[:1] == "-" or tok[:1].isdigit()) and lf.is_numeric(tok):
                values.append(i)
            elif isa_argument:
                types.append(i)
            else:
                run += genscore.split_token(tok)
                continue
            slots.append(i)
            words.append(tuple(run))
            run = []
        words.append(tuple(run))
        self.entity_positions = tuple(entity)
        self.value_positions = tuple(values)
        self.type_positions = tuple(types)
        self.slot_positions = tuple(slots)
        self.words = tuple(words)
        self.groups = tuple(groups)


@dataclass
class PatternIndex:
    by_class: dict[str, list[PatternEntry]] = field(default_factory=dict)

    def patterns(self, sketch_class: str) -> list[PatternEntry]:
        return self.by_class.get(sketch_class, [])

    def size(self) -> int:
        return sum(len(v) for v in self.by_class.values())

    def coverage(self, corpus: Corpus) -> float:
        """Fraction of corpus gold patterns present in this index."""
        if not corpus.samples:
            return 1.0
        keys = {
            (cls, entry.pattern.tokens)
            for cls, entries in self.by_class.items()
            for entry in entries
        }
        hits = sum(
            1
            for s in corpus
            if (s.sketch_class, sample_pattern_pair(s)[1].tokens) in keys
        )
        return hits / len(corpus.samples)


def sample_pattern_pair(sample: Sample) -> tuple[lf.QuestionPattern, lf.LfPattern]:
    order = sample.entity_order
    qp = lf.derive_question_pattern(sample.question_tokens, sample.params)
    lfp = lf.derive_lf_pattern(sample.lf, sample.params, order)
    return qp, lfp


def build_pattern_index(train: Corpus) -> PatternIndex:
    """Deduplicated per-class (pattern, template) entries with frequencies."""
    if not train.samples:
        raise EmptyCorpus("cannot build a pattern index from an empty corpus")
    index = PatternIndex()
    keyed: dict[str, dict[tuple, PatternEntry]] = {}
    for sample in train:
        order = sample.entity_order
        lfp = lf.derive_lf_pattern(sample.lf, sample.params, order)
        template = lf.derive_template(sample.lf, sample.params, order)
        bucket = keyed.setdefault(sample.sketch_class, {})
        key = (lfp.tokens, template.tokens)
        if key in bucket:
            bucket[key].freq += 1
        else:
            bucket[key] = PatternEntry(pattern=lfp, template=template)
    for cls, bucket in keyed.items():
        index.by_class[cls] = list(bucket.values())
    return index


# ---------------------------------------------------------------------------
# Pattern pair matching network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatcherConfig:
    hidden: int = 64
    epochs: int = 3
    refit_epochs: int = 2
    refits: int = 2
    seed: int = 0


# Uniform in-class negatives per question in each base epoch, the pair batch
# size and the Adam learning rate of every member.
NEGATIVES = 20
BATCH_SIZE = 32
LR = 1e-2
# Ranking resampling: up to HARD_COUNT negatives the base model scores above
# HARD_THRESHOLD and up to EASY_COUNT of the rest.
HARD_THRESHOLD = 1e-4
HARD_COUNT = 20
EASY_COUNT = 5


@dataclass
class MatcherModel:
    vocab: Vocab
    encoder: EncoderParams
    head: LinearHead  # (2, 4*hidden)

    def params(self) -> dict[str, np.ndarray]:
        return {
            "embedding": self.encoder.embedding,
            "head_w": self.head.weight,
            "head_b": self.head.bias,
        }

    def clone(self) -> "MatcherModel":
        return MatcherModel(
            vocab=self.vocab,
            encoder=EncoderParams(
                embedding=self.encoder.embedding.copy(), window=self.encoder.window
            ),
            head=LinearHead(self.head.weight.copy(), self.head.bias.copy()),
        )


def init_matcher(vocab: Vocab, cfg: MatcherConfig) -> MatcherModel:
    rng = np.random.default_rng(cfg.seed)
    encoder = learn.init_encoder(len(vocab), cfg.hidden, window=0, rng=rng)
    return MatcherModel(vocab=vocab, encoder=encoder, head=LinearHead.zeros(2, 4 * cfg.hidden))


def pair_logits(
    a: np.ndarray, b: np.ndarray, head: LinearHead
) -> tuple[np.ndarray, np.ndarray]:
    """The pair head over (n, h) mean embeddings: features
    [a, b, |a-b|, a*b], (n, 4h), and their (n, 2) logits. ``a`` may be one
    (h,) row shared by every row of ``b``."""
    if a.ndim == 1:
        a = np.broadcast_to(a, b.shape)
    feats = np.concatenate([a, b, np.abs(a - b), a * b], axis=1)
    return feats, feats @ head.weight.T + head.bias


def score_pair(
    qp_tokens: Sequence[str], lfp_tokens: Sequence[str], model: MatcherModel
) -> float:
    """Probability that the pair is a correct match (class 1 of the head)."""
    a = learn.encode_sentence(model.vocab.encode(qp_tokens), model.encoder)
    b = learn.encode_sentence(model.vocab.encode(lfp_tokens), model.encoder)
    _, logits = pair_logits(a[None, :], b[None, :], model.head)
    return float(learn.softmax(logits[0])[1])


def bag_matrix(id_lists: Sequence[np.ndarray], vocab_size: int) -> np.ndarray:
    """One row per id list with 1/len at each of its ids, so a repeated id
    gets 2/len and ``bags @ embedding`` is each list's mean embedding."""
    lengths = np.array([len(ids) for ids in id_lists])
    bags = np.zeros((len(id_lists), vocab_size))
    np.add.at(
        bags,
        (np.repeat(np.arange(len(id_lists)), lengths), np.concatenate(id_lists)),
        np.repeat(1.0 / lengths, lengths),
    )
    return bags


def pair_loss_grads(
    model: MatcherModel,
    pairs: np.ndarray,
    bags: np.ndarray,
    grads: dict[str, np.ndarray],
) -> float:
    """Mean cross-entropy over the (question row, LF row, label) rows of the
    (n, 3) int array ``pairs``; accumulates grads.

    The rows index ``bags`` (see ``bag_matrix``). The batch's 2n bag rows
    give the mean embeddings as ``bag @ embedding`` and the embedding
    gradient as ``bag.T @ d_mean``.
    """
    n = len(pairs)
    if n == 0:
        return 0.0
    emb = model.encoder.embedding
    bag = bags[np.concatenate([pairs[:, 0], pairs[:, 1]])]
    means = bag @ emb
    a, b = means[:n], means[n:]
    feats, logits = pair_logits(a, b, model.head)
    losses, d_logits = learn.softmax_cross_entropy(logits, pairs[:, 2])
    grads["head_w"] += d_logits.T @ feats
    grads["head_b"] += d_logits.sum(axis=0)
    d_feats = d_logits @ model.head.weight
    h = emb.shape[1]
    sign = np.sign(a - b)
    d_a = d_feats[:, :h] + sign * d_feats[:, 2 * h : 3 * h] + b * d_feats[:, 3 * h :]
    d_b = d_feats[:, h : 2 * h] - sign * d_feats[:, 2 * h : 3 * h] + a * d_feats[:, 3 * h :]
    grads["embedding"] += bag.T @ np.concatenate([d_a, d_b])
    for g in grads.values():
        g /= n
    return float(losses.sum()) / n


def select_by_rank(
    scored_negatives: Sequence[tuple[T, float]],
    rng: random.Random,
    hard_count: int = HARD_COUNT,
    easy_count: int = EASY_COUNT,
    threshold: float = HARD_THRESHOLD,
) -> list[T]:
    """Pick min(hard_count, |p > threshold|) hard and min(easy_count, rest) easy negatives."""
    hard = [p for p, prob in scored_negatives if prob > threshold]
    easy = [p for p, prob in scored_negatives if prob <= threshold]
    picked_hard = hard if len(hard) <= hard_count else rng.sample(hard, hard_count)
    picked_easy = easy if len(easy) <= easy_count else rng.sample(easy, easy_count)
    return list(picked_hard) + list(picked_easy)


def negative_pairs(q_rows: Sequence[int], picks: Sequence[Sequence[int]]) -> np.ndarray:
    """(question row, negative row, 0) rows: each question's picks in turn."""
    counts = [len(p) for p in picks]
    return np.column_stack(
        [
            np.repeat(np.asarray(q_rows, dtype=np.int64), counts),
            np.fromiter(itertools.chain.from_iterable(picks), np.int64, sum(counts)),
            np.zeros(sum(counts), np.int64),
        ]
    )


def ranking_resample(
    model: MatcherModel,
    questions: Sequence[tuple[int, int, Sequence[int]]],
    patterns: Sequence[lf.TokenSeq],
    rng: random.Random | int,
    hard_count: int = HARD_COUNT,
    easy_count: int = EASY_COUNT,
    threshold: float = HARD_THRESHOLD,
    scored: dict[tuple[int, int], list[tuple[int, float]]] | None = None,
) -> np.ndarray:
    """Per (question row, gold row, negative rows) question: rank its
    negatives by ``model`` and keep the ranking-sampled picks, returned as
    ``negative_pairs``. Rows index ``patterns``.

    ``scored`` memoises each (question row, gold row)'s scored negatives;
    pass the same dict only to calls with the same, unchanged ``model``.
    ``score_pair`` runs once per distinct (question row, negative row) of
    the lists a call scores.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    if scored is None:
        scored = {}
    probs: dict[tuple[int, int], float] = {}
    picks = []
    for q, gold, negatives in questions:
        ranked = scored.get((q, gold))
        if ranked is None:
            for neg in negatives:
                if (q, neg) not in probs:
                    probs[q, neg] = score_pair(patterns[q], patterns[neg], model)
            ranked = scored[q, gold] = [(neg, probs[q, neg]) for neg in negatives]
        picks.append(select_by_rank(ranked, rng, hard_count, easy_count, threshold))
    return negative_pairs([q for q, _, _ in questions], picks)


@dataclass
class MatcherEnsemble:
    members: list[MatcherModel]
    # LF pattern tokens -> (members, hidden) mean embeddings, filled as pools
    # are scored; members must not change once scoring has begun.
    _pattern_means: dict[lf.TokenSeq, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def score(self, qp_tokens: Sequence[str], pool: Sequence[lf.TokenSeq]) -> np.ndarray:
        """Mean over members of ``score_pair`` for the question pattern against
        each LF pattern of the pool, one array operation per member."""
        if not pool:
            return np.zeros(0)
        memo = self._pattern_means
        for tokens in pool:
            if tokens not in memo:
                memo[tokens] = np.stack(
                    [learn.encode_sentence(m.vocab.encode(tokens), m.encoder) for m in self.members]
                )
        means = np.stack([memo[tokens] for tokens in pool], axis=1)  # (members, pool, h)
        probs = np.empty((len(pool), len(self.members)))
        for k, member in enumerate(self.members):
            a = learn.encode_sentence(member.vocab.encode(qp_tokens), member.encoder)
            _, logits = pair_logits(a, means[k], member.head)
            probs[:, k] = learn.softmax(logits, axis=1)[:, 1]
        return probs.mean(axis=1)


def _train_pairs_epoch(
    model: MatcherModel,
    pairs: np.ndarray,
    bags: np.ndarray,
    opt: AdamState,
    shuffler: np.random.Generator,
) -> float:
    params = model.params()
    order = shuffler.permutation(len(pairs))
    total = 0.0
    for start in range(0, len(order), BATCH_SIZE):
        batch = pairs[order[start : start + BATCH_SIZE]]
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        total += pair_loss_grads(model, batch, bags, grads) * len(batch)
        learn.step(params, grads, opt)
    return total / max(1, len(pairs))


def train_matcher_ensemble(
    train: Corpus,
    index: PatternIndex,
    cfg: MatcherConfig | None = None,
) -> MatcherEnsemble:
    """Base model on uniform in-class negatives, then refits on ranking-resampled
    negatives seeded from the base model; members are averaged at scoring time.

    Each distinct pattern is one row of a bag matrix built once, and every
    epoch's pairs are an (n, 3) int array of (question row, LF row, label):
    the positives first, then each question's negatives in turn.
    """
    cfg = cfg or MatcherConfig()
    if not train.samples:
        raise EmptyCorpus("cannot train a matcher on an empty corpus")

    rows: dict[lf.TokenSeq, int] = {}  # pattern tokens -> bag row

    def row(tokens: lf.TokenSeq) -> int:
        return rows.setdefault(tokens, len(rows))

    pattern_pairs = [sample_pattern_pair(sample) for sample in train]
    q_rows = [row(qp.tokens) for qp, _ in pattern_pairs]
    for entries in index.by_class.values():
        for entry in entries:
            row(entry.pattern.tokens)
    vocab = Vocab.build(list(rows))

    questions = []  # (question row, gold row, the class's other pattern rows)
    negatives_of: dict[tuple[str, lf.TokenSeq], list[int]] = {}
    for sample, q, (_, gold) in zip(train, q_rows, pattern_pairs):
        key = (sample.sketch_class, gold.tokens)
        if key not in negatives_of:
            entries = index.patterns(sample.sketch_class)
            if not entries:
                raise EmptyClass(f"no patterns for class {sample.sketch_class!r}")
            negatives_of[key] = [
                rows[e.pattern.tokens] for e in entries if e.pattern.tokens != gold.tokens
            ]
        questions.append((q, row(gold.tokens), negatives_of[key]))

    patterns = list(rows)
    bags = bag_matrix([vocab.encode(tokens) for tokens in patterns], len(vocab))
    positives = np.array([(q, gold, 1) for q, gold, _ in questions], dtype=np.int64)

    base = init_matcher(vocab, cfg)
    opt = AdamState.for_params(base.params(), lr=LR)
    shuffler = np.random.default_rng(cfg.seed + 1)
    neg_rng = random.Random(cfg.seed + 2)
    for epoch in range(cfg.epochs):
        picks = [
            negs if len(negs) <= NEGATIVES else neg_rng.sample(negs, NEGATIVES)
            for _, _, negs in questions
        ]
        pairs = np.concatenate([positives, negative_pairs(q_rows, picks)])
        loss = _train_pairs_epoch(base, pairs, bags, opt, shuffler)
        logger.info("matcher base epoch %d: loss %.4f", epoch, loss)

    members = [base]
    # base is fixed from here on, so every refit epoch reuses its scores.
    base_scored: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for refit_idx in range(cfg.refits):
        refit = base.clone()
        opt = AdamState.for_params(refit.params(), lr=LR)
        refit_rng = random.Random(cfg.seed + 100 + refit_idx)
        for epoch in range(cfg.refit_epochs):
            resampled = ranking_resample(base, questions, patterns, refit_rng, scored=base_scored)
            pairs = np.concatenate([positives, resampled])
            loss = _train_pairs_epoch(refit, pairs, bags, opt, shuffler)
            logger.info("matcher refit %d epoch %d: loss %.4f", refit_idx, epoch, loss)
        members.append(refit)
    return MatcherEnsemble(members=members)


# ---------------------------------------------------------------------------
# Predicate-entity co-occurrence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CooccurrenceConfig:
    seed: int = 0


@dataclass
class CooccurrenceModel:
    pair_counts: dict[tuple[str, str], int]
    pred_counts: dict[str, int]
    ent_counts: dict[str, int]
    head: LinearHead  # (2, 5) over count features
    # Memo of pair_prob for score_candidate_pe; see memo_pair_prob.
    _pair_probs: dict[tuple[int, int, int], float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def features(self, predicate: str, entity: str) -> np.ndarray:
        c = self.pair_counts.get((predicate, entity), 0)
        return np.array(
            [
                1.0,
                1.0 if c > 0 else 0.0,
                np.log1p(c),
                np.log1p(self.pred_counts.get(predicate, 0)),
                np.log1p(self.ent_counts.get(entity, 0)),
            ]
        )

    def pair_prob(self, predicate: str, entity: str) -> float:
        feats = self.features(predicate, entity)
        return float(learn.softmax(self.head.weight @ feats + self.head.bias)[1])

    def memo_pair_prob(self, predicate: str, entity: str) -> float:
        """``pair_prob``, memoised by the three counts its features are made
        of, so the memo stays bounded by the training counts whatever names
        the candidates carry."""
        key = (
            self.pair_counts.get((predicate, entity), 0),
            self.pred_counts.get(predicate, 0),
            self.ent_counts.get(entity, 0),
        )
        prob = self._pair_probs.get(key)
        if prob is None:
            prob = self._pair_probs[key] = self.pair_prob(predicate, entity)
        return prob


def extract_pred_entity_pairs(
    tokens: Sequence[str], entity_surfaces: Iterable[str]
) -> list[tuple[str, str]]:
    """(predicate, entity) pairs that share a parenthesized group, in order."""
    surfaces = set(entity_surfaces)
    pairs: list[tuple[str, str]] = []
    stack: list[list[str]] = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if not stack:
                continue
            group = stack.pop()
            preds = [t for t in group if t.startswith(lf.PREDICATE_PREFIX)]
            ents = [t for t in group if t in surfaces]
            for p in preds:
                for e in ents:
                    pairs.append((p, e))
        elif stack:
            stack[-1].append(tok)
    return pairs


def build_cooccurrence(
    train: Corpus, cfg: CooccurrenceConfig | None = None
) -> CooccurrenceModel:
    """Collect pairs from training triples and fit a small head to separate
    seen pairs from never-seen (predicate, entity) combinations."""
    cfg = cfg or CooccurrenceConfig()
    pair_counts: dict[tuple[str, str], int] = {}
    pred_counts: dict[str, int] = {}
    ent_counts: dict[str, int] = {}
    for sample in train:
        surfaces = [p.surface for p in sample.params if p.kind == "entity"]
        for pred, ent in extract_pred_entity_pairs(sample.lf.tokens, surfaces):
            pair_counts[(pred, ent)] = pair_counts.get((pred, ent), 0) + 1
            pred_counts[pred] = pred_counts.get(pred, 0) + 1
            ent_counts[ent] = ent_counts.get(ent, 0) + 1

    model = CooccurrenceModel(
        pair_counts=pair_counts,
        pred_counts=pred_counts,
        ent_counts=ent_counts,
        head=LinearHead.zeros(2, 5),
    )
    preds = sorted(pred_counts)
    if not preds:
        return model

    rng = random.Random(cfg.seed)
    examples: list[tuple[np.ndarray, int]] = []
    for pred, ent in sorted(pair_counts):
        examples.append((model.features(pred, ent), 1))
    for ent in sorted(ent_counts):  # up to 5 never-seen predicates per entity
        unseen = [p for p in preds if (p, ent) not in pair_counts]
        chosen = unseen if len(unseen) <= 5 else rng.sample(unseen, 5)
        for pred in chosen:
            examples.append((model.features(pred, ent), 0))
    feats, labels = zip(*examples)
    fit_pe_head(model.head, np.array(feats), np.array(labels), cfg.seed)
    return model


def fit_pe_head(head: LinearHead, feats: np.ndarray, labels: np.ndarray, seed: int) -> None:
    """Train ``head`` in place on (n, 5) count features and (n,) 0/1 labels:
    three Adam epochs of 32-example minibatches, one batched softmax
    gradient per minibatch."""
    params = {"head_w": head.weight, "head_b": head.bias}
    opt = AdamState.for_params(params, lr=0.1)
    shuffler = np.random.default_rng(seed + 1)
    for _ in range(3):  # epochs
        order = shuffler.permutation(len(labels))
        for start in range(0, len(order), 32):
            batch = order[start : start + 32]
            _, d_logits = learn.softmax_cross_entropy(
                feats[batch] @ head.weight.T + head.bias, labels[batch]
            )
            grads = {"head_w": d_logits.T @ feats[batch], "head_b": d_logits.sum(axis=0)}
            for g in grads.values():
                g /= len(batch)
            learn.step(params, grads, opt)


def score_candidate_pe(
    pool: Sequence[tuple[Sequence[str], Collection[str], Sequence[Sequence[int]]]],
    model: CooccurrenceModel,
) -> np.ndarray:
    """Per candidate of the pool, given as (tokens, entity surfaces, groups):
    the mean pair probability over its (predicate, entity) pairs, or a
    neutral 0.5 without pairs. ``groups`` holds the member positions of each
    parenthesized group in the order the groups close (``PatternEntry.groups``
    of the candidate's template), so the pairs are ``extract_pred_entity_pairs``'.

    One pass collects every candidate's pair probabilities; the candidates
    with n pairs then get their means from one (candidates, n) row sum.
    """
    scores = np.full(len(pool), 0.5)
    by_count: dict[int, tuple[list[int], list[float]]] = {}
    prob = model.memo_pair_prob
    for i, (tokens, surfaces, groups) in enumerate(pool):
        row: list[float] = []
        for members in groups:
            group = [tokens[j] for j in members]
            ents = [t for t in group if t in surfaces]
            if ents:
                row += [
                    prob(p, e) for p in group if p.startswith(lf.PREDICATE_PREFIX) for e in ents
                ]
        if row:
            rows, values = by_count.setdefault(len(row), ([], []))
            rows.append(i)
            values += row
    for n, (rows, values) in by_count.items():
        # np.mean's sum and division, one row per candidate.
        scores[rows] = np.add.reduce(np.array(values).reshape(len(rows), n), axis=1) / n
    return scores
