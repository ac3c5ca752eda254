"""Candidate scorers: the question-pattern / logical-form-pattern matching
network with in-class negative sampling, ranking-based resampling and a small
ensemble, plus the predicate-entity co-occurrence scorer."""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import learn, lf
from .data import Corpus, EmptyCorpus, Sample
from .learn import AdamState, EncoderParams, LinearHead, Vocab

logger = logging.getLogger(__name__)


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
    # The template's slots, found once when the entry is built: entity slots
    # as (position, filler index) pairs, value and type slots as positions.
    entity_positions: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)
    value_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)
    type_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        tokens = self.template.tokens
        arity = self.template.entity_arity
        self.entity_positions = tuple(
            (i, k - 1) for i, tok in enumerate(tokens) if (k := lf.entity_slot(tok))
        )
        if any(k >= arity for _, k in self.entity_positions):
            raise ValueError(f"template {' '.join(tokens)!r} has a slot beyond its arity {arity}")
        self.value_positions = tuple(lf.numeric_positions(tokens))
        self.type_positions = tuple(
            i for i in lf.isa_argument_positions(tokens) if not lf.is_entity_slot(tokens[i])
        )


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
class PatternPairSample:
    qp: lf.QuestionPattern
    lfp: lf.LfPattern
    label: int
    sketch_class: str


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


def pair_loss_grads(
    model: MatcherModel,
    pairs: Sequence[tuple[np.ndarray, np.ndarray, int]],
    grads: dict[str, np.ndarray],
) -> float:
    """Mean cross-entropy over (qp ids, lfp ids, label) pairs; accumulates grads.

    The batch's 2n patterns form a bag matrix (entries 1/len), so the mean
    embeddings are ``bag @ embedding`` and the embedding gradient is
    ``bag.T @ d_mean``.
    """
    n = len(pairs)
    if n == 0:
        return 0.0
    emb = model.encoder.embedding
    a_ids, b_ids, labels = zip(*pairs)
    seqs = a_ids + b_ids
    lengths = np.array([len(ids) for ids in seqs])
    bag = np.zeros((2 * n, len(emb)))
    np.add.at(
        bag,
        (np.repeat(np.arange(2 * n), lengths), np.concatenate(seqs)),
        np.repeat(1.0 / lengths, lengths),
    )
    means = bag @ emb
    a, b = means[:n], means[n:]
    feats, logits = pair_logits(a, b, model.head)
    labels = np.array(labels)
    rows = np.arange(n)
    total = -float(learn.log_softmax(logits)[rows, labels].sum())
    d_logits = learn.softmax(logits)
    d_logits[rows, labels] -= 1.0
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
    return total / n


def sample_negatives(
    qp: lf.QuestionPattern,
    gold_class: str,
    gold_pattern: lf.LfPattern,
    index: PatternIndex,
    k: int,
    rng: random.Random | int,
) -> list[PatternPairSample]:
    """Up to k uniform non-gold patterns from the gold sketch class."""
    if isinstance(rng, int):
        rng = random.Random(rng)
    entries = index.patterns(gold_class)
    if not entries:
        raise EmptyClass(f"no patterns for class {gold_class!r}")
    pool = [e.pattern for e in entries if e.pattern.tokens != gold_pattern.tokens]
    if len(pool) > k:
        pool = rng.sample(pool, k)
    return [
        PatternPairSample(qp=qp, lfp=p, label=0, sketch_class=gold_class) for p in pool
    ]


def select_by_rank(
    scored_negatives: Sequence[tuple[lf.LfPattern, float]],
    rng: random.Random,
    hard_count: int = HARD_COUNT,
    easy_count: int = EASY_COUNT,
    threshold: float = HARD_THRESHOLD,
) -> list[lf.LfPattern]:
    """Pick min(hard_count, |p > threshold|) hard and min(easy_count, rest) easy negatives."""
    hard = [p for p, prob in scored_negatives if prob > threshold]
    easy = [p for p, prob in scored_negatives if prob <= threshold]
    picked_hard = hard if len(hard) <= hard_count else rng.sample(hard, hard_count)
    picked_easy = easy if len(easy) <= easy_count else rng.sample(easy, easy_count)
    return list(picked_hard) + list(picked_easy)


def ranking_resample(
    model: MatcherModel,
    pool: Sequence[tuple[lf.QuestionPattern, str, lf.LfPattern, Sequence[lf.LfPattern]]],
    rng: random.Random | int,
    hard_count: int = HARD_COUNT,
    easy_count: int = EASY_COUNT,
    threshold: float = HARD_THRESHOLD,
    scores: dict[tuple[lf.TokenSeq, lf.TokenSeq], float] | None = None,
) -> list[PatternPairSample]:
    """Per question: rescore its negative pool with ``model`` and keep the
    ranking-sampled picks, labeled 0.

    ``scores`` memoises ``score_pair`` by (question pattern, negative) tokens;
    pass the same dict only to calls with the same, unchanged ``model``.
    """
    if isinstance(rng, int):
        rng = random.Random(rng)
    if scores is None:
        scores = {}
    out: list[PatternPairSample] = []
    for qp, cls, _gold, negatives in pool:
        scored = []
        for neg in negatives:
            key = (qp.tokens, neg.tokens)
            if key not in scores:
                scores[key] = score_pair(qp.tokens, neg.tokens, model)
            scored.append((neg, scores[key]))
        for neg in select_by_rank(scored, rng, hard_count, easy_count, threshold):
            out.append(PatternPairSample(qp=qp, lfp=neg, label=0, sketch_class=cls))
    return out


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
    pairs: list[tuple[np.ndarray, np.ndarray, int]],
    opt: AdamState,
    shuffler: np.random.Generator,
) -> float:
    params = model.params()
    order = shuffler.permutation(len(pairs))
    total = 0.0
    for start in range(0, len(order), BATCH_SIZE):
        batch = [pairs[i] for i in order[start : start + BATCH_SIZE]]
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        total += pair_loss_grads(model, batch, grads) * len(batch)
        learn.step(params, grads, opt)
    return total / max(1, len(pairs))


def _encode_pairs(
    vocab: Vocab,
    samples: Iterable[PatternPairSample],
    encoded: dict[lf.TokenSeq, np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Id arrays per pair; ``encoded`` memoises each distinct pattern's ids."""

    def ids(tokens: lf.TokenSeq) -> np.ndarray:
        if tokens not in encoded:
            encoded[tokens] = vocab.encode(tokens)
        return encoded[tokens]

    return [(ids(s.qp.tokens), ids(s.lfp.tokens), s.label) for s in samples]


def train_matcher_ensemble(
    train: Corpus,
    index: PatternIndex,
    cfg: MatcherConfig | None = None,
) -> MatcherEnsemble:
    """Base model on uniform in-class negatives, then refits on ranking-resampled
    negatives seeded from the base model; members are averaged at scoring time."""
    cfg = cfg or MatcherConfig()
    if not train.samples:
        raise EmptyCorpus("cannot train a matcher on an empty corpus")

    questions = []  # (qp, class, gold lfp, full negative pool)
    for sample in train:
        qp, lfp = sample_pattern_pair(sample)
        negatives = [
            e.pattern
            for e in index.patterns(sample.sketch_class)
            if e.pattern.tokens != lfp.tokens
        ]
        questions.append((qp, sample.sketch_class, lfp, negatives))

    vocab = Vocab.build(
        [q.tokens for q, _, _, _ in questions]
        + [entry.pattern.tokens for entries in index.by_class.values() for entry in entries]
    )
    base = init_matcher(vocab, cfg)
    positives = [
        PatternPairSample(qp=qp, lfp=gold, label=1, sketch_class=cls)
        for qp, cls, gold, _ in questions
    ]
    encoded: dict[lf.TokenSeq, np.ndarray] = {}
    pos_encoded = _encode_pairs(vocab, positives, encoded)

    opt = AdamState.for_params(base.params(), lr=LR)
    shuffler = np.random.default_rng(cfg.seed + 1)
    neg_rng = random.Random(cfg.seed + 2)
    for epoch in range(cfg.epochs):
        negatives: list[PatternPairSample] = []
        for qp, cls, gold, _ in questions:
            negatives.extend(sample_negatives(qp, cls, gold, index, NEGATIVES, neg_rng))
        pairs = pos_encoded + _encode_pairs(vocab, negatives, encoded)
        loss = _train_pairs_epoch(base, pairs, opt, shuffler)
        logger.info("matcher base epoch %d: loss %.4f", epoch, loss)

    members = [base]
    # base is fixed from here on, so every refit epoch reuses its scores.
    base_scores: dict[tuple[lf.TokenSeq, lf.TokenSeq], float] = {}
    for refit_idx in range(cfg.refits):
        refit = base.clone()
        opt = AdamState.for_params(refit.params(), lr=LR)
        refit_rng = random.Random(cfg.seed + 100 + refit_idx)
        for epoch in range(cfg.refit_epochs):
            resampled = ranking_resample(base, questions, refit_rng, scores=base_scores)
            pairs = pos_encoded + _encode_pairs(vocab, resampled, encoded)
            loss = _train_pairs_epoch(refit, pairs, opt, shuffler)
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
    tokens: Sequence[str], entity_surfaces: Iterable[str], model: CooccurrenceModel
) -> float:
    """Mean pair probability over a candidate's (predicate, entity) pairs;
    candidates with no pairs score a neutral 0.5."""
    pairs = extract_pred_entity_pairs(tokens, entity_surfaces)
    if not pairs:
        return 0.5
    return float(np.mean([model.memo_pair_prob(p, e) for p, e in pairs]))
