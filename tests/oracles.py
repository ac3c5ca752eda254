"""Reference implementations the library is tested against: the
straightforward per-sample loops behind its vectorised paths, and the
inverses and rankings that only tests need (substituting bindings back into
a sketch or template, ranking every same-class pattern)."""

from __future__ import annotations

import dataclasses
import random
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from sketchparse import genscore, learn, lf, matchers, multitask, pipeline
from sketchparse.data import Corpus
from sketchparse.learn import AdamState, LinearHead, Vocab
from sketchparse.matchers import (
    CooccurrenceModel,
    MatcherConfig,
    MatcherEnsemble,
    MatcherModel,
    PatternIndex,
)
from sketchparse.pipeline import FusionWeights


class ArityMismatch(lf.LfError):
    pass


def substitute_sketch(sketch: lf.Sketch) -> lf.LogicalForm:
    """Invert extract_sketch by writing the bound tokens back into the sketch."""
    binding = dict(sketch.bindings)
    return lf.LogicalForm(tuple(binding.get(tok, tok) for tok in sketch.tokens))


def normalize_surface(surface: str) -> str:
    """Underscore-join a possibly multi-word surface, logical-form style."""
    return "_".join(surface.split())


def substitute_template(template: lf.LfTemplate, fillers: Sequence[str]) -> lf.LogicalForm:
    """Fill entityK slots with fillers[K-1]; the output is re-checked for balance."""
    if len(fillers) != template.entity_arity:
        raise ArityMismatch(
            f"template arity {template.entity_arity}, got {len(fillers)} fillers"
        )
    out: list[str] = []
    for tok in template.tokens:
        k = lf.entity_slot(tok)
        if k:
            if k > len(fillers):
                raise ArityMismatch(f"slot entity{k} beyond {len(fillers)} fillers")
            out.append(normalize_surface(fillers[k - 1]))
        else:
            out.append(tok)
    return lf.parse_logical_form(" ".join(out))


def numeric_positions(tokens: Sequence[str]) -> list[int]:
    """Positions of numeric literals, i.e. the value slots of a template."""
    return [i for i, tok in enumerate(tokens) if lf.is_numeric(tok)]


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
            elif frame[0] and not tok.startswith("?") and not lf.is_numeric(tok):
                positions.append(i)
    return positions


def entry_slots(
    template: lf.LfTemplate,
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """PatternEntry's entity, value and type slots, one scan per kind."""
    tokens = template.tokens
    entity = tuple((i, k - 1) for i, tok in enumerate(tokens) if (k := lf.entity_slot(tok)))
    types = tuple(i for i in isa_argument_positions(tokens) if not lf.entity_slot(tokens[i]))
    return entity, tuple(numeric_positions(tokens)), types


def pair_loss_grads(
    model: MatcherModel,
    pairs: Sequence[tuple[np.ndarray, np.ndarray, int]],
    grads: dict[str, np.ndarray],
) -> float:
    """One pair at a time: mean cross-entropy, gradients accumulated into grads."""
    emb = model.encoder.embedding
    total = 0.0
    for a_ids, b_ids, label in pairs:
        a = emb[a_ids].mean(axis=0)
        b = emb[b_ids].mean(axis=0)
        diff = a - b
        feats = np.concatenate([a, b, np.abs(diff), a * b])
        loss, d_logits = learn.softmax_cross_entropy(
            (model.head.weight @ feats + model.head.bias)[None], [label]
        )
        d_logits = d_logits[0]
        total += float(loss[0])
        grads["head_w"] += np.outer(d_logits, feats)
        grads["head_b"] += d_logits
        d_feats = model.head.weight.T @ d_logits
        h = len(a)
        d_a = d_feats[:h] + np.sign(diff) * d_feats[2 * h : 3 * h] + b * d_feats[3 * h :]
        d_b = d_feats[h : 2 * h] - np.sign(diff) * d_feats[2 * h : 3 * h] + a * d_feats[3 * h :]
        np.add.at(grads["embedding"], a_ids, d_a[None, :] / len(a_ids))
        np.add.at(grads["embedding"], b_ids, d_b[None, :] / len(b_ids))
    n = max(1, len(pairs))
    for g in grads.values():
        g /= n
    return total / n


# The matcher trainer as one object per (question pattern, LF pattern) pair:
# each pair a PatternPairSample, each batch's bag matrix built from the pairs'
# ragged id lists, each question's negatives rescored in every resample.


@dataclass(frozen=True)
class PatternPairSample:
    qp: lf.QuestionPattern
    lfp: lf.LfPattern
    label: int
    sketch_class: str


def ragged_pair_loss_grads(
    model: MatcherModel,
    pairs: Sequence[tuple[np.ndarray, np.ndarray, int]],
    grads: dict[str, np.ndarray],
) -> float:
    """matchers.pair_loss_grads over (qp ids, lfp ids, label) pairs, with the
    batch's bag matrix built from their id lists."""
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
    feats, logits = matchers.pair_logits(a, b, model.head)
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
        raise matchers.EmptyClass(f"no patterns for class {gold_class!r}")
    pool = [e.pattern for e in entries if e.pattern.tokens != gold_pattern.tokens]
    if len(pool) > k:
        pool = rng.sample(pool, k)
    return [
        PatternPairSample(qp=qp, lfp=p, label=0, sketch_class=gold_class) for p in pool
    ]


def ranking_resample(
    model: MatcherModel,
    pool: Sequence[tuple[lf.QuestionPattern, str, lf.LfPattern, Sequence[lf.LfPattern]]],
    rng: random.Random,
    scores: dict[tuple[lf.TokenSeq, lf.TokenSeq], float],
) -> list[PatternPairSample]:
    """Per question: rebuild its scored negative list from ``scores`` (which
    memoises score_pair by tokens) and keep the ranking-sampled picks."""
    out: list[PatternPairSample] = []
    for qp, cls, _gold, negatives in pool:
        scored = []
        for neg in negatives:
            key = (qp.tokens, neg.tokens)
            if key not in scores:
                scores[key] = matchers.score_pair(qp.tokens, neg.tokens, model)
            scored.append((neg, scores[key]))
        for neg in matchers.select_by_rank(scored, rng):
            out.append(PatternPairSample(qp=qp, lfp=neg, label=0, sketch_class=cls))
    return out


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


def _train_pairs_epoch(
    model: MatcherModel,
    pairs: list[tuple[np.ndarray, np.ndarray, int]],
    opt: AdamState,
    shuffler: np.random.Generator,
) -> None:
    params = model.params()
    order = shuffler.permutation(len(pairs))
    for start in range(0, len(order), matchers.BATCH_SIZE):
        batch = [pairs[i] for i in order[start : start + matchers.BATCH_SIZE]]
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        ragged_pair_loss_grads(model, batch, grads)
        learn.step(params, grads, opt)


def train_matcher_ensemble(
    train: Corpus, index: PatternIndex, cfg: MatcherConfig
) -> MatcherEnsemble:
    """matchers.train_matcher_ensemble on PatternPairSample objects."""
    questions = []  # (qp, class, gold lfp, full negative pool)
    for sample in train:
        qp, lfp = matchers.sample_pattern_pair(sample)
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
    base = matchers.init_matcher(vocab, cfg)
    positives = [
        PatternPairSample(qp=qp, lfp=gold, label=1, sketch_class=cls)
        for qp, cls, gold, _ in questions
    ]
    encoded: dict[lf.TokenSeq, np.ndarray] = {}
    pos_encoded = _encode_pairs(vocab, positives, encoded)

    opt = AdamState.for_params(base.params(), lr=matchers.LR)
    shuffler = np.random.default_rng(cfg.seed + 1)
    neg_rng = random.Random(cfg.seed + 2)
    for _ in range(cfg.epochs):
        negatives: list[PatternPairSample] = []
        for qp, cls, gold, _ in questions:
            negatives.extend(
                sample_negatives(qp, cls, gold, index, matchers.NEGATIVES, neg_rng)
            )
        pairs = pos_encoded + _encode_pairs(vocab, negatives, encoded)
        _train_pairs_epoch(base, pairs, opt, shuffler)

    members = [base]
    base_scores: dict[tuple[lf.TokenSeq, lf.TokenSeq], float] = {}
    for refit_idx in range(cfg.refits):
        refit = base.clone()
        opt = AdamState.for_params(refit.params(), lr=matchers.LR)
        refit_rng = random.Random(cfg.seed + 100 + refit_idx)
        for _ in range(cfg.refit_epochs):
            resampled = ranking_resample(base, questions, refit_rng, base_scores)
            pairs = pos_encoded + _encode_pairs(vocab, resampled, encoded)
            _train_pairs_epoch(refit, pairs, opt, shuffler)
        members.append(refit)
    return MatcherEnsemble(members=members)


def rank(
    scored: Sequence[pipeline.ScoredCandidate], weights: FusionWeights
) -> list[pipeline.ScoredCandidate]:
    """pipeline.rank with each fused candidate made by ``dataclasses.replace``."""
    fused = [
        dataclasses.replace(
            s,
            fused=weights.w_pattern * s.pattern_score
            + weights.w_pe * s.pe_score
            + weights.w_gen * s.gen_score,
        )
        for s in scored
    ]
    return sorted(fused, key=lambda s: (-s.fused, -s.candidate.freq, s.candidate.text))


def top_candidate(
    pack: Sequence[tuple[tuple[str, ...], float, float, float, int]], weights: FusionWeights
) -> tuple[str, ...]:
    """The pack's best candidate under ``weights``: highest fused score, then
    highest pattern frequency, then first text."""
    best_key = None
    best_tokens: tuple[str, ...] = ()
    for tokens, ps, pe, gs, freq in pack:
        fused = weights.w_pattern * ps + weights.w_pe * pe + weights.w_gen * gs
        key = (-fused, -freq, " ".join(tokens))
        if best_key is None or key < best_key:
            best_key = key
            best_tokens = tokens
    return best_tokens


def tune_weights(dev_packs, step: float = 0.05) -> FusionWeights:
    """Grid point by grid point, each pack's top candidate from top_candidate."""
    best = None
    for weights in pipeline.grid_points(step):
        hits = sum(
            1
            for gold, pack in dev_packs
            if pack and top_candidate(pack, weights) == gold
        )
        key = (hits / len(dev_packs), weights.w_pattern, weights.w_pe)
        if best is None or key > best[0]:
            best = (key, weights)
    return best[1]


def ensemble_score(
    ensemble: MatcherEnsemble, qp_tokens: Sequence[str], pool: Sequence[Sequence[str]]
) -> list[float]:
    """Pair by pair: each member's head on [a, b, |a-b|, a*b] of the two mean
    embeddings, the softmax's match probability, averaged over members."""
    scores = []
    for tokens in pool:
        probs = []
        for m in ensemble.members:
            a = m.encoder.embedding[m.vocab.encode(qp_tokens)].mean(axis=0)
            b = m.encoder.embedding[m.vocab.encode(tokens)].mean(axis=0)
            feats = np.concatenate([a, b, np.abs(a - b), a * b])
            probs.append(learn.softmax(m.head.weight @ feats + m.head.bias)[1])
        scores.append(float(np.mean(probs)))
    return scores


def pattern_ranking_accuracy(
    scorer: MatcherEnsemble | MatcherModel, corpus: Corpus, index: PatternIndex
) -> float:
    """Fraction of samples whose gold pattern outranks all same-class patterns."""
    if not corpus.samples:
        return 0.0
    ensemble = scorer if isinstance(scorer, MatcherEnsemble) else MatcherEnsemble([scorer])
    hits = 0
    for sample in corpus:
        qp, gold = matchers.sample_pattern_pair(sample)
        patterns = [e.pattern.tokens for e in index.patterns(sample.sketch_class)]
        if gold.tokens not in patterns:
            continue
        scored = sorted(
            zip(ensemble.score(qp.tokens, patterns).tolist(), patterns),
            key=lambda pair: (-pair[0], pair[1]),
        )
        hits += scored[0][1] == gold.tokens
    return hits / len(corpus.samples)


def gen_scores(
    model: genscore.GenModel,
    question_tokens: Sequence[str],
    sketch_class: str,
    candidates_split: Sequence[Sequence[str]],
) -> list[float]:
    """Candidate by candidate: each member's seq_loss, normalized per member,
    then averaged over members."""
    if not candidates_split:
        return []
    stats = model.stats_for(sketch_class)
    per_member = []
    for member in model.members:
        losses = [
            genscore.seq_loss(question_tokens, words, stats, member.lam, member.alpha)
            for words in candidates_split
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", genscore.AllZeroLosses)
            per_member.append(genscore.normalize_losses(losses))
    return [float(np.mean(col)) for col in zip(*per_member)]


def score_candidate_pe(
    tokens: Sequence[str], entity_surfaces: Iterable[str], model: CooccurrenceModel
) -> float:
    """Unmemoised: the mean of pair_prob over the candidate's pairs, 0.5 without pairs."""
    pairs = matchers.extract_pred_entity_pairs(tokens, entity_surfaces)
    if not pairs:
        return 0.5
    return float(np.mean([model.pair_prob(p, e) for p, e in pairs]))


def crf_score(emissions: np.ndarray, trans: np.ndarray, labels: Sequence[int]) -> float:
    """Path score of one (K, T) sequence: emissions plus transitions along the labels."""
    labels = list(labels)
    k, m = emissions.shape
    if len(labels) != m:
        raise multitask.BadLabel(f"{len(labels)} labels for {m} positions")
    if any(y < 0 or y >= k for y in labels):
        raise multitask.BadLabel(f"label outside 0..{k - 1}")
    total = float(emissions[labels[0], 0])
    for t in range(1, m):
        total += float(trans[labels[t - 1], labels[t]] + emissions[labels[t], t])
    return total


def crf_nll_grad(
    emissions: np.ndarray, trans: np.ndarray, labels: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """One (K, T) sequence: NLL with gradients w.r.t. emissions and
    transitions (marginals minus gold)."""
    labels = list(labels)
    k, m = emissions.shape
    alpha = np.empty((m, k))
    alpha[0] = emissions[:, 0]
    for t in range(1, m):
        alpha[t] = learn.logsumexp(alpha[t - 1][:, None] + trans, axis=0) + emissions[:, t]
    beta = np.empty((m, k))
    beta[m - 1] = 0.0
    for t in range(m - 2, -1, -1):
        beta[t] = learn.logsumexp(
            trans + emissions[:, t + 1][None, :] + beta[t + 1][None, :], axis=1
        )
    log_z = learn.logsumexp(alpha[m - 1])
    loss = float(log_z) - crf_score(emissions, trans, labels)

    d_emissions = np.exp(alpha + beta - log_z).T  # node marginals, (k, m)
    d_trans = np.zeros_like(trans)
    for t in range(1, m):
        log_pair = (
            alpha[t - 1][:, None] + trans + emissions[:, t][None, :] + beta[t][None, :] - log_z
        )
        d_trans += np.exp(log_pair)
    d_emissions[labels[0], 0] -= 1.0
    for t in range(1, m):
        d_emissions[labels[t], t] -= 1.0
        d_trans[labels[t - 1], labels[t]] -= 1.0
    return loss, d_emissions, d_trans


def sample_grads(
    model: multitask.MultiTaskModel,
    ids: np.ndarray,
    class_idx: int,
    labels: Sequence[int],
    grads: dict[str, np.ndarray],
) -> float:
    """One sample's joint loss, its gradients accumulated into ``grads``."""
    w_s, w_e = model.config.loss_weights
    window = model.encoder.window
    hidden = model.encoder.hidden
    m = len(ids)

    sent = learn.encode_sentence(ids, model.encoder)
    ce, d_logits = learn.softmax_cross_entropy(
        (model.cls.weight @ sent + model.cls.bias)[None], [class_idx]
    )
    d_logits = d_logits[0]
    grads["cls_w"] += w_s * np.outer(d_logits, sent)
    grads["cls_b"] += w_s * d_logits
    d_sent = w_s * (model.cls.weight.T @ d_logits)
    np.add.at(grads["embedding"], ids, d_sent[None, :] / m)

    token_mat = learn.encode_tokens(ids, model.encoder)
    emissions = model.emit.weight @ token_mat + model.emit.bias[:, None]
    nll, d_emissions, d_trans = crf_nll_grad(emissions, model.trans, labels)
    grads["emit_w"] += w_e * (d_emissions @ token_mat.T)
    grads["emit_b"] += w_e * d_emissions.sum(axis=1)
    grads["trans"] += w_e * d_trans
    d_tokens = model.emit.weight.T @ d_emissions  # ((2w+1)h, m)
    np.add.at(
        grads["embedding"],
        learn.window_ids(ids, window),
        w_e * d_tokens.T.reshape(m, 2 * window + 1, hidden),
    )
    return w_s * float(ce[0]) + w_e * nll


def fit_pe_head(head: LinearHead, feats: np.ndarray, labels: np.ndarray, seed: int) -> None:
    """matchers.fit_pe_head with one softmax_cross_entropy call per example."""
    params = {"head_w": head.weight, "head_b": head.bias}
    opt = learn.AdamState.for_params(params, lr=0.1)
    shuffler = np.random.default_rng(seed + 1)
    for _ in range(3):
        order = shuffler.permutation(len(labels))
        for start in range(0, len(order), 32):
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            batch = order[start : start + 32]
            for i in batch:
                _, d_logits = learn.softmax_cross_entropy(
                    (head.weight @ feats[i] + head.bias)[None], [labels[i]]
                )
                grads["head_w"] += np.outer(d_logits[0], feats[i])
                grads["head_b"] += d_logits[0]
            for g in grads.values():
                g /= len(batch)
            learn.step(params, grads, opt)
