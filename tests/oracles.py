"""Reference implementations the library is tested against: the
straightforward per-sample loops behind its vectorised paths, and the
inverses and rankings that only tests need (substituting bindings back into
a sketch or template, ranking every same-class pattern)."""

from __future__ import annotations

import warnings
from typing import Iterable, Sequence

import numpy as np

from sketchparse import genscore, learn, lf, matchers, multitask, pipeline
from sketchparse.data import Corpus
from sketchparse.learn import LinearHead
from sketchparse.matchers import CooccurrenceModel, MatcherEnsemble, MatcherModel, PatternIndex
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
