"""Joint sketch classification and CRF entity labeling over a shared encoder.

One model carries a shared embedding table, a classifier head over the mean
sentence encoding, an emission head over windowed token encodings and a
linear-chain CRF transition matrix. The training loss is the weighted sum
1 * cross-entropy(sketch) + 2 * CRF negative log-likelihood.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import learn
from .data import Corpus, EmptyCorpus, Sample
from .learn import AdamState, EncoderParams, LinearHead, Vocab, logsumexp

logger = logging.getLogger(__name__)

LABELS = ("b", "i", "o", "p")
L_B, L_I, L_O, L_P = range(4)


# Questions are cut to their first MAX_LEN tokens, in training and at parse
# time, which also bounds what one question can cost.
MAX_LEN = 64


class BadLabel(Exception):
    pass


@dataclass(frozen=True)
class MultiTaskConfig:
    hidden: int = 64
    window: int = 2
    epochs: int = 10  # upper bound: training stops once dev joint accuracy is 1.0
    batch_size: int = 32
    lr: float = 1e-2
    seed: int = 0
    loss_weights: tuple[float, float] = (1.0, 2.0)  # (sketch CE, labeling CRF)


@dataclass
class MultiTaskModel:
    vocab: Vocab
    encoder: EncoderParams
    cls: LinearHead  # (num classes, hidden)
    emit: LinearHead  # (4, (2w+1)*hidden)
    trans: np.ndarray  # (4, 4)
    classes: list[str]
    config: MultiTaskConfig = field(default_factory=MultiTaskConfig)

    def params(self) -> dict[str, np.ndarray]:
        return {
            "embedding": self.encoder.embedding,
            "cls_w": self.cls.weight,
            "cls_b": self.cls.bias,
            "emit_w": self.emit.weight,
            "emit_b": self.emit.bias,
            "trans": self.trans,
        }

    def load_params(self, params: dict[str, np.ndarray]) -> None:
        self.encoder.embedding = params["embedding"]
        self.cls.weight = params["cls_w"]
        self.cls.bias = params["cls_b"]
        self.emit.weight = params["emit_w"]
        self.emit.bias = params["emit_b"]
        self.trans = params["trans"]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.params().items()}


def init_model(
    vocab: Vocab, classes: Sequence[str], cfg: MultiTaskConfig
) -> MultiTaskModel:
    rng = np.random.default_rng(cfg.seed)
    encoder = learn.init_encoder(len(vocab), cfg.hidden, cfg.window, rng)
    span = (2 * cfg.window + 1) * cfg.hidden
    return MultiTaskModel(
        vocab=vocab,
        encoder=encoder,
        cls=LinearHead.zeros(len(classes), cfg.hidden),
        emit=LinearHead.zeros(len(LABELS), span),
        trans=np.zeros((len(LABELS), len(LABELS))),
        classes=list(classes),
        config=cfg,
    )


# ---------------------------------------------------------------------------
# Linear-chain CRF
# ---------------------------------------------------------------------------


def crf_score(emissions: np.ndarray, trans: np.ndarray, labels: Sequence[int]) -> float:
    """Path score: sum of emissions plus transitions along the label sequence."""
    labels = list(labels)
    k, m = emissions.shape
    if len(labels) != m:
        raise BadLabel(f"{len(labels)} labels for {m} positions")
    if any(y < 0 or y >= k for y in labels):
        raise BadLabel(f"label outside 0..{k - 1}")
    total = float(emissions[labels[0], 0])
    for t in range(1, m):
        total += float(trans[labels[t - 1], labels[t]] + emissions[labels[t], t])
    return total


def crf_log_partition(emissions: np.ndarray, trans: np.ndarray) -> float:
    """log sum over all k^m paths of exp(path score), by the forward recursion."""
    k, m = emissions.shape
    alpha = emissions[:, 0].astype(np.float64)
    for t in range(1, m):
        alpha = logsumexp(alpha[:, None] + trans, axis=0) + emissions[:, t]
    return float(logsumexp(alpha))


def crf_nll(emissions: np.ndarray, trans: np.ndarray, labels: Sequence[int]) -> float:
    return crf_log_partition(emissions, trans) - crf_score(emissions, trans, labels)


def crf_nll_grad(
    emissions: np.ndarray, trans: np.ndarray, labels: Sequence[int]
) -> tuple[float, np.ndarray, np.ndarray]:
    """NLL with gradients w.r.t. emissions and transitions (marginals minus gold)."""
    labels = list(labels)
    k, m = emissions.shape
    alpha = np.empty((m, k))
    alpha[0] = emissions[:, 0]
    for t in range(1, m):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + trans, axis=0) + emissions[:, t]
    beta = np.empty((m, k))
    beta[m - 1] = 0.0
    for t in range(m - 2, -1, -1):
        beta[t] = logsumexp(trans + emissions[:, t + 1][None, :] + beta[t + 1][None, :], axis=1)
    log_z = logsumexp(alpha[m - 1])
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


def viterbi(emissions: np.ndarray, trans: np.ndarray) -> list[int]:
    """Highest-scoring label path; ties resolve toward the lower label index."""
    k, m = emissions.shape
    score = emissions[:, 0].astype(np.float64)
    back = np.zeros((m, k), dtype=np.int64)
    for t in range(1, m):
        cand = score[:, None] + trans  # (from, to)
        back[t] = cand.argmax(axis=0)
        score = cand[back[t], np.arange(k)] + emissions[:, t]
    path = [int(score.argmax())]
    for t in range(m - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path


# ---------------------------------------------------------------------------
# Label sequences and span extraction
# ---------------------------------------------------------------------------


def gold_labels(sample: Sample, max_len: int | None = None) -> list[int]:
    """b/i over every annotated parameter span, o elsewhere."""
    length = len(sample.question_tokens)
    if max_len is not None:
        length = min(length, max_len)
    labels = [L_O] * length
    for p in sample.params:
        start, end = p.span
        if start >= length:
            continue
        labels[start] = L_B
        for i in range(start + 1, min(end, length - 1) + 1):
            labels[i] = L_I
    return labels


def extract_entities(
    question: Sequence[str], labels: Sequence[int | str]
) -> list[tuple[int, int]]:
    """Maximal b,i... runs as inclusive spans; a bare i starts a new span."""
    idx = [LABELS.index(y) if isinstance(y, str) else int(y) for y in labels]
    spans: list[tuple[int, int]] = []
    start = None
    for i, y in enumerate(idx[: len(question)]):
        if y == L_B:
            if start is not None:
                spans.append((start, i - 1))
            start = i
        elif y == L_I:
            if start is None:
                start = i
        else:  # o or p closes any open span
            if start is not None:
                spans.append((start, i - 1))
                start = None
    if start is not None:
        spans.append((start, len(idx[: len(question)]) - 1))
    return spans


# ---------------------------------------------------------------------------
# Forward/backward and training
# ---------------------------------------------------------------------------


def classify_sketch(question_tokens: Sequence[str], model: MultiTaskModel) -> np.ndarray:
    """Class probabilities for a question; argmax is the predicted sketch."""
    ids = model.vocab.encode(question_tokens[:MAX_LEN])
    sent = learn.encode_sentence(ids, model.encoder)
    return learn.softmax(model.cls.weight @ sent + model.cls.bias)


def predict_labels(question_tokens: Sequence[str], model: MultiTaskModel) -> list[int]:
    ids = model.vocab.encode(question_tokens[:MAX_LEN])
    token_mat = learn.encode_tokens(ids, model.encoder)
    emissions = model.emit.weight @ token_mat + model.emit.bias[:, None]
    return viterbi(emissions, model.trans)


def predict_spans(
    question_tokens: Sequence[str], model: MultiTaskModel
) -> list[tuple[int, int]]:
    return extract_entities(question_tokens, predict_labels(question_tokens, model))


def joint_loss(
    model: MultiTaskModel, ids: np.ndarray, class_idx: int, labels: Sequence[int]
) -> tuple[float, float, float]:
    """(joint, sketch CE, CRF NLL) for one sample, joint = w_s*CE + w_e*NLL."""
    w_s, w_e = model.config.loss_weights
    sent = learn.encode_sentence(ids, model.encoder)
    ce, _ = learn.softmax_cross_entropy(model.cls.weight @ sent + model.cls.bias, class_idx)
    token_mat = learn.encode_tokens(ids, model.encoder)
    emissions = model.emit.weight @ token_mat + model.emit.bias[:, None]
    nll = crf_nll(emissions, model.trans, labels)
    return w_s * ce + w_e * nll, ce, nll


def sample_grads(
    model: MultiTaskModel,
    ids: np.ndarray,
    class_idx: int,
    labels: Sequence[int],
    grads: dict[str, np.ndarray],
) -> float:
    """Accumulate joint-loss gradients for one sample into ``grads``."""
    w_s, w_e = model.config.loss_weights
    emb = model.encoder.embedding
    window = model.encoder.window
    hidden = model.encoder.hidden
    m = len(ids)

    # Sketch head
    sent = learn.encode_sentence(ids, model.encoder)
    ce, d_logits = learn.softmax_cross_entropy(
        model.cls.weight @ sent + model.cls.bias, class_idx
    )
    grads["cls_w"] += w_s * np.outer(d_logits, sent)
    grads["cls_b"] += w_s * d_logits
    d_sent = w_s * (model.cls.weight.T @ d_logits)
    np.add.at(grads["embedding"], ids, d_sent[None, :] / m)

    # Labeling head
    token_mat = learn.encode_tokens(ids, model.encoder)
    emissions = model.emit.weight @ token_mat + model.emit.bias[:, None]
    nll, d_emissions, d_trans = crf_nll_grad(emissions, model.trans, labels)
    grads["emit_w"] += w_e * (d_emissions @ token_mat.T)
    grads["emit_b"] += w_e * d_emissions.sum(axis=1)
    grads["trans"] += w_e * d_trans
    d_tokens = model.emit.weight.T @ d_emissions  # ((2w+1)h, m)
    padded = np.concatenate(
        [np.full(window, learn.PAD, dtype=np.int64), ids, np.full(window, learn.PAD, dtype=np.int64)]
    )
    ctx = padded[learn.window_indices(m, window)]  # (m, 2w+1)
    np.add.at(
        grads["embedding"],
        ctx,
        w_e * d_tokens.T.reshape(m, 2 * window + 1, hidden),
    )
    return w_s * ce + w_e * nll


def _zero_grads(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def dev_metrics(model: MultiTaskModel, corpus: Corpus) -> dict[str, float]:
    """Sketch accuracy, span accuracy and joint accuracy on a corpus."""
    if not corpus.samples:
        return {"sketch_acc": 0.0, "span_acc": 0.0, "joint_acc": 0.0}
    class_to_idx = {c: i for i, c in enumerate(model.classes)}
    sketch_hits = span_hits = joint_hits = 0
    for sample in corpus:
        probs = classify_sketch(sample.question_tokens, model)
        pred_class = model.classes[int(np.argmax(probs))]
        sketch_ok = class_to_idx.get(sample.sketch_class) is not None and (
            pred_class == sample.sketch_class
        )
        spans = predict_spans(sample.question_tokens, model)
        span_ok = spans == sample.sorted_spans()
        sketch_hits += sketch_ok
        span_hits += span_ok
        joint_hits += sketch_ok and span_ok
    n = len(corpus.samples)
    return {
        "sketch_acc": sketch_hits / n,
        "span_acc": span_hits / n,
        "joint_acc": joint_hits / n,
    }


def train_multitask(
    train: Corpus, dev: Corpus, cfg: MultiTaskConfig | None = None
) -> MultiTaskModel:
    """Fit the joint model and return the best-dev-joint-accuracy snapshot,
    stopping early once dev joint accuracy reaches 1.0."""
    cfg = cfg or MultiTaskConfig()
    if not train.samples:
        raise EmptyCorpus("cannot train on an empty corpus")
    vocab = Vocab.build(s.question_tokens for s in train)
    classes = train.classes()
    class_to_idx = {c: i for i, c in enumerate(classes)}
    model = init_model(vocab, classes, cfg)

    encoded = []
    for sample in train:
        ids = vocab.encode(sample.question_tokens[:MAX_LEN])
        encoded.append((ids, class_to_idx[sample.sketch_class], gold_labels(sample, MAX_LEN)))

    params = model.params()
    opt = AdamState.for_params(params, lr=cfg.lr)
    shuffler = np.random.default_rng(cfg.seed + 1)

    best = model.snapshot()
    best_acc = -1.0
    for epoch in range(cfg.epochs):
        order = shuffler.permutation(len(encoded))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            grads = _zero_grads(params)
            for i in batch:
                ids, class_idx, labels = encoded[i]
                sample_grads(model, ids, class_idx, labels, grads)
            for g in grads.values():
                g /= len(batch)
            learn.step(params, grads, opt)
        metrics = dev_metrics(model, dev) if dev.samples else dev_metrics(model, train)
        logger.info(
            "epoch %d: dev sketch %.4f span %.4f joint %.4f",
            epoch,
            metrics["sketch_acc"],
            metrics["span_acc"],
            metrics["joint_acc"],
        )
        if metrics["joint_acc"] > best_acc:
            best_acc = metrics["joint_acc"]
            best = model.snapshot()
        if best_acc >= 1.0:
            # Only a strict improvement replaces the snapshot, so no later
            # epoch can change the returned model.
            logger.info("stopping after epoch %d: dev joint accuracy reached 1.0", epoch)
            break
    model.load_params(best)
    return model
