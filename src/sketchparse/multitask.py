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
from .learn import PAD, AdamState, EncoderParams, LinearHead, Vocab, logsumexp
from .lf import EmptyInput

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


def crf_nll_grad(
    emissions: np.ndarray, trans: np.ndarray, labels: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched, masked CRF: each sequence's NLL, with gradients w.r.t. the
    emissions (node marginals minus gold) and the transitions (pair marginals
    minus gold, summed over the batch).

    emissions is (B, T, K), labels (B, T) and lengths (B,), each in 1..T.
    Past a sequence's length alpha is carried forward and beta is 0, and its
    marginals are masked, so padding changes no row's loss or gradient.
    """
    b, m, k = emissions.shape
    labels = np.asarray(labels)
    lengths = np.asarray(lengths)
    if labels.shape != (b, m) or lengths.shape != (b,):
        raise BadLabel(f"labels {labels.shape} and lengths {lengths.shape} for {b} x {m} positions")
    if b and (lengths.min() < 1 or lengths.max() > m):
        raise BadLabel(f"lengths outside 1..{m}")
    mask = np.arange(m)[None, :] < lengths[:, None]  # (B, T)
    if np.any(mask & ((labels < 0) | (labels >= k))):
        raise BadLabel(f"label outside 0..{k - 1}")
    gold = np.where(mask, labels, 0)

    alpha = np.empty((b, m, k))
    alpha[:, 0] = emissions[:, 0]
    for t in range(1, m):
        step = logsumexp(alpha[:, t - 1, :, None] + trans, axis=1) + emissions[:, t]
        alpha[:, t] = np.where(mask[:, t, None], step, alpha[:, t - 1])
    beta = np.zeros((b, m, k))
    for t in range(m - 2, -1, -1):
        step = logsumexp(
            trans + emissions[:, t + 1, None, :] + beta[:, t + 1, None, :], axis=2
        )
        beta[:, t] = np.where(mask[:, t + 1, None], step, 0.0)
    log_z = logsumexp(alpha[:, m - 1], axis=1)  # (B,)

    rows = np.arange(b)[:, None]
    cols = np.arange(m)[None, :]
    gold_pairs = gold[:, :-1] * k + gold[:, 1:]  # flat (from, to) index
    score = np.where(mask, emissions[rows, cols, gold], 0.0).sum(axis=1)
    score += np.where(mask[:, 1:], trans.ravel()[gold_pairs], 0.0).sum(axis=1)

    d_emissions = np.where(mask[..., None], np.exp(alpha + beta - log_z[:, None, None]), 0.0)
    d_emissions[rows, cols, gold] -= mask
    log_pair = (
        alpha[:, :-1, :, None]
        + trans
        + emissions[:, 1:, None, :]
        + beta[:, 1:, None, :]
        - log_z[:, None, None, None]
    )
    d_trans = np.exp(np.where(mask[:, 1:, None, None], log_pair, -np.inf)).sum(axis=(0, 1))
    d_trans -= np.bincount(gold_pairs[mask[:, 1:]], minlength=k * k).reshape(k, k)
    return log_z - score, d_emissions, d_trans


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


def sample_grads(
    model: MultiTaskModel,
    ids: np.ndarray,
    lengths: np.ndarray,
    class_ids: np.ndarray,
    labels: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulate the joint-loss gradients of a padded batch, summed over its
    rows, into ``grads``; returns each row's joint loss.

    ids and labels are (B, T), PAD-padded past each row's length (B,), and
    class_ids is (B,).
    """
    w_s, w_e = model.config.loss_weights
    emb = model.encoder.embedding
    w = model.encoder.window
    hidden = model.encoder.hidden
    span = 2 * w + 1
    k = model.emit.weight.shape[0]
    b, m = ids.shape
    if b and lengths.min() < 1:
        raise EmptyInput("cannot encode an empty token sequence")
    mask = np.arange(m)[None, :] < lengths[:, None]
    # Each row with w PADs on both sides: offset j of position t's window is
    # padded position t + j, so one (B, T + 2w, h) gather encodes the batch.
    padded = np.pad(ids, ((0, 0), (w, w)), constant_values=PAD)
    vecs = emb[padded]

    # Sketch head over the mean of each row's token embeddings
    sent = np.where(mask[..., None], vecs[:, w : w + m], 0.0).sum(axis=1) / lengths[:, None]
    ce, d_logits = learn.softmax_cross_entropy(
        sent @ model.cls.weight.T + model.cls.bias, class_ids
    )
    grads["cls_w"] += w_s * (d_logits.T @ sent)
    grads["cls_b"] += w_s * d_logits.sum(axis=0)
    d_sent = w_s * (d_logits @ model.cls.weight) / lengths[:, None]

    # Labeling head. The emission head as (h, offset x label): one matmul
    # projects every padded position through every window offset, and the
    # emissions at t sum offset j's projection of position t + j.
    head = model.emit.weight.reshape(k, span, hidden).transpose(2, 1, 0).reshape(hidden, -1)
    proj = (vecs.reshape(-1, hidden) @ head).reshape(b, m + 2 * w, span, k)
    emissions = proj[:, :m, 0] + model.emit.bias
    for j in range(1, span):
        emissions += proj[:, j : j + m, j]
    nll, d_emissions, d_trans = crf_nll_grad(emissions, model.trans, labels, lengths)
    grads["emit_b"] += w_e * d_emissions.sum(axis=(0, 1))
    grads["trans"] += w_e * d_trans
    d_proj = np.zeros_like(proj)
    for j in range(span):
        d_proj[:, j : j + m, j] = d_emissions
    d_proj = w_e * d_proj.reshape(-1, span * k)
    d_head = vecs.reshape(-1, hidden).T @ d_proj
    grads["emit_w"] += d_head.reshape(hidden, span, k).transpose(2, 1, 0).reshape(k, -1)

    # Both heads reach the embedding through the padded positions: the mean's
    # gradient joins each real token's own, then one scatter of id * h + column.
    d_vecs = (d_proj @ head.T).reshape(b, m + 2 * w, hidden)
    d_vecs[:, w : w + m] += np.where(mask[..., None], d_sent[:, None, :], 0.0)
    flat = np.add.outer(padded.ravel() * hidden, np.arange(hidden)).ravel()
    grads["embedding"] += np.bincount(
        flat, weights=d_vecs.ravel(), minlength=emb.size
    ).reshape(emb.shape)
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

    # The corpus as one PAD-padded matrix; each batch takes its rows, cut to
    # its longest question.
    lengths = np.array([min(len(s.question_tokens), MAX_LEN) for s in train])
    ids = np.full((len(lengths), lengths.max()), PAD, dtype=np.int64)
    labels = np.full(ids.shape, L_O, dtype=np.int64)
    for row, sample in enumerate(train):
        ids[row, : lengths[row]] = vocab.encode(sample.question_tokens[:MAX_LEN])
        labels[row, : lengths[row]] = gold_labels(sample, MAX_LEN)
    class_ids = np.array([class_to_idx[s.sketch_class] for s in train], dtype=np.int64)

    params = model.params()
    opt = AdamState.for_params(params, lr=cfg.lr)
    shuffler = np.random.default_rng(cfg.seed + 1)

    best = model.snapshot()
    best_acc = -1.0
    for epoch in range(cfg.epochs):
        order = shuffler.permutation(len(lengths))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            width = lengths[batch].max()
            grads = _zero_grads(params)
            sample_grads(
                model,
                ids[batch, :width],
                lengths[batch],
                class_ids[batch],
                labels[batch, :width],
                grads,
            )
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
