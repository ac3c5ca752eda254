"""Minimal learning core shared by the trainable stages: token embeddings,
windowed encoders, softmax/cross-entropy and an Adam optimizer.

All math is float64 numpy; no autograd, gradients are written by hand and
checked against finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .lf import EmptyInput

PAD = 0
UNK = 1


class ShapeMismatch(Exception):
    pass


@dataclass
class Vocab:
    """Token-to-index map with reserved padding (0) and unknown (1) slots."""

    tokens: list[str]  # includes the two reserved pseudo-tokens
    index: dict[str, int] = field(repr=False, default_factory=dict)

    RESERVED = ("<pad>", "<unk>")

    def __post_init__(self):
        if not self.index:
            self.index = {tok: i for i, tok in enumerate(self.tokens)}

    @classmethod
    def build(cls, token_streams: Iterable[Sequence[str]]) -> "Vocab":
        tokens = list(cls.RESERVED)
        seen = set(tokens)
        for stream in token_streams:
            for tok in stream:
                if tok not in seen:
                    seen.add(tok)
                    tokens.append(tok)
        return cls(tokens=tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.index.get(tok, UNK) for tok in tokens], dtype=np.int64)


@dataclass
class EncoderParams:
    """Embedding table plus the context-window radius used for token encoding."""

    embedding: np.ndarray  # (vocab, hidden)
    window: int = 2

    @property
    def hidden(self) -> int:
        return self.embedding.shape[1]


def init_encoder(
    vocab_size: int, hidden: int, window: int, rng: np.random.Generator
) -> EncoderParams:
    return EncoderParams(
        embedding=rng.normal(0.0, 0.1, size=(vocab_size, hidden)), window=window
    )


@dataclass
class LinearHead:
    weight: np.ndarray  # (k, d)
    bias: np.ndarray  # (k,)

    @classmethod
    def zeros(cls, k: int, d: int) -> "LinearHead":
        return cls(weight=np.zeros((k, d)), bias=np.zeros(k))


def encode_sentence(ids: np.ndarray, encoder: EncoderParams) -> np.ndarray:
    """Mean of token embeddings, the aggregate sentence representation."""
    if len(ids) == 0:
        raise EmptyInput("cannot encode an empty token sequence")
    return encoder.embedding[ids].mean(axis=0)


def window_indices(length: int, window: int) -> np.ndarray:
    """(length, 2w+1) ids into a sequence padded with w PADs on each side."""
    return np.arange(length)[:, None] + np.arange(2 * window + 1)[None, :]


def encode_tokens(ids: np.ndarray, encoder: EncoderParams) -> np.ndarray:
    """Per-token contextual encoding, column i = concatenated embeddings of
    tokens i-w .. i+w with the padding embedding outside the sequence.

    Returns a ((2w+1)*hidden, len(ids)) matrix.
    """
    if len(ids) == 0:
        raise EmptyInput("cannot encode an empty token sequence")
    w = encoder.window
    padded = np.concatenate([np.full(w, PAD, dtype=np.int64), ids, np.full(w, PAD, dtype=np.int64)])
    ctx = padded[window_indices(len(ids), w)]  # (m, 2w+1)
    return encoder.embedding[ctx].reshape(len(ids), -1).T


def encode_pair(a_ids: np.ndarray, b_ids: np.ndarray, encoder: EncoderParams) -> np.ndarray:
    """[mean(a); mean(b); |mean(a)-mean(b)|; mean(a)*mean(b)], a 4h vector."""
    a = encode_sentence(a_ids, encoder)
    b = encode_sentence(b_ids, encoder)
    return np.concatenate([a, b, np.abs(a - b), a * b])


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def logsumexp(z: np.ndarray, axis: int | None = None) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if axis is None:
        m = z.max()
        return np.log(np.exp(z - m).sum()) + m
    m = z.max(axis=axis, keepdims=True)
    return np.squeeze(np.log(np.exp(z - m).sum(axis=axis, keepdims=True)) + m, axis=axis)


def softmax_cross_entropy(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Loss and gradient w.r.t. logits for one labeled instance."""
    logp = log_softmax(logits)
    grad = softmax(logits)
    grad[target] -= 1.0
    return -float(logp[target]), grad


# Adam's moment decay rates and denominator floor.
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators for a named parameter set."""

    lr: float = 1e-2
    step_count: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: Mapping[str, np.ndarray], lr: float = 1e-2) -> "AdamState":
        state = cls(lr=lr)
        for name, value in params.items():
            state.m[name] = np.zeros_like(value)
            state.v[name] = np.zeros_like(value)
        return state


def step(
    params: dict[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> dict[str, np.ndarray]:
    """One Adam update, in place on the parameter arrays."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for name, grad in grads.items():
        if name not in params:
            raise ShapeMismatch(f"gradient for unknown parameter {name!r}")
        if grad.shape != params[name].shape:
            raise ShapeMismatch(
                f"{name}: gradient shape {grad.shape} != parameter shape {params[name].shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * grad * grad
        update = (m / bc1) / (np.sqrt(v / bc2) + EPS)
        params[name] -= state.lr * update
    return params


# ---------------------------------------------------------------------------
# Checkpoint container: named float64 arrays in an .npz plus JSON metadata.
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """A model directory whose files disagree with each other or with this code."""


class UnsupportedCheckpoint(CheckpointError):
    """A checkpoint written in a format_version this code does not read."""


def save_arrays(path: str | Path, arrays: Mapping[str, np.ndarray]) -> None:
    np.savez(path, **{k: np.asarray(v) for k, v in arrays.items()})


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    with np.load(path) as data:
        return {k: data[k].copy() for k in data.files}


def save_json(path: str | Path, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_json(path: str | Path) -> object:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
