"""Per-sample reference implementations that the vectorised library paths
are tested against. They are the straightforward loops the library used to
run, kept here so that a fast path can be shown equal to them."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from sketchparse import learn, pipeline
from sketchparse.matchers import MatcherModel
from sketchparse.pipeline import FusionWeights


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
            model.head.weight @ feats + model.head.bias, label
        )
        total += loss
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


def tune_weights(dev_packs, step: float = 0.05) -> FusionWeights:
    """Grid point by grid point, each pack's top candidate from _top_candidate."""
    best = None
    for weights in pipeline.grid_points(step):
        hits = sum(
            1
            for gold, pack in dev_packs
            if pack and pipeline._top_candidate(pack, weights) == gold
        )
        key = (hits / len(dev_packs), weights.w_pattern, weights.w_pe)
        if best is None or key > best[0]:
            best = (key, weights)
    return best[1]
