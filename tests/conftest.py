from __future__ import annotations

import json

import numpy as np
import pytest

from sketchparse.data import Corpus, GenConfig, generate_synthetic, split


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    cfg = GenConfig(samples_per_class=60, entity_vocab=30, predicate_vocab=16, seed=7)
    return generate_synthetic(cfg)


@pytest.fixture(scope="session")
def small_splits(small_corpus):
    return split(small_corpus, (0.8, 0.1, 0.1), seed=1)


def _drop_member_bias(model_dir):
    arrays = dict(np.load(model_dir / "arrays.npz"))
    del arrays["matcher.2.head_b"]
    np.savez(model_dir / "arrays.npz", **arrays)


def _claim_fourth_member(model_dir):
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["matcher_members"] = 4
    (model_dir / "manifest.json").write_text(json.dumps(manifest))


def _cut_embedding(model_dir):
    arrays = dict(np.load(model_dir / "arrays.npz"))
    arrays["mt.embedding"] = arrays["mt.embedding"][:10]
    np.savez(model_dir / "arrays.npz", **arrays)


def _add_config_key(model_dir):
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["config"]["multitask"]["max_len"] = 64
    (model_dir / "manifest.json").write_text(json.dumps(manifest))


# Edits that make a saved three-member system inconsistent, each with the
# name its CheckpointError cites.
CHECKPOINT_EDITS = {
    "missing_array": (_drop_member_bias, "matcher.2.head_b"),
    "extra_member": (_claim_fourth_member, "matcher.3.embedding"),
    "short_embedding": (_cut_embedding, "mt.embedding"),
    "unknown_config_key": (_add_config_key, "'multitask'"),
}


@pytest.fixture(params=sorted(CHECKPOINT_EDITS))
def checkpoint_edit(request):
    """(edit a model directory in place, the name the error cites)"""
    return CHECKPOINT_EDITS[request.param]
