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


def _cut_embedding(model_dir):
    arrays = dict(np.load(model_dir / "arrays.npz"))
    arrays["mt.embedding"] = arrays["mt.embedding"][:10]
    np.savez(model_dir / "arrays.npz", **arrays)


def _edit_json(name, change):
    """An edit that applies ``change`` to the model directory's JSON file ``name``."""

    def edit(model_dir):
        payload = json.loads((model_dir / name).read_text())
        change(payload)
        (model_dir / name).write_text(json.dumps(payload))

    return edit


# Edits that make a saved three-member system inconsistent, each with the
# name its CheckpointError cites.
CHECKPOINT_EDITS = {
    "missing_array": (_drop_member_bias, "matcher.2.head_b"),
    "extra_member": (
        _edit_json("manifest.json", lambda m: m.update(matcher_members=4)),
        "matcher.3.embedding",
    ),
    "short_embedding": (_cut_embedding, "mt.embedding"),
    "unknown_config_key": (
        _edit_json("manifest.json", lambda m: m["config"]["multitask"].update(max_len=64)),
        "'multitask'",
    ),
}


@pytest.fixture(params=sorted(CHECKPOINT_EDITS))
def checkpoint_edit(request):
    """(edit a model directory in place, the name the error cites)"""
    return CHECKPOINT_EDITS[request.param]


# Edits that give a saved system's JSON a value of the wrong shape, each with
# the file and the key its CheckpointError names.
JSON_EDITS = {
    "pattern_without_freq": (
        _edit_json("patterns.json", lambda p: next(iter(p.values()))[0].pop("freq")),
        "patterns.json",
        "'freq'",
    ),
    "window_as_string": (
        _edit_json("manifest.json", lambda m: m["config"]["multitask"].update(window="2")),
        "manifest.json",
        "'window'",
    ),
    "unknown_fusion_weight": (
        _edit_json("manifest.json", lambda m: m.update(fusion_weights={"a": 1})),
        "manifest.json",
        "'fusion_weights'",
    ),
    "classes_not_a_list": (
        _edit_json("manifest.json", lambda m: m.update(classes=3)),
        "manifest.json",
        "'classes'",
    ),
    "loss_weights_not_a_list": (
        _edit_json("manifest.json", lambda m: m["config"]["multitask"].update(loss_weights=2)),
        "manifest.json",
        "'loss_weights'",
    ),
    "gen_members_string": (
        _edit_json("genmodel.json", lambda g: g.update(members="x")),
        "genmodel.json",
        "'members'",
    ),
    "short_cooccurrence_pair": (
        _edit_json("cooccurrence.json", lambda c: c["pairs"].__setitem__(0, ["a", "b"])),
        "cooccurrence.json",
        "'pairs'",
    ),
}


@pytest.fixture(params=sorted(JSON_EDITS))
def json_edit(request):
    """(edit a model directory in place, the file and the key the error names)"""
    return JSON_EDITS[request.param]
