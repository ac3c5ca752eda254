import time
import types

import numpy as np
import pytest

from tracer import Tracer


def make_layer():
    layer = types.ModuleType("fake.layer")

    def leaf(x):
        return x + 1

    def inner(xs):
        time.sleep(0.002)
        return [layer.leaf(x) for x in xs]

    def outer(xs):
        time.sleep(0.002)
        return layer.inner(xs) + layer.inner(xs)

    layer.leaf, layer.inner, layer.outer = leaf, inner, outer
    return layer


class Scorer:
    def score(self, x):
        return 2 * x


def test_spans_counts_and_self_time():
    layer = make_layer()
    with Tracer() as tracer:
        tracer.wrap(layer, "outer", "layer.outer")
        tracer.wrap(layer, "inner", "layer.inner", hook=lambda a, k, r: {"layer.items": len(r)})
        tracer.wrap(layer, "leaf", "layer.leaf", span=False)
        tracer.phase = "parse"
        assert layer.outer([1, 2, 3]) == [2, 3, 4, 2, 3, 4]
        totals = tracer.layer_totals()

    outer, inner = totals["parse", "layer.outer"], totals["parse", "layer.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert ("parse", "layer.leaf") not in totals  # counted, not spanned
    assert tracer.counts["parse", "layer.leaf"] == 6
    assert tracer.counts["parse", "layer.items"] == 6
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s)
    assert outer.self_s >= 0.002 and inner.self_s >= 0.004
    assert list(tracer.parents) == [-1, 0, 0]


def test_restore_puts_back_every_original():
    layer = make_layer()
    before = dict(vars(layer))
    method = Scorer.__dict__["score"]
    tracer = Tracer()
    with tracer:
        tracer.wrap(layer, "outer", "layer.outer")
        tracer.wrap(layer, "leaf", "layer.leaf", span=False)
        tracer.wrap(Scorer, "score", "scorer.score")
        assert layer.outer is not before["outer"]
        assert Scorer().score(3) == 6
    assert vars(layer) == before
    assert Scorer.__dict__["score"] is method
    assert tracer.counts["train", "scorer.score"] == 1


def test_span_closes_when_the_call_raises():
    layer = types.ModuleType("fake.raising")

    def boom():
        raise RuntimeError("boom")

    layer.boom = boom
    with Tracer() as tracer:
        tracer.wrap(layer, "boom", "raising.boom")
        with pytest.raises(RuntimeError):
            layer.boom()
        layer_totals = tracer.layer_totals()
    assert layer_totals["train", "raising.boom"].calls == 1
    assert tracer.ends[0] >= tracer.starts[0]


def test_save_writes_every_span(tmp_path):
    layer = make_layer()
    with Tracer() as tracer:
        tracer.wrap(layer, "inner", "layer.inner")
        tracer.phase, tracer.question = "parse", 7
        layer.inner([1])
    tracer.save(tmp_path / "spans.npz")
    with np.load(tmp_path / "spans.npz") as spans:
        assert list(spans["names"]) == ["layer.inner"]
        assert spans["phases"][spans["phase"][0]] == "parse"
        assert spans["question"].tolist() == [7]
        assert spans["end"][0] > spans["start"][0]


def test_install_wraps_the_library_layers_and_restores_them():
    import harness
    from sketchparse import genscore, matchers, pipeline

    targets = [
        (pipeline, "predict_detailed"),
        (pipeline, "train_system"),
        (matchers, "score_pair"),
        (matchers.MatcherEnsemble, "score"),
        (genscore.ClassStats, "prob"),
    ]
    before = [owner.__dict__[attr] for owner, attr in targets]
    with Tracer() as tracer:
        harness.install(tracer)
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(targets, before))
        stats = genscore.ClassStats()
        stats.observe(["a", "b"])
        stats.prob("b", "a", 0.1)
    assert [owner.__dict__[attr] for owner, attr in targets] == before
    assert tracer.counts["train", "genscore.prob"] == 1
