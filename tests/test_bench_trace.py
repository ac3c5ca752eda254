"""The benchmark's traced mode (``bench/run.py --trace 1``) on a small
generated workload. ``harness.layer_metrics`` indexes the tracer's totals by
the library names ``harness.install`` wraps, so a change that stops calling a
wrapped function in its phase raises KeyError here, not only in a manual
traced run."""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

from sketchparse.data import GenConfig, generate_synthetic, split

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        yield importlib.import_module("harness"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def small_workload(workloads):
    spec = workloads.WorkloadSpec(
        name="tiny",
        classes=("single-relation", "aggregation"),
        predicates=8,
        entities=20,
        per_class=40,
        ratios=(0.6, 0.2, 0.2),
    )
    corpus = generate_synthetic(
        GenConfig(
            classes=spec.classes,
            entity_vocab=spec.entities,
            predicate_vocab=spec.predicates,
            samples_per_class=spec.per_class,
            seed=5,
        )
    )
    train, dev, test = split(corpus, spec.ratios, seed=workloads.SPLIT_SEED)
    return workloads.Workload(
        spec=spec,
        seed=5,
        train=train,
        dev=dev,
        stream=dev.samples + test.samples,
        train_indices=[],
        stream_indices=[],
    )


def test_traced_run_yields_every_per_layer_metric(bench, tmp_path):
    harness, workloads = bench
    workload = small_workload(workloads)
    tracer, train_s, one_pass = harness.traced(workload, tmp_path / "model")
    metrics = harness.layer_metrics(tracer, one_pass, len(workload.stream))

    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in listed}
    assert all(math.isfinite(value) for value in metrics.values())
    assert train_s > 0 and one_pass["exact_match"] > 0
    assert metrics["parse.pipeline.candidates_per_q"] > 1
    for name in (
        "parse.matchers.score_candidate_pe_s",
        "parse.genscore.gen_scores_s",
        "parse.pipeline.rank_s",
        "parse.pipeline.predict_detailed_self_s",
    ):
        assert metrics[name] > 0, name
