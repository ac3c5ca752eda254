"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the end-to-end criteria train a full system on a 5,000-sample
synthetic corpus (4,000 train / 500 dev / 500 test).
"""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from sketchparse import lf, pipeline
from sketchparse.data import GenConfig, generate_synthetic, split
from sketchparse.genscore import normalize_losses
from sketchparse.learn import Vocab, logsumexp, softmax_cross_entropy
from sketchparse.matchers import MatcherConfig, init_matcher, pair_loss_grads, select_by_rank
from sketchparse.multitask import crf_nll_grad, viterbi
from sketchparse.pipeline import FusionWeights, SampleOutcome, compute_metrics
from tests.oracles import substitute_sketch, substitute_template, top_candidate
from tests.test_learn import assert_close_grads, central_difference
from tests.test_matchers import as_rows

BIG_CONFIG = GenConfig(
    classes=(
        "single-relation",
        "aggregation",
        "yesno",
        "multi-turn-entity",
        "multi-turn-answer",
        "cvt",
        "superlative",
        "comparative",
    ),
    entity_vocab=200,
    predicate_vocab=40,
    samples_per_class=625,
    seed=11,
)


@pytest.fixture(scope="session")
def big_corpus():
    return generate_synthetic(BIG_CONFIG)


@pytest.fixture(scope="session")
def big_system(big_corpus):
    train, dev, test = split(big_corpus, (0.8, 0.1, 0.1), seed=2)
    assert (len(train), len(dev), len(test)) == (4000, 500, 500)
    started = time.perf_counter()
    system = pipeline.train_system(train, dev, pipeline.SystemConfig())
    report = pipeline.evaluate(test, system)
    elapsed = time.perf_counter() - started
    return system, (train, dev, test), report, elapsed


def test_c1_sketch_round_trip(big_corpus):
    started = time.perf_counter()
    assert len(big_corpus) == 5000
    for sample in big_corpus:
        sketch = lf.extract_sketch(sample.lf, sample.params)
        assert substitute_sketch(sketch).tokens == sample.lf.tokens
        order = sample.entity_order
        template = lf.derive_template(sample.lf, sample.params, order)
        fillers = [s for s, _ in sorted(order.items(), key=lambda kv: kv[1])]
        assert substitute_template(template, fillers).tokens == sample.lf.tokens
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS - 5000/5000 sketch and template round trips ({elapsed:.1f}s)")


def _brute_force(emissions: np.ndarray, trans: np.ndarray):
    """Every one of the k^m label paths, with its score."""
    k, m = emissions.shape
    paths = np.array(list(itertools.product(range(k), repeat=m)))
    scores = emissions[paths, np.arange(m)].sum(axis=1)
    if m > 1:
        scores = scores + trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    return paths, scores


def _crf_one(emissions, trans, gold):
    """The batched crf_nll_grad on a batch of one (K, T) sequence, in (K, T) layout."""
    m = emissions.shape[1]
    loss, d_e, d_t = crf_nll_grad(emissions.T[None], trans, np.array([gold]), np.array([m]))
    return float(loss[0]), d_e[0].T, d_t


def test_c2_crf_matches_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(21)
    gold_rng = np.random.default_rng(22)  # apart from rng, which draws the instances
    checked = 0
    for _ in range(220):
        m = int(rng.integers(1, 7))
        emissions = rng.normal(scale=2.0, size=(4, m))
        trans = rng.normal(scale=2.0, size=(4, 4))
        paths, scores = _brute_force(emissions, trans)
        gold = gold_rng.integers(0, 4, size=m)
        gold_score = scores[np.flatnonzero((paths == gold).all(axis=1))[0]]
        expected_nll = float(logsumexp(scores)) - gold_score
        got_nll = _crf_one(emissions, trans, gold)[0]
        assert abs(got_nll - expected_nll) <= 1e-6 * max(1.0, abs(expected_nll))
        assert viterbi(emissions, trans) == paths[int(np.argmax(scores))].tolist()
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 2 PASS - {checked} CRF instances match enumeration ({elapsed:.1f}s)")


def test_c3_gradient_checks():
    rng = np.random.default_rng(31)

    for _ in range(20):  # CRF negative log-likelihood
        m = int(rng.integers(2, 6))
        emissions = rng.normal(size=(4, m))
        trans = rng.normal(size=(4, 4))
        gold = [int(rng.integers(0, 4)) for _ in range(m)]
        _, d_e, d_t = _crf_one(emissions, trans, gold)
        numeric = central_difference(
            lambda: _crf_one(emissions, trans, gold)[0],
            {"emissions": emissions, "trans": trans},
        )
        assert_close_grads({"emissions": d_e, "trans": d_t}, numeric)

    for _ in range(20):  # classification cross-entropy through the encoder
        emb = rng.normal(size=(6, 3))
        head = rng.normal(size=(4, 3))
        bias = rng.normal(size=4)
        ids = rng.integers(0, 6, size=int(rng.integers(1, 5)))
        target = int(rng.integers(0, 4))

        def loss():
            sent = emb[ids].mean(axis=0)
            return softmax_cross_entropy((head @ sent + bias)[None], [target])[0][0]

        sent = emb[ids].mean(axis=0)
        d_logits = softmax_cross_entropy((head @ sent + bias)[None], [target])[1][0]
        analytic = {
            "head": np.outer(d_logits, sent),
            "bias": d_logits,
            "emb": np.zeros_like(emb),
        }
        np.add.at(analytic["emb"], ids, (head.T @ d_logits)[None, :] / len(ids))
        numeric = central_difference(loss, {"head": head, "bias": bias, "emb": emb})
        assert_close_grads(analytic, numeric)

    vocab = Vocab.build([["a", "b", "c", "d"]])
    for _ in range(20):  # matcher pair loss
        model = init_matcher(vocab, MatcherConfig(hidden=3, seed=int(rng.integers(1000))))
        model.head.weight = rng.normal(size=model.head.weight.shape)
        pairs = [
            (
                rng.integers(2, 6, size=int(rng.integers(1, 4))),
                rng.integers(2, 6, size=int(rng.integers(1, 4))),
                int(rng.integers(0, 2)),
            )
        ]
        rows, bags = as_rows(pairs, len(vocab))
        params = model.params()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        pair_loss_grads(model, rows, bags, grads)
        numeric = central_difference(
            lambda: pair_loss_grads(
                model, rows, bags, {k: np.zeros_like(v) for k, v in params.items()}
            ),
            params,
        )
        assert_close_grads(grads, numeric)

    print("\nACCEPTANCE 3 PASS - CRF, classifier and matcher gradients match finite differences")


def test_c4_loss_normalization_law():
    rng = random.Random(41)
    for _ in range(100):
        losses = [rng.uniform(0.01, 20.0) for _ in range(rng.randint(1, 10))]
        scores = normalize_losses(losses)
        peak = max(losses)
        for loss, score in zip(losses, scores):
            assert abs(score - (1.0 - loss / peak)) <= 1e-12
            assert 0.0 <= score <= 1.0
        assert scores[losses.index(peak)] == 0.0
        scale = rng.uniform(1e-3, 1e3)
        rescaled = normalize_losses([x * scale for x in losses])
        assert max(abs(a - b) for a, b in zip(scores, rescaled)) <= 1e-12
    print("\nACCEPTANCE 4 PASS - normalization law holds on 100 random loss pools")


def test_c5_ranking_sampling_contract():
    def pool(n_hard, n_easy):
        hard = [(lf.LfPattern(("h", str(i))), 1e-4 * (2 + i)) for i in range(n_hard)]
        easy = [(lf.LfPattern(("e", str(i))), 1e-4 / (2 + i)) for i in range(n_easy)]
        return hard + easy

    for n_hard in (0, 1, 5, 19, 20, 21, 100):
        for n_easy in (0, 1, 4, 5, 6, 50):
            picked = select_by_rank(pool(n_hard, n_easy), random.Random(5))
            names = [p.tokens[0] for p in picked]
            assert names.count("h") == min(20, n_hard)
            assert names.count("e") == min(5, n_easy)

    boundary = [(lf.LfPattern(("at",)), 1e-4), (lf.LfPattern(("above",)), 1e-4 + 1e-9)]
    picked = select_by_rank(boundary, random.Random(5), hard_count=20, easy_count=0)
    assert [p.tokens[0] for p in picked] == ["above"]
    print("\nACCEPTANCE 5 PASS - hard/easy picks are min(20,pool)/min(5,pool) at threshold 1e-4")


def test_c6_end_to_end_synthetic_accuracy(big_system):
    system, _, report, elapsed = big_system
    acc_l = 1.0 - report["overall"]["err_l"]
    assert acc_l >= 0.95, f"exact match {acc_l:.4f}"
    assert report["overall"]["err_m"] <= 0.05, f"err_m {report['overall']['err_m']:.4f}"
    assert report["pattern_coverage"] == 1.0
    assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
    assert pipeline.predict("what is birth date for chris pine", system) == (
        "( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )"
    )
    print(
        f"\nACCEPTANCE 6 PASS - test Acc_l {acc_l:.4f}, Err_m "
        f"{report['overall']['err_m']:.4f}, coverage 100% ({elapsed:.0f}s)"
    )


def test_c7_tuned_weights_beat_pattern_only_baseline(big_system):
    system, (train, dev, test), _, _ = big_system
    packs = pipeline._dev_packs(system, dev)

    def accuracy(weights):
        return sum(
            1
            for gold, pack in packs
            if pack and top_candidate(pack, weights) == gold
        ) / len(packs)

    tuned_acc = accuracy(system.weights)
    baseline_acc = accuracy(FusionWeights(1.0, 0.0, 0.0))
    assert tuned_acc >= baseline_acc
    print(
        f"\nACCEPTANCE 7 PASS - tuned dev accuracy {tuned_acc:.4f} >= "
        f"pattern-only {baseline_acc:.4f}"
    )


def test_c8_train_evaluate_determinism(tmp_path):
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
    )
    data_dir = tmp_path / "data"
    run = lambda args: subprocess.run(
        [sys.executable, "-m", "sketchparse", *args],
        check=True,
        env=env,
        capture_output=True,
    )
    run(
        [
            "gen-data", "--out", str(data_dir), "--seed", "5", "--per-class", "50",
            "--classes", "single-relation,aggregation,yesno,comparative",
            "--entities", "25", "--predicates", "12",
        ]
    )
    reports = []
    for name in ("one", "two"):
        model_dir = tmp_path / f"model_{name}"
        report_path = tmp_path / f"report_{name}.json"
        run(
            [
                "train", "--train", str(data_dir / "train.jsonl"),
                "--dev", str(data_dir / "dev.jsonl"),
                "--out", str(model_dir), "--epochs", "5", "--seed", "1",
            ]
        )
        run(
            [
                "evaluate", "--model", str(model_dir),
                "--test", str(data_dir / "test.jsonl"),
                "--report", str(report_path),
            ]
        )
        reports.append(report_path.read_bytes())
    assert reports[0] == reports[1]
    print("\nACCEPTANCE 8 PASS - two seeded train+evaluate runs wrote byte-identical reports")


def test_c9_metric_definitions_on_fixture():
    def outcome(gold_class, pred_class, entities_ok, lf_ok, permuted=False):
        gold_lf = ("(", "g", ")")
        if lf_ok:
            pred_lf = gold_lf
        elif permuted:
            pred_lf = (")", "g", "(")
        else:
            pred_lf = ("(", "x", ")")
        return SampleOutcome(
            gold_class=gold_class,
            pred_class=pred_class,
            gold_spans=[(0, 1)],
            pred_spans=[(0, 1)] if entities_ok else [(0, 0)],
            gold_lf=gold_lf,
            pred_lf=pred_lf,
        )

    outcomes = [
        outcome("A", "A", True, True),
        outcome("A", "B", True, False),
        outcome("A", "A", False, False),
        outcome("B", "B", True, False, permuted=True),
        outcome("B", "A", False, False),
        outcome("B", "B", True, True),
    ]
    report = compute_metrics(outcomes)
    # Both classes: TP=2, FP=1, FN=1 -> F1 = 2/3, so Err_s = 1/3.
    assert report["per_class"]["A"]["err_s"] == pytest.approx(1 / 3)
    assert report["per_class"]["B"]["err_s"] == pytest.approx(1 / 3)
    assert report["overall"]["err_s"] == pytest.approx(1 / 3)
    assert report["overall"]["err_e"] == pytest.approx(2 / 6)
    assert report["overall"]["err_m"] == pytest.approx(3 / 6)
    assert report["overall"]["err_l"] == pytest.approx(4 / 6)
    assert report["taxonomy"] == {
        "wrong_sketch": 2,
        "wrong_entities": 1,
        "wrong_order": 1,
        "wrong_predicate": 0,
        "exchangeable_near_miss": 0,
    }
    print("\nACCEPTANCE 9 PASS - fixture reproduces Err_s/Err_e/Err_m/Err_l definitions exactly")
