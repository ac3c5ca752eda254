from __future__ import annotations

import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest

from sketchparse import multitask
from sketchparse.learn import Vocab, encode_tokens, logsumexp, softmax_cross_entropy
from sketchparse.multitask import (
    L_B,
    L_I,
    L_O,
    L_P,
    MultiTaskConfig,
    classify_sketch,
    crf_nll_grad,
    crf_score,
    dev_metrics,
    extract_entities,
    gold_labels,
    init_model,
    sample_grads,
    train_multitask,
    viterbi,
)
from tests.test_learn import assert_close_grads, central_difference


def brute_force(emissions: np.ndarray, trans: np.ndarray):
    """Enumerate all k^m paths: (log partition, argmax path, per-path scores)."""
    k, m = emissions.shape
    scores = []
    paths = list(itertools.product(range(k), repeat=m))
    for path in paths:
        total = emissions[path[0], 0]
        for t in range(1, m):
            total += trans[path[t - 1], path[t]] + emissions[path[t], t]
        scores.append(total)
    scores = np.array(scores)
    return float(logsumexp(scores)), list(paths[int(scores.argmax())]), scores


def random_instance(rng, k=4, m=6, scale=2.0):
    return rng.normal(scale=scale, size=(k, m)), rng.normal(scale=scale, size=(k, k))


def log_partition(emissions: np.ndarray, trans: np.ndarray) -> float:
    """log Z as training computes it: crf_nll_grad's loss for a path plus
    that path's score."""
    path = [0] * emissions.shape[1]
    return crf_nll_grad(emissions, trans, path)[0] + crf_score(emissions, trans, path)


def crf_nll(emissions: np.ndarray, trans: np.ndarray, labels) -> float:
    return crf_nll_grad(emissions, trans, labels)[0]


class TestCrfForward:
    def test_single_position(self):
        rng = np.random.default_rng(0)
        emissions = rng.normal(size=(4, 1))
        assert log_partition(emissions, np.zeros((4, 4))) == pytest.approx(
            float(logsumexp(emissions[:, 0]))
        )

    def test_all_zero_scores(self):
        emissions = np.zeros((4, 3))
        trans = np.zeros((4, 4))
        assert log_partition(emissions, trans) == pytest.approx(3 * np.log(4))

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            emissions, trans = random_instance(rng, m=int(rng.integers(1, 7)))
            expected, _, _ = brute_force(emissions, trans)
            got = log_partition(emissions, trans)
            assert abs(got - expected) <= 1e-6 * max(1.0, abs(expected))

    def test_path_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            emissions, trans = random_instance(rng, m=5)
            log_z, _, scores = brute_force(emissions, trans)
            assert np.exp(scores - log_z).sum() == pytest.approx(1.0, abs=1e-6)


class TestCrfNll:
    def test_single_possible_path_is_free(self):
        emissions = np.full((4, 3), -1e9)
        gold = [1, 2, 0]
        for t, y in enumerate(gold):
            emissions[y, t] = 0.0
        assert crf_nll(emissions, np.zeros((4, 4)), gold) == pytest.approx(0.0, abs=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            emissions, trans = random_instance(rng, m=int(rng.integers(1, 7)))
            gold = [int(rng.integers(0, 4)) for _ in range(emissions.shape[1])]
            assert crf_nll(emissions, trans, gold) >= -1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            emissions, trans = random_instance(rng, m=int(rng.integers(2, 6)), scale=1.0)
            gold = [int(rng.integers(0, 4)) for _ in range(emissions.shape[1])]
            _, d_e, d_t = crf_nll_grad(emissions, trans, gold)
            numeric = central_difference(
                lambda: crf_nll(emissions, trans, gold),
                {"emissions": emissions, "trans": trans},
            )
            assert_close_grads({"emissions": d_e, "trans": d_t}, numeric)

    def test_bad_label_rejected(self):
        with pytest.raises(multitask.BadLabel):
            crf_score(np.zeros((4, 2)), np.zeros((4, 4)), [0, 9])
        with pytest.raises(multitask.BadLabel):
            crf_score(np.zeros((4, 2)), np.zeros((4, 4)), [0])


class TestViterbi:
    def test_single_label(self):
        emissions = np.random.default_rng(5).normal(size=(1, 4))
        assert viterbi(emissions, np.zeros((1, 1))) == [0, 0, 0, 0]

    def test_matches_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            emissions, trans = random_instance(rng, m=int(rng.integers(1, 7)))
            _, expected, _ = brute_force(emissions, trans)
            assert viterbi(emissions, trans) == expected

    def test_dominant_emissions_win(self):
        rng = np.random.default_rng(7)
        m = 5
        gold = [int(rng.integers(0, 4)) for _ in range(m)]
        emissions = np.zeros((4, m))
        for t, y in enumerate(gold):
            emissions[y, t] = 10.0
        assert viterbi(emissions, np.zeros((4, 4))) == gold

    def test_tie_breaks_to_lowest_index(self):
        assert viterbi(np.zeros((4, 3)), np.zeros((4, 4))) == [0, 0, 0]


class TestLabelSequences:
    def test_birth_question_span(self):
        labels = [L_O, L_O, L_O, L_O, L_O, L_B, L_I]
        question = "what is birth date for chris pine".split()
        assert extract_entities(question, labels) == [(5, 6)]

    def test_all_outside(self):
        assert extract_entities(["a", "b"], [L_O, L_O]) == []

    def test_b_at_last_token(self):
        assert extract_entities(["a", "b"], [L_O, L_B]) == [(1, 1)]

    def test_leading_i_starts_span(self):
        assert extract_entities(["a", "b", "c"], [L_I, L_I, L_O]) == [(0, 1)]

    def test_adjacent_b_b(self):
        assert extract_entities(["a", "b"], [L_B, L_B]) == [(0, 0), (1, 1)]

    def test_accepts_string_labels(self):
        assert extract_entities(["a", "b"], ["b", "i"]) == [(0, 1)]

    def test_gold_labels_cover_all_param_kinds(self, small_corpus):
        sample = next(s for s in small_corpus if s.question_type == "superlative")
        labels = gold_labels(sample)
        spans = extract_entities(sample.question_tokens, labels)
        assert spans == sample.sorted_spans()
        assert L_P not in labels


def tiny_model(classes=("a", "b", "c"), cfg=None):
    cfg = cfg or MultiTaskConfig(hidden=8, window=1, seed=0)
    vocab = Vocab.build([["what", "is", "x", "y"]])
    return init_model(vocab, classes, cfg)


class TestModelHeads:
    def test_untrained_model_is_uniform(self):
        model = tiny_model()
        probs = classify_sketch(["what", "is", "x"], model)
        assert np.allclose(probs, 1.0 / 3.0)

    def test_probs_sum_to_one_after_random_heads(self):
        model = tiny_model()
        rng = np.random.default_rng(8)
        model.cls.weight = rng.normal(size=model.cls.weight.shape)
        model.cls.bias = rng.normal(size=model.cls.bias.shape)
        for _ in range(5):
            probs = classify_sketch(["x", "y", "what"], model)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_joint_loss_is_weighted_sum(self):
        model = tiny_model()
        ids = model.vocab.encode(["what", "is", "x"])
        labels = [L_O, L_O, L_B]
        grads = {k: np.zeros_like(v) for k, v in model.params().items()}
        joint = sample_grads(model, ids, 1, labels, grads)
        sent = model.encoder.embedding[ids].mean(axis=0)
        ce, _ = softmax_cross_entropy(model.cls.weight @ sent + model.cls.bias, 1)
        emissions = model.emit.weight @ encode_tokens(ids, model.encoder) + model.emit.bias[:, None]
        nll = crf_nll(emissions, model.trans, labels)
        assert joint == pytest.approx(1.0 * ce + 2.0 * nll, abs=1e-9)

    def test_joint_gradients_match_finite_differences(self):
        model = tiny_model(cfg=MultiTaskConfig(hidden=3, window=1, seed=1))
        rng = np.random.default_rng(9)
        model.cls.weight = rng.normal(size=model.cls.weight.shape)
        model.emit.weight = rng.normal(scale=0.3, size=model.emit.weight.shape)
        model.trans = rng.normal(size=model.trans.shape)
        ids = model.vocab.encode(["what", "x", "y"])
        gold = [L_O, L_B, L_I]

        params = model.params()
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        sample_grads(model, ids, 1, gold, grads)
        numeric = central_difference(
            lambda: sample_grads(
                model, ids, 1, gold, {k: np.zeros_like(v) for k, v in params.items()}
            ),
            params,
        )
        assert_close_grads(grads, numeric)

    def test_loss_weight_wiring(self):
        # With one task weight zeroed, shared parameters move only through the other.
        base_cfg = MultiTaskConfig(hidden=8, window=1, seed=0)
        ids_labels = (("what", "is", "x"), 0, [L_O, L_O, L_B])

        def embedding_grad(weights):
            model = tiny_model(cfg=base_cfg)
            rng = np.random.default_rng(42)  # non-zero heads so gradients can flow
            model.cls.weight = rng.normal(size=model.cls.weight.shape)
            model.emit.weight = rng.normal(size=model.emit.weight.shape)
            model.config = MultiTaskConfig(
                hidden=8, window=1, seed=0, loss_weights=weights
            )
            grads = {k: np.zeros_like(v) for k, v in model.params().items()}
            ids = model.vocab.encode(ids_labels[0])
            sample_grads(model, ids, ids_labels[1], ids_labels[2], grads)
            return grads["embedding"]

        assert np.abs(embedding_grad((0.0, 0.0))).max() == 0.0
        assert np.abs(embedding_grad((1.0, 0.0))).max() > 0.0
        assert np.abs(embedding_grad((0.0, 2.0))).max() > 0.0


@pytest.fixture(scope="module")
def trained(small_splits):
    train, dev, _ = small_splits
    cfg = MultiTaskConfig(epochs=4, seed=0)
    return train_multitask(train, dev, cfg), train, dev


class TestTraining:
    def test_dev_error_rates(self, trained):
        model, _, dev = trained
        metrics = dev_metrics(model, dev)
        assert 1.0 - metrics["sketch_acc"] <= 0.02
        assert 1.0 - metrics["span_acc"] <= 0.05

    def test_same_seed_same_metrics(self, small_splits):
        train, dev, _ = small_splits
        cfg = MultiTaskConfig(epochs=2, seed=3)
        first = dev_metrics(train_multitask(train, dev, cfg), dev)
        second = dev_metrics(train_multitask(train, dev, cfg), dev)
        assert first == second

    def test_stops_once_dev_joint_accuracy_is_saturated(self, small_splits, caplog):
        train, dev, _ = small_splits
        # Small batches and a larger step reach dev joint accuracy 1.0 in epoch 0.
        cfg = MultiTaskConfig(epochs=1, seed=0, batch_size=8, lr=0.03)
        one = train_multitask(train, dev, cfg)
        assert dev_metrics(one, dev)["joint_acc"] == 1.0
        with caplog.at_level(logging.INFO, logger=multitask.__name__):
            ten = train_multitask(train, dev, replace(cfg, epochs=10))
        assert "stopping after epoch 0" in caplog.text
        for name, value in one.params().items():
            assert np.array_equal(value, ten.params()[name]), name

    def test_trained_classifies_reference_question(self, trained):
        model, _, _ = trained
        probs = classify_sketch("what is birth date for chris pine".split(), model)
        assert model.classes[int(np.argmax(probs))] == "( lambda ?x ( P1 E1 ?x ) )"

    def test_empty_corpus_rejected(self):
        from sketchparse.data import Corpus, EmptyCorpus

        with pytest.raises(EmptyCorpus):
            train_multitask(Corpus(samples=[]), Corpus(samples=[]), MultiTaskConfig())
