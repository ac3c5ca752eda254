from __future__ import annotations

import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketchparse import multitask
from sketchparse.learn import PAD, Vocab, encode_tokens, logsumexp, softmax_cross_entropy
from sketchparse.multitask import (
    L_B,
    L_I,
    L_O,
    L_P,
    MultiTaskConfig,
    classify_sketch,
    crf_nll_grad,
    dev_metrics,
    extract_entities,
    gold_labels,
    init_model,
    sample_grads,
    train_multitask,
    viterbi,
)
from tests import oracles
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


def crf_one(emissions: np.ndarray, trans: np.ndarray, labels):
    """The batched CRF on one (K, T) sequence: (NLL, (K, T) emission
    gradient, transition gradient)."""
    m = emissions.shape[1]
    loss, d_e, d_t = crf_nll_grad(emissions.T[None], trans, np.array([labels]), np.array([m]))
    return float(loss[0]), d_e[0].T, d_t


def log_partition(emissions: np.ndarray, trans: np.ndarray) -> float:
    """log Z as training computes it: crf_nll_grad's loss for a path plus
    that path's score."""
    path = [0] * emissions.shape[1]
    return crf_one(emissions, trans, path)[0] + oracles.crf_score(emissions, trans, path)


def crf_nll(emissions: np.ndarray, trans: np.ndarray, labels) -> float:
    return crf_one(emissions, trans, labels)[0]


def padded(rows, fill):
    """Rows of different lengths as one (B, T) matrix, ``fill`` past each
    row's end, and the lengths."""
    lengths = np.array([len(r) for r in rows])
    out = np.full((len(rows), lengths.max()), fill, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out, lengths


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
            _, d_e, d_t = crf_one(emissions, trans, gold)
            numeric = central_difference(
                lambda: crf_nll(emissions, trans, gold),
                {"emissions": emissions, "trans": trans},
            )
            assert_close_grads({"emissions": d_e, "trans": d_t}, numeric)

    def test_bad_label_rejected(self):
        emissions, trans = np.zeros((2, 3, 4)), np.zeros((4, 4))
        good = np.zeros((2, 3), dtype=np.int64)
        with pytest.raises(multitask.BadLabel, match="label outside"):
            crf_nll_grad(emissions, trans, np.array([[0, 9, 0], [0, 0, 0]]), np.array([3, 3]))
        with pytest.raises(multitask.BadLabel):
            crf_nll_grad(emissions, trans, good[:, :2], np.array([3, 3]))
        for lengths in ([0, 3], [3, 4]):
            with pytest.raises(multitask.BadLabel, match="lengths outside"):
                crf_nll_grad(emissions, trans, good, np.array(lengths))

    def test_labels_past_a_length_are_ignored(self):
        rng = np.random.default_rng(11)
        emissions, trans = rng.normal(size=(1, 5, 4)), rng.normal(size=(4, 4))
        kept = crf_nll_grad(emissions, trans, np.array([[1, 2, 0, 0, 0]]), np.array([2]))
        junk = crf_nll_grad(emissions, trans, np.array([[1, 2, 9, -1, 3]]), np.array([2]))
        for a, b in zip(kept, junk):
            assert np.array_equal(a, b)


def random_batch(rng, b: int, max_len: int, k: int = 4, scale: float = 2.0):
    """Ragged random CRF inputs: (B, T, K) emissions, transitions, (B, T)
    labels (-1 past each length) and lengths in 1..max_len."""
    lengths = rng.integers(1, max_len + 1, size=b)
    m = int(lengths.max())
    labels = rng.integers(0, k, size=(b, m))
    labels[np.arange(m)[None, :] >= lengths[:, None]] = -1
    return (
        rng.normal(scale=scale, size=(b, m, k)),
        rng.normal(scale=scale, size=(k, k)),
        labels,
        lengths,
    )


def random_model(rng, vocab_size=12, hidden=5, window=2):
    vocab = Vocab.build([[f"w{i}" for i in range(vocab_size - 2)]])
    model = init_model(vocab, ("a", "b", "c"), MultiTaskConfig(hidden=hidden, window=window))
    model.cls.weight = rng.normal(size=model.cls.weight.shape)
    model.cls.bias = rng.normal(size=model.cls.bias.shape)
    model.emit.weight = rng.normal(scale=0.5, size=model.emit.weight.shape)
    model.emit.bias = rng.normal(size=model.emit.bias.shape)
    model.trans = rng.normal(size=model.trans.shape)
    return model


def random_samples(rng, model, b: int, max_len: int):
    """A ragged batch: PAD-padded ids, lengths, class ids, padded labels."""
    lengths = rng.integers(1, max_len + 1, size=b)
    ids, _ = padded([rng.integers(1, len(model.vocab), size=n) for n in lengths], PAD)
    labels, _ = padded([rng.integers(0, 3, size=n) for n in lengths], L_O)
    return ids, lengths, rng.integers(0, len(model.classes), size=b), labels


def zero_grads(model):
    return {k: np.zeros_like(v) for k, v in model.params().items()}


batch_sizes = st.integers(1, 40)
max_lengths = st.integers(1, 20)


class TestBatchedAgainstOracles:
    """The batched CRF and joint-loss gradient against the per-sample
    references in tests/oracles.py, on ragged batches."""

    @settings(max_examples=60, deadline=None)
    @given(b=batch_sizes, max_len=max_lengths, seed=st.integers(0, 2**32 - 1))
    @example(b=1, max_len=1, seed=0)
    @example(b=40, max_len=20, seed=0)
    def test_crf_matches_per_sample(self, b, max_len, seed):
        emissions, trans, labels, lengths = random_batch(np.random.default_rng(seed), b, max_len)
        loss, d_e, d_t = crf_nll_grad(emissions, trans, labels, lengths)
        assert loss.shape == (b,) and d_e.shape == emissions.shape
        expected_t = np.zeros_like(trans)
        for i, n in enumerate(lengths):
            ref_loss, ref_e, ref_t = oracles.crf_nll_grad(emissions[i, :n].T, trans, labels[i, :n])
            assert abs(loss[i] - ref_loss) <= 1e-12 * max(1.0, abs(ref_loss))
            assert np.max(np.abs(d_e[i, :n] - ref_e.T)) <= 1e-10
            assert not d_e[i, n:].any()
            expected_t += ref_t
        assert np.max(np.abs(d_t - expected_t)) <= 1e-10

    @settings(max_examples=60, deadline=None)
    @given(b=batch_sizes, max_len=max_lengths, seed=st.integers(0, 2**32 - 1))
    @example(b=1, max_len=1, seed=0)
    @example(b=40, max_len=20, seed=0)
    def test_sample_grads_match_per_sample(self, b, max_len, seed):
        rng = np.random.default_rng(seed)
        model = random_model(rng)
        ids, lengths, class_ids, labels = random_samples(rng, model, b, max_len)
        grads = zero_grads(model)
        losses = sample_grads(model, ids, lengths, class_ids, labels, grads)
        expected = zero_grads(model)
        for i, n in enumerate(lengths):
            ref = oracles.sample_grads(model, ids[i, :n], int(class_ids[i]), labels[i, :n], expected)
            assert abs(losses[i] - ref) <= 1e-12 * max(1.0, abs(ref))
        for name, grad in grads.items():
            assert np.max(np.abs(grad - expected[name])) <= 1e-10, name

    def test_padding_leaves_other_rows_unchanged(self):
        rng = np.random.default_rng(12)
        emissions, trans, labels, lengths = random_batch(rng, 6, 8)
        m = emissions.shape[1] + 5
        wide_e = np.concatenate(
            [np.pad(emissions, ((0, 0), (0, 5), (0, 0))), rng.normal(size=(1, m, 4))]
        )
        wide_labels = np.concatenate(
            [np.pad(labels, ((0, 0), (0, 5)), constant_values=-1), rng.integers(0, 4, (1, m))]
        )
        wide_lengths = np.append(lengths, m)
        loss, d_e, d_t = crf_nll_grad(emissions, trans, labels, lengths)
        wide_loss, wide_d_e, wide_d_t = crf_nll_grad(wide_e, trans, wide_labels, wide_lengths)
        alone_t = crf_nll_grad(wide_e[-1:], trans, wide_labels[-1:], wide_lengths[-1:])[2]
        assert np.max(np.abs(wide_loss[:-1] - loss)) <= 1e-12
        assert np.max(np.abs(wide_d_e[:-1, : emissions.shape[1]] - d_e)) <= 1e-12
        assert not wide_d_e[:-1, emissions.shape[1] :].any()
        assert np.max(np.abs(wide_d_t - alone_t - d_t)) <= 1e-12

        model = random_model(rng)
        ids, lengths, class_ids, labels = random_samples(rng, model, 6, 8)
        grads = zero_grads(model)
        losses = sample_grads(model, ids, lengths, class_ids, labels, grads)
        extra = rng.integers(1, len(model.vocab), size=ids.shape[1] + 5)
        wide_ids, wide_lengths = padded([*(r[:n] for r, n in zip(ids, lengths)), extra], PAD)
        wide_labels, _ = padded([*(r[:n] for r, n in zip(labels, lengths)), extra % 3], L_O)
        wide_grads, alone = zero_grads(model), zero_grads(model)
        wide_losses = sample_grads(
            model, wide_ids, wide_lengths, np.append(class_ids, 1), wide_labels, wide_grads
        )
        sample_grads(model, wide_ids[-1:], wide_lengths[-1:], np.array([1]), wide_labels[-1:], alone)
        assert np.max(np.abs(wide_losses[:-1] - losses)) <= 1e-12
        for name in grads:
            assert np.max(np.abs(wide_grads[name] - alone[name] - grads[name])) <= 1e-12, name


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
        joint = sample_grads(
            model, ids[None], np.array([3]), np.array([1]), np.array([labels]), zero_grads(model)
        )
        sent = model.encoder.embedding[ids].mean(axis=0)
        ce, _ = softmax_cross_entropy((model.cls.weight @ sent + model.cls.bias)[None], [1])
        emissions = model.emit.weight @ encode_tokens(ids, model.encoder) + model.emit.bias[:, None]
        nll = crf_nll(emissions, model.trans, labels)
        assert joint.shape == (1,)
        assert joint[0] == pytest.approx(1.0 * ce[0] + 2.0 * nll, abs=1e-9)

    def test_joint_gradients_match_finite_differences(self):
        # A ragged batch of three, so padding and the per-row means are checked too.
        model = tiny_model(cfg=MultiTaskConfig(hidden=3, window=1, seed=1))
        rng = np.random.default_rng(9)
        model.cls.weight = rng.normal(size=model.cls.weight.shape)
        model.emit.weight = rng.normal(scale=0.3, size=model.emit.weight.shape)
        model.trans = rng.normal(size=model.trans.shape)
        ids, lengths = padded(
            [model.vocab.encode(q) for q in (["what", "x", "y"], ["x"], ["is", "y"])], PAD
        )
        labels, _ = padded([[L_O, L_B, L_I], [L_B], [L_O, L_B]], L_O)
        class_ids = np.array([1, 0, 2])

        params = model.params()
        grads = zero_grads(model)
        sample_grads(model, ids, lengths, class_ids, labels, grads)
        numeric = central_difference(
            lambda: sample_grads(model, ids, lengths, class_ids, labels, zero_grads(model)).sum(),
            params,
        )
        assert_close_grads(grads, numeric)

    def test_loss_weight_wiring(self):
        # With one task weight zeroed, shared parameters move only through the other.
        base_cfg = MultiTaskConfig(hidden=8, window=1, seed=0)

        def embedding_grad(weights):
            model = tiny_model(cfg=base_cfg)
            rng = np.random.default_rng(42)  # non-zero heads so gradients can flow
            model.cls.weight = rng.normal(size=model.cls.weight.shape)
            model.emit.weight = rng.normal(size=model.emit.weight.shape)
            model.config = MultiTaskConfig(
                hidden=8, window=1, seed=0, loss_weights=weights
            )
            grads = zero_grads(model)
            ids = model.vocab.encode(("what", "is", "x"))
            sample_grads(
                model, ids[None], np.array([3]), np.array([0]), np.array([[L_O, L_O, L_B]]), grads
            )
            return grads["embedding"]

        assert np.abs(embedding_grad((0.0, 0.0))).max() == 0.0
        assert np.abs(embedding_grad((1.0, 0.0))).max() > 0.0
        assert np.abs(embedding_grad((0.0, 2.0))).max() > 0.0

    def test_empty_row_rejected(self):
        model = tiny_model()
        ids = np.array([[2, 3], [PAD, PAD]])
        with pytest.raises(multitask.EmptyInput):
            sample_grads(
                model, ids, np.array([2, 0]), np.array([0, 1]), np.zeros((2, 2), np.int64),
                zero_grads(model),
            )


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
