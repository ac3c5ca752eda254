from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketchparse import learn
from sketchparse.learn import (
    AdamState,
    EncoderParams,
    LinearHead,
    Vocab,
    encode_sentence,
    encode_tokens,
    softmax,
    softmax_cross_entropy,
    step,
)
from sketchparse.lf import EmptyInput
from sketchparse.matchers import pair_logits


def central_difference(fn, arrays: dict[str, np.ndarray], eps: float = 1e-4):
    """Finite-difference gradients of fn() w.r.t. every entry of every array."""
    grads = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            hi = fn()
            flat[i] = original - eps
            lo = fn()
            flat[i] = original
            gflat[i] = (hi - lo) / (2 * eps)
        grads[name] = grad
    return grads


def assert_close_grads(analytic, numeric, rel_tol=1e-4):
    for name in numeric:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
        assert np.max(np.abs(a - n) / denom) <= rel_tol, name


class TestVocab:
    def test_reserved_indices(self):
        vocab = Vocab.build([["x", "y"]])
        assert vocab.index["<pad>"] == learn.PAD == 0
        assert vocab.index["<unk>"] == learn.UNK == 1

    def test_unknown_maps_to_unk(self):
        vocab = Vocab.build([["x"]])
        assert list(vocab.encode(["x", "zzz"])) == [vocab.index["x"], learn.UNK]

    def test_injective(self):
        vocab = Vocab.build([["a", "b", "a", "c"]])
        indices = list(vocab.index.values())
        assert len(indices) == len(set(indices))


class TestEncoders:
    def test_zero_table_gives_zero_vector(self):
        enc = EncoderParams(embedding=np.zeros((5, 4)))
        assert np.array_equal(encode_sentence(np.array([2, 3]), enc), np.zeros(4))

    def test_single_token_is_its_row(self):
        rng = np.random.default_rng(0)
        enc = EncoderParams(embedding=rng.normal(size=(5, 4)))
        assert np.array_equal(encode_sentence(np.array([3]), enc), enc.embedding[3])

    def test_mean_is_order_invariant(self):
        rng = np.random.default_rng(1)
        enc = EncoderParams(embedding=rng.normal(size=(9, 6)))
        ids = np.array([2, 5, 7, 2])
        permuted = np.array([7, 2, 2, 5])
        direct = enc.embedding[ids].sum(axis=0) / 4
        assert np.allclose(encode_sentence(ids, enc), direct)
        assert np.allclose(encode_sentence(permuted, enc), direct)

    def test_empty_raises(self):
        enc = EncoderParams(embedding=np.zeros((3, 2)))
        with pytest.raises(EmptyInput):
            encode_sentence(np.array([], dtype=np.int64), enc)
        with pytest.raises(EmptyInput):
            encode_tokens(np.array([], dtype=np.int64), enc)

    def test_window_zero_is_plain_embedding(self):
        rng = np.random.default_rng(2)
        enc = EncoderParams(embedding=rng.normal(size=(7, 3)), window=0)
        ids = np.array([1, 4, 6])
        assert np.allclose(encode_tokens(ids, enc), enc.embedding[ids].T)

    def test_short_input_pads_blocks(self):
        rng = np.random.default_rng(3)
        enc = EncoderParams(embedding=rng.normal(size=(7, 3)), window=2)
        column = encode_tokens(np.array([4]), enc)[:, 0]
        blocks = column.reshape(5, 3)
        pad_row = enc.embedding[learn.PAD]
        assert np.allclose(blocks[0], pad_row)
        assert np.allclose(blocks[1], pad_row)
        assert np.allclose(blocks[2], enc.embedding[4])
        assert np.allclose(blocks[3], pad_row)
        assert np.allclose(blocks[4], pad_row)

    def test_window_shapes(self):
        rng = np.random.default_rng(4)
        for hidden in (2, 5):
            for window in (0, 1, 3):
                for length in (1, 2, 6):
                    enc = EncoderParams(
                        embedding=rng.normal(size=(11, hidden)), window=window
                    )
                    ids = rng.integers(0, 11, size=length)
                    mat = encode_tokens(ids, enc)
                    assert mat.shape == ((2 * window + 1) * hidden, length)

    def test_pair_features(self):
        rng = np.random.default_rng(5)
        enc = EncoderParams(embedding=rng.normal(size=(9, 4)))
        head = LinearHead(rng.normal(size=(2, 16)), rng.normal(size=2))
        a, b = np.array([2, 3]), np.array([5])
        feats, logits = pair_logits(encode_sentence(a, enc), encode_sentence(b, enc)[None], head)
        ma = enc.embedding[a].mean(axis=0)
        mb = enc.embedding[b].mean(axis=0)
        expected = np.concatenate([ma, mb, np.abs(ma - mb), ma * mb])
        assert np.allclose(feats, expected[None])
        assert np.allclose(logits, (head.weight @ expected + head.bias)[None])

    def test_pair_same_input_zeroes_difference_block(self):
        rng = np.random.default_rng(6)
        enc = EncoderParams(embedding=rng.normal(size=(9, 4)))
        mean = encode_sentence(np.array([2, 3]), enc)
        feats, _ = pair_logits(mean, mean[None], LinearHead.zeros(2, 16))
        assert np.allclose(feats[0, 8:12], 0.0)

    def test_pair_swap_permutes_mean_blocks(self):
        rng = np.random.default_rng(7)
        enc = EncoderParams(embedding=rng.normal(size=(9, 4)))
        head = LinearHead.zeros(2, 16)
        ma = encode_sentence(np.array([1, 2]), enc)
        mb = encode_sentence(np.array([6, 7]), enc)
        fab = pair_logits(ma, mb[None], head)[0][0]
        fba = pair_logits(mb, ma[None], head)[0][0]
        assert np.allclose(fab[:4], fba[4:8])
        assert np.allclose(fab[4:8], fba[:4])
        assert np.allclose(fab[8:], fba[8:])


class TestSoftmax:
    def test_uniform_for_zeros(self):
        assert np.allclose(softmax(np.zeros(4)), 0.25)

    def test_large_logits_stable(self):
        probs = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] > 1 - 1e-12
        assert probs[1] < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            z = rng.normal(scale=10, size=rng.integers(2, 9))
            assert abs(softmax(z).sum() - 1.0) <= 1e-9

    @given(
        st.lists(st.floats(-50, 50), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    def test_shift_invariance(self, values, shift):
        z = np.array(values)
        assert np.max(np.abs(softmax(z + shift) - softmax(z))) <= 1e-12


class TestCrossEntropyGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.normal(size=rng.integers(2, 7))
            target = int(rng.integers(0, len(logits)))
            _, analytic = softmax_cross_entropy(logits[None], [target])
            numeric = central_difference(
                lambda: softmax_cross_entropy(logits[None], [target])[0][0], {"logits": logits}
            )
            assert_close_grads({"logits": analytic[0]}, numeric)

    def test_batch_rows_match_single_rows(self):
        rng = np.random.default_rng(11)
        logits = rng.normal(scale=3.0, size=(7, 5))
        targets = rng.integers(0, 5, size=7)
        losses, grads = softmax_cross_entropy(logits, targets)
        assert losses.shape == (7,) and grads.shape == (7, 5)
        for row, target in enumerate(targets):
            loss, grad = softmax_cross_entropy(logits[row : row + 1], [target])
            assert losses[row] == loss[0]
            assert np.array_equal(grads[row], grad[0])
            assert loss[0] == pytest.approx(-np.log(softmax(logits[row])[target]), abs=1e-12)

    def test_through_sentence_encoder(self):
        # Composite check: loss = CE(head @ mean(emb rows) + bias).
        rng = np.random.default_rng(10)
        for _ in range(5):
            emb = rng.normal(size=(6, 3))
            head = rng.normal(size=(4, 3))
            bias = rng.normal(size=4)
            ids = rng.integers(0, 6, size=4)
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
            d_sent = head.T @ d_logits
            np.add.at(analytic["emb"], ids, d_sent[None, :] / len(ids))
            numeric = central_difference(loss, {"head": head, "bias": bias, "emb": emb})
            assert_close_grads(analytic, numeric)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        params = {"w": np.arange(6.0).reshape(2, 3)}
        before = params["w"].copy()
        state = AdamState.for_params(params, lr=0.1)
        step(params, {"w": np.zeros((2, 3))}, state)
        assert np.max(np.abs(params["w"] - before)) <= 1e-12

    def test_quadratic_descends_monotonically_after_warmup(self):
        params = {"x": np.linspace(1.0, 3.0, 8)}
        state = AdamState.for_params(params, lr=0.01)
        losses = []
        for _ in range(100):
            losses.append(float(params["x"] @ params["x"]))
            step(params, {"x": 2.0 * params["x"]}, state)
        losses.append(float(params["x"] @ params["x"]))
        warmup = 5
        for earlier, later in zip(losses[warmup:], losses[warmup + 1 :]):
            assert later <= earlier + 1e-12
        assert losses[-1] < losses[warmup]

    def test_bit_identical_across_runs(self):
        def run():
            rng = np.random.default_rng(11)
            params = {"w": rng.normal(size=(3, 3))}
            state = AdamState.for_params(params, lr=0.05)
            for _ in range(25):
                grad = {"w": np.sin(params["w"]) + 0.1}
                step(params, grad, state)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch(self):
        params = {"w": np.zeros((2, 2))}
        state = AdamState.for_params(params)
        with pytest.raises(learn.ShapeMismatch):
            step(params, {"w": np.zeros(3)}, state)
        with pytest.raises(learn.ShapeMismatch):
            step(params, {"nope": np.zeros((2, 2))}, state)


class TestCheckpointArrays:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        arrays = {
            "a": rng.normal(size=(4, 7)),
            "b": rng.normal(size=3),
            "c": np.array([[1e-300, 1e300]]),
        }
        path = tmp_path / "arrays.npz"
        learn.save_arrays(path, arrays)
        loaded = learn.load_arrays(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
