"""Model: embedding injection point, mask behavior, checkpoint format."""
from dataclasses import dataclass

import numpy as np
import pytest

from tavat import tensor as T
from tavat.model import (CheckpointFormatError, ModelConfig, TextModel, load_checkpoint,
                         save_checkpoint)
from tavat.oracles import finite_difference_gradient
from tavat.tensor import Tensor, backward


@dataclass
class FakeBatch:
    token_ids: np.ndarray
    mask: np.ndarray
    labels: np.ndarray

    @property
    def size(self):
        return self.token_ids.shape[0]


def small_model(seed=0, **overrides):
    defaults = dict(vocab_size=20, dim=8, blocks=1, heads=2, ffn_dim=16,
                    max_len=16, classes=3)
    defaults.update(overrides)
    return TextModel(ModelConfig(**defaults), rng=np.random.default_rng(seed))


def batch_of(ids, labels=None):
    ids = np.asarray(ids, dtype=np.int64)
    labels = np.zeros(ids.shape[0], dtype=np.int64) if labels is None else np.asarray(labels)
    return FakeBatch(token_ids=ids, mask=ids != 0, labels=labels)


class TestEmbed:
    def test_single_token_is_exact_row_copy(self):
        model = small_model()
        out = model.embed(batch_of([[7]]))
        np.testing.assert_array_equal(
            out.data[0, 0], model.params["embedding.weight"].data[7])

    def test_padding_positions_get_row_zero(self):
        model = small_model()
        out = model.embed(batch_of([[5, 0, 0]]))
        row0 = model.params["embedding.weight"].data[0]
        np.testing.assert_array_equal(out.data[0, 1], row0)
        np.testing.assert_array_equal(out.data[0, 2], row0)

    def test_token_id_out_of_range(self):
        model = small_model()
        with pytest.raises(IndexError, match="out of range"):
            model.embed(batch_of([[25]]))

    def test_gradient_is_token_count_matrix(self):
        """d sum(embed)/d weights equals brute-force occurrence counts."""
        model = small_model()
        ids = np.array([[7, 3, 7, 0], [3, 3, 1, 2]])
        grads = backward(T.reduce_sum(model.embed(batch_of(ids))))
        g = grads[model.params["embedding.weight"]]
        counts = np.zeros(20)
        for i in ids.reshape(-1):
            counts[i] += 1
        np.testing.assert_array_equal(g, counts[:, None] * np.ones((20, 8)))

    def test_positional_add_when_enabled(self):
        model = small_model(use_positional=True)
        out = model.embed(batch_of([[7]]))
        expected = (model.params["embedding.weight"].data[7]
                    + model.params["positional.weight"].data[0])
        np.testing.assert_array_equal(out.data[0, 0], expected)


class TestForward:
    def test_zero_perturbation_is_identity(self):
        model = small_model()
        b = batch_of([[4, 5, 6, 0], [7, 8, 0, 0]])
        plain = model.forward(b).data
        x = model.embed(b)
        zero = Tensor(np.zeros(x.shape), requires_grad=True)
        perturbed = model.forward_from_embeddings(T.add(x, zero), b.mask).data
        np.testing.assert_array_equal(plain, perturbed)

    def test_padded_positions_are_inert(self):
        """Arbitrary values at padded embedding rows leave logits untouched."""
        model = small_model()
        b = batch_of([[4, 5, 0, 0], [7, 8, 9, 0]])
        x = model.embed(b).data.copy()
        logits1 = model.forward_from_embeddings(Tensor(x), b.mask).data
        x2 = x.copy()
        x2[~b.mask] = 1e6
        logits2 = model.forward_from_embeddings(Tensor(x2), b.mask).data
        np.testing.assert_array_equal(logits1, logits2)

    def test_gradients_reach_perturbations_and_params_in_one_pass(self):
        model = small_model()
        b = batch_of([[4, 5, 6, 0]], labels=[2])
        x = model.embed(b)
        delta = Tensor(np.zeros(x.shape), requires_grad=True)
        eta = Tensor(np.zeros(x.shape), requires_grad=True)
        logits = model.forward_from_embeddings(T.add(T.add(x, delta), eta), b.mask)
        grads = backward(model.loss(logits, b))
        assert delta in grads and eta in grads
        assert model.params["head.weight"] in grads
        assert np.abs(grads[delta][0, :3]).max() > 0
        np.testing.assert_array_equal(grads[delta], grads[eta])

    def test_loss_gradient_wrt_embeddings_matches_finite_differences(self):
        model = small_model(seed=3)
        b = batch_of([[4, 5, 6, 0], [9, 2, 0, 0]], labels=[1, 2])
        x0 = model.embed(b).data.copy()

        def loss_at(arr):
            logits = model.forward_from_embeddings(Tensor(arr), b.mask)
            return model.loss(logits, b).item()

        xt = Tensor(x0, requires_grad=True)
        grads = backward(model.loss(model.forward_from_embeddings(xt, b.mask), b))
        ad = grads[xt].reshape(-1)
        coords = sorted(np.random.default_rng(0).choice(x0.size, size=20, replace=False))
        fd = finite_difference_gradient(loss_at, x0, coords)
        err = np.abs(fd - ad[coords]) / np.maximum(
            np.maximum(np.abs(fd), np.abs(ad[coords])), 1e-8)
        assert err.max() <= 1e-4

    def test_shape_mismatch_rejected(self):
        model = small_model()
        with pytest.raises(T.ShapeError):
            model.forward_from_embeddings(Tensor(np.zeros((2, 3, 5))),
                                          np.ones((2, 3), dtype=bool))

    def test_mlp_encoder_variant(self):
        model = small_model(encoder="mlp")
        b = batch_of([[4, 5, 0]])
        assert model.forward(b).shape == (1, 3)

    def test_tagging_head_shapes_and_loss(self):
        model = small_model(head="tagging", classes=5)
        ids = np.array([[4, 5, 6, 0]])
        b = FakeBatch(token_ids=ids, mask=ids != 0,
                      labels=np.array([[0, 1, 2, 0]]))
        logits = model.forward(b)
        assert logits.shape == (1, 4, 5)
        loss = model.loss(logits, b)
        assert np.isfinite(loss.item())

    def test_dropout_flag_changes_training_forward_only(self):
        model = small_model(dropout=0.5)
        b = batch_of([[4, 5, 6]])
        eval1 = model.forward_from_embeddings(model.embed(b), b.mask, train=False).data
        eval2 = model.forward_from_embeddings(model.embed(b), b.mask, train=False).data
        np.testing.assert_array_equal(eval1, eval2)
        trained = model.forward_from_embeddings(model.embed(b), b.mask, train=True).data
        assert np.abs(trained - eval1).max() > 0


class TestDeterminismAndSnapshot:
    def test_same_seed_same_params(self):
        a, b = small_model(seed=9), small_model(seed=9)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name].data, b.params[name].data)

    def test_snapshot_is_independent(self):
        model = small_model()
        snap = model.snapshot()
        model.params["head.bias"].data += 1.0
        assert np.abs(snap.params["head.bias"].data
                      - model.params["head.bias"].data).max() == 1.0


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = small_model(seed=5)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name in model.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          model.params[name].data)

    def test_two_saves_identical_bytes(self, tmp_path):
        model = small_model(seed=5)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointFormatError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_or_extended_file_rejected(self, tmp_path):
        model = small_model(seed=5, vocab_size=4, dim=2, encoder="mlp", ffn_dim=2,
                            max_len=4, classes=2)
        good = tmp_path / "model.bin"
        save_checkpoint(model, good)
        raw = good.read_bytes()
        path = tmp_path / "bad.bin"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(CheckpointFormatError, match="trailing bytes"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(small_model(seed=5), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)
