"""Model: embedding injection point, mask behavior, checkpoint format."""
import json
import weakref
from dataclasses import dataclass

import numpy as np
import pytest

from tavat import container
from tavat import tensor as T
from tavat.model import (CheckpointFormatError, ModelConfig, TextModel, load_checkpoint,
                         save_checkpoint)
from tavat.tensor import Tensor, backward, topo_order
from oracles import dense_gradient, finite_difference_gradient


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


@pytest.mark.parametrize("field, overrides", [
    ("heads", dict(heads=0)),
    ("dim", dict(dim=0)),
    ("vocab_size", dict(vocab_size=0)),
    ("ffn_dim", dict(ffn_dim=0)),
    ("classes", dict(classes=0)),
    ("blocks", dict(blocks=-1)),
    ("max_len", dict(max_len=0, use_positional=True)),
])
def test_config_rejects_out_of_range_sizes(field, overrides):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{"vocab_size": 20, "dim": 8, "heads": 2, **overrides})


@pytest.mark.parametrize("field, overrides", [
    ("dim", dict(dim=8.0)),
    ("blocks", dict(blocks=True)),
    ("heads", dict(heads="2")),
    ("vocab_size", dict(vocab_size=None)),
    ("ffn_dim", dict(ffn_dim=16.0)),
    ("use_positional", dict(use_positional="false")),
    ("use_positional", dict(use_positional=1)),
])
def test_config_rejects_wrong_types(field, overrides):
    with pytest.raises(ValueError, match=field):
        ModelConfig(**{"vocab_size": 20, "dim": 8, "heads": 2, **overrides})


def test_config_accepts_numpy_integers():
    cfg = ModelConfig(vocab_size=np.int64(20), dim=np.int32(8), heads=2)
    assert cfg.ffn_dim == 32


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
        g = dense_gradient(grads[model.params["embedding.weight"]])
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

    @pytest.mark.parametrize("head, classes", [("classification", 3), ("tagging", 5)])
    def test_padding_changes_no_logit_loss_or_gradient(self, head, classes):
        """An example alone and padded to a longer length give the same logits at its
        real positions, the same loss and the same parameter gradient."""
        model = small_model(seed=4, head=head, classes=classes)
        ids, tags = [4, 5, 6, 7, 8], [1, 2, 3, 4, 0]

        def run(pad):
            labels = [tags + [0] * pad] if head == "tagging" else [2]
            b = batch_of([ids + [0] * pad], labels)
            logits = model.forward(b)
            loss = model.loss(logits, b)
            grads = backward(loss)
            real = logits.data[:, :len(ids)] if head == "tagging" else logits.data
            return real, loss.item(), {name: dense_gradient(grads[p])
                                       for name, p in model.params.items()}

        logits, loss, grads = run(0)
        for pad in (1, 6, 11):
            padded_logits, padded_loss, padded_grads = run(pad)
            np.testing.assert_allclose(padded_logits, logits, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(padded_loss, loss, rtol=1e-12)
            for name, g in grads.items():
                np.testing.assert_allclose(padded_grads[name], g, rtol=1e-12, atol=1e-15,
                                           err_msg=name)

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

    def test_tagging_head_shapes_and_loss(self):
        model = small_model(head="tagging", classes=5)
        ids = np.array([[4, 5, 6, 0]])
        b = FakeBatch(token_ids=ids, mask=ids != 0,
                      labels=np.array([[0, 1, 2, 0]]))
        logits = model.forward(b)
        assert logits.shape == (1, 4, 5)
        loss = model.loss(logits, b)
        assert np.isfinite(loss.item())


class TestTapeBudget:
    """Nodes one training forward plus loss records; the inner loop replays each K times."""

    @pytest.mark.parametrize("dim, blocks, heads, ffn, nodes", [
        (16, 1, 2, 32, 16),     # the c09 config; 38 with the chains unfused
        (64, 2, 4, 256, 26),    # the dim-64 benchmark config; 69 unfused
    ])
    def test_nodes_per_forward(self, dim, blocks, heads, ffn, nodes):
        model = small_model(dim=dim, blocks=blocks, heads=heads, ffn_dim=ffn)
        batch = batch_of([[3, 4, 5, 6], [7, 8, 0, 0]], labels=[0, 2])
        loss = model.loss(model.forward(batch), batch)
        assert sum(t._vjp is not None for t in topo_order(loss)) == nodes

    def perturbed_loss(self, model, batch, keep):
        """The batch step's loss at (x + delta) + eta; ``keep`` gets each op's
        name and output in recording order."""
        track = T._track

        def track_spy(*args):
            out = track(*args)
            keep.append((args[3], out.data))
            return out

        shape = batch.token_ids.shape + (model.config.dim,)
        rng = np.random.default_rng(5)
        delta, eta = (Tensor(rng.uniform(-0.1, 0.1, size=shape), requires_grad=True)
                      for _ in range(2))
        T._track = track_spy
        try:
            perturbed = T.add(T.add(model.embed(batch), delta), eta)
            loss = model.loss(model.forward_from_embeddings(perturbed, batch.mask), batch)
        finally:
            T._track = track
        return loss, [delta, eta, *model.params.values()]

    def test_tape_keeps_only_what_its_vjps_read(self):
        """With the loss held, the op outputs no vjp reads are already freed:
        x + delta, the q/k/v, wo, ffn.w1 and ffn.w2 projections, the masked
        and the pooled sums. The gradients are bitwise those of a tape whose
        every output is kept alive."""
        model = small_model(dim=8, blocks=1, heads=2, ffn_dim=16)
        batch = batch_of([[3, 4, 5, 6], [7, 8, 0, 0]], labels=[0, 2])

        recorded = []
        loss, leaves = self.perturbed_loss(model, batch, recorded)
        refs = [(op, weakref.ref(data)) for op, data in recorded]
        del recorded
        matmuls = [ref for op, ref in refs if op == "matmul"]     # wq wk wv wo w1 w2 head
        adds = [ref for op, ref in refs if op == "add"]           # x + delta, then + eta
        freed = [adds[0], *matmuls[:6]] + [ref for op, ref in refs
                                           if op in ("mask_fill", "sum")]
        assert len(freed) == 9 and all(ref() is None for ref in freed)
        # read by the vjps of wq/wk/wv and wo: alive while the loss is
        assert adds[1]() is not None
        assert next(ref for op, ref in refs if op == "attention")() is not None
        for node in topo_order(loss):
            cells = (node._vjp.__closure__ or ()) if node._vjp is not None else ()
            for value in (c.cell_contents for c in cells):
                assert not any(isinstance(v, Tensor) for v in
                               (value if isinstance(value, tuple) else (value,))), node._op

        kept = []
        kept_loss, kept_leaves = self.perturbed_loss(model, batch, kept)
        grads, kept_grads = backward(loss), backward(kept_loss)
        for leaf, kept_leaf in zip(leaves, kept_leaves):
            want = dense_gradient(kept_grads[kept_leaf]).tobytes()
            assert dense_gradient(grads[leaf]).tobytes() == want


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
        model = small_model(seed=5, vocab_size=4, dim=2, blocks=0, ffn_dim=2,
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

    def test_non_integer_hyperparameters_rejected(self, tmp_path):
        model = small_model(seed=5)
        model.config.dim, model.config.blocks = 8.0, True
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointFormatError, match="dim must be an integer"):
            load_checkpoint(path)

    @staticmethod
    def add_hyperparameters(path, **keys):
        """Rewrite the file's hyperparameter block with more keys."""
        raw = path.read_bytes()
        end = 12 + int.from_bytes(raw[8:12], "little")
        hyper = {**json.loads(raw[12:end]), **keys}
        path.write_bytes(raw[:8] + container.json_object(hyper) + raw[end:])

    def test_files_naming_encoder_and_dropout_still_load(self, tmp_path):
        """Files written while the config had encoder, dropout and dropout_seed."""
        model = small_model(seed=5)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        self.add_hyperparameters(path, encoder="transformer", dropout=0.0, dropout_seed=0)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

        self.add_hyperparameters(path, encoder="mlp")
        with pytest.raises(CheckpointFormatError, match="transformer encoder"):
            load_checkpoint(path)

    def test_non_bool_switch_rejected(self, tmp_path):
        """A crafted file whose switch is a string is refused, not read by its truthiness."""
        path = tmp_path / "model.bin"
        save_checkpoint(small_model(seed=5, use_positional=True), path)
        self.add_hyperparameters(path, use_positional="true")
        with pytest.raises(CheckpointFormatError, match="use_positional must be true or false"):
            load_checkpoint(path)

    def test_loaded_parameters_are_writable(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(small_model(seed=5), path)
        for p in load_checkpoint(path).params.values():
            p.data += 1.0

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_checkpoint(small_model(seed=5), path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="unsupported checkpoint version 2"):
            load_checkpoint(path)
