"""Tensor core: op semantics, autodiff correctness, graph behavior."""
import math
import multiprocessing
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from tavat import tensor as T
from tavat.tensor import Tensor, backward, cross_entropy_loss, topo_order
from oracles import dense_gradient, finite_difference_gradient


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product, ``b`` broadcast as a trailing-shape suffix like ``add``'s."""
    T._suffix_check("mul", a, b)

    def vjp(g):
        return g * b.data, T._sum_to_suffix(g * a.data, b.shape)

    return T._track(a.data * b.data, (a, b), vjp, "mul")


class TestForwardOps:
    def test_matmul_identity_padded(self):
        """A 3x2 identity-padded right operand picks out the left columns."""
        a = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = Tensor([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [4.0, 5.0]])

    def test_relu_definition(self):
        out = T.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_layer_norm_constant_row_is_zero(self):
        """Zero-variance rows normalize to zeros under the variance floor."""
        x = Tensor([[5.0, 5.0, 5.0]])
        out = T.layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, [[0.0, 0.0, 0.0]])

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        out = T.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)

    def test_mask_fill(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        mask = np.array([[True, False], [False, True]])
        out = T.mask_fill(x, mask, -9.0)
        np.testing.assert_array_equal(out.data, [[1.0, -9.0], [-9.0, 4.0]])

    def test_embedding_lookup_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, np.array([[2, 0]]))
        np.testing.assert_array_equal(out.data, [[[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]]])

    def test_matmul_shape_error_names_op_and_dims(self):
        with pytest.raises(T.ShapeError, match=r"matmul.*\(2, 3\).*\(2, 2\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    def test_add_rejects_non_suffix_broadcast(self):
        with pytest.raises(T.ShapeError, match="add"):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 1))))

    def test_embedding_lookup_id_out_of_range(self):
        table = Tensor(np.ones((4, 3)))
        with pytest.raises(IndexError, match="out of range"):
            T.embedding_lookup(table, np.array([4]))


class TestCrossEntropy:
    def test_saturated_softmax(self):
        loss = cross_entropy_loss(Tensor([[10.0, -10.0]]), np.array([0]))
        assert loss.item() < 1e-4

    def test_uniform_softmax(self):
        loss = cross_entropy_loss(Tensor([[0.0, 0.0]]), np.array([0]))
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)

    def test_against_logsumexp_hand_computation(self):
        """Direct formula evaluation oracle on random logits."""
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(3, 4))
        labels = np.array([1, 3, 0])
        expected = 0.0
        for row, label in zip(logits, labels):
            expected += -(row[label] - np.log(np.sum(np.exp(row))))
        expected /= 3.0
        loss = cross_entropy_loss(Tensor(logits), labels)
        np.testing.assert_allclose(loss.item(), expected, atol=1e-10)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError, match="label out of range"):
            cross_entropy_loss(Tensor([[0.0, 0.0]]), np.array([2]))

    def test_masked_token_level_loss(self):
        logits = Tensor(np.zeros((1, 3, 2)))
        labels = np.array([[0, 1, 0]])
        mask = np.array([[True, True, False]])
        loss = cross_entropy_loss(logits, labels, mask=mask)
        np.testing.assert_allclose(loss.item(), np.log(2.0), atol=1e-12)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        grads = backward(T.reduce_sum(x))
        np.testing.assert_array_equal(grads[x], np.ones((3, 4)))

    def test_half_square_norm_gives_x(self):
        x = Tensor(np.random.default_rng(1).normal(size=(5,)), requires_grad=True)
        loss = T.scale(T.reduce_sum(mul(x, x)), 0.5)
        grads = backward(loss)
        np.testing.assert_allclose(grads[x], x.data, atol=1e-15)

    def test_two_layer_network_against_finite_differences(self):
        """Every parameter of a small MLP checked against central differences."""
        rng = np.random.default_rng(7)
        w1 = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        b1 = Tensor(rng.uniform(-1, 1, size=(6,)), requires_grad=True)
        w2 = Tensor(rng.uniform(-1, 1, size=(6, 3)), requires_grad=True)
        x = rng.uniform(-1, 1, size=(5, 4))
        labels = rng.integers(0, 3, size=5)

        def run():
            h = T.relu(T.add(T.matmul(Tensor(x), w1), b1))
            return cross_entropy_loss(T.matmul(h, w2), labels)

        grads = backward(run())
        for p in (w1, b1, w2):
            coords = list(range(p.size))

            def loss_at(arr, p=p):
                saved = p.data
                p.data = np.ascontiguousarray(arr)
                value = run().item()
                p.data = saved
                return value

            fd = finite_difference_gradient(loss_at, p.data, coords)
            ad = grads[p].reshape(-1)
            err = np.abs(fd - ad) / np.maximum(np.maximum(np.abs(fd), np.abs(ad)), 1e-8)
            assert err.max() <= 1e-4

    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(T.GraphError, match="scalar"):
            backward(T.relu(x))

    def test_backward_requires_recorded_graph(self):
        with pytest.raises(T.GraphError, match="no recorded operations"):
            backward(Tensor(1.0, requires_grad=True))

    def test_backward_map_is_the_only_gradient_channel(self):
        """Repeated backward calls return equal maps and write no tensor."""
        x = Tensor(np.arange(4.0), requires_grad=True)
        square = mul(x, x)
        loss = T.reduce_sum(square)
        first = backward(loss)
        second = backward(loss)
        assert first.keys() == second.keys()
        for tensor in first:
            np.testing.assert_array_equal(first[tensor], second[tensor])
        for tensor in (x, square, loss):
            assert tensor.grad is None
            with pytest.raises(AttributeError):
                tensor.grad = np.zeros_like(tensor.data)

    def test_map_keys_are_the_tracked_leaves(self):
        """Interior adjoints are dropped; untracked constants get no entry."""
        x = Tensor(np.arange(4.0), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        y = mul(x, w)
        loss = T.reduce_sum(T.add(T.add(y, y), T.scale(Tensor(np.ones(4)), 2.0)))
        grads = backward(loss)
        # the walk reaches only tracked vertices: nodes and tracked leaves
        leaves = {t for t in topo_order(loss) if t._vjp is None}
        assert grads.keys() == leaves == {x, w}
        np.testing.assert_array_equal(grads[x], 2 * w.data)
        np.testing.assert_array_equal(grads[w], 2 * x.data)

    def test_map_does_not_keep_the_tape_alive(self):
        """Once the loss is dropped, no interior array is reachable from the map."""
        x = Tensor(np.arange(-2.0, 2.0), requires_grad=True)
        hidden = T.relu(mul(x, x))
        probe = weakref.ref(hidden.data)
        grads = backward(T.reduce_sum(hidden))
        del hidden
        assert probe() is None
        np.testing.assert_array_equal(grads[x], 2 * x.data)

    def test_diamond_graph_gradient(self):
        """Shared subexpressions accumulate both path contributions."""
        x = Tensor([2.0], requires_grad=True)
        y = mul(x, x)
        loss = T.reduce_sum(T.add(y, y))
        np.testing.assert_allclose(backward(loss)[x], [8.0])

    def test_topological_order(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, x)
        z = T.add(y, x)
        loss = T.reduce_sum(z)
        order = topo_order(loss)
        position = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node._parents:
                assert position[id(parent)] < position[id(node)]


def _fd_matches(build_loss, params, tol=1e-4, floor=1e-8, n_coords=10, seed=0):
    """Shared property: autodiff vs central differences on random coords."""
    grads = backward(build_loss())
    rng = np.random.default_rng(seed)
    for p in params:
        coords = sorted(rng.choice(p.size, size=min(n_coords, p.size), replace=False))

        def loss_at(arr, p=p):
            saved = p.data
            p.data = np.ascontiguousarray(arr)
            value = build_loss().item()
            p.data = saved
            return value

        fd = finite_difference_gradient(loss_at, p.data, coords)
        ad = dense_gradient(grads[p]).reshape(-1)[coords]
        err = np.abs(fd - ad) / np.maximum(np.maximum(np.abs(fd), np.abs(ad)), floor)
        assert err.max() <= tol, f"max rel err {err.max()}"


class TestFiniteDifferenceConsistency:
    """Every differentiable op agrees with central differences on [-1, 1] draws."""

    def test_matmul_add_mul(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, size=(2,)), requires_grad=True)
        _fd_matches(lambda: T.reduce_sum(mul(T.add(T.matmul(a, b), c),
                                             T.add(T.matmul(a, b), c))), [a, b, c])

    def test_batched_matmul(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(2, 4, 3)), requires_grad=True)
        _fd_matches(lambda: T.reduce_sum(mul(T.matmul(a, b), T.matmul(a, b))), [a, b])

    def test_layer_norm(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=(6,)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(6,)), requires_grad=True)
        _fd_matches(lambda: T.reduce_sum(mul(T.layer_norm(x, g, b),
                                             T.layer_norm(x, g, b))), [x, g, b])

    def test_softmax_and_mask_fill(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        mask = rng.random((3, 5)) > 0.3

        def build():
            masked = T.mask_fill(x, mask, -1e9)
            probs = T.softmax(masked)
            return T.reduce_sum(mul(probs, probs))

        _fd_matches(build, [x])

    def test_relu_scale_transpose_reshape(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)

        def build():
            h = T.relu(T.scale(x, 1.7))
            h = T.transpose(h, (0, 2, 1))
            h = T.reshape(h, (2, 12))
            return T.reduce_sum(mul(h, h))

        _fd_matches(build, [x])

    def test_embedding_and_cross_entropy(self):
        rng = np.random.default_rng(16)
        table = Tensor(rng.uniform(-1, 1, size=(7, 4)), requires_grad=True)
        ids = rng.integers(0, 7, size=(3, 5))
        w = Tensor(rng.uniform(-1, 1, size=(4, 3)), requires_grad=True)
        labels = rng.integers(0, 3, size=3)

        def build():
            h = T.embedding_lookup(table, ids)
            pooled = T.scale(T.reduce_sum(h, axis=1), 1.0 / 5.0)
            return cross_entropy_loss(T.matmul(pooled, w), labels)

        _fd_matches(build, [table, w])


    def test_matmul_with_bias(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, size=(4, 5)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(5,)), requires_grad=True)

        def build():
            out = T.matmul(x, w, b)
            return T.reduce_sum(mul(out, out))

        _fd_matches(build, [x, w, b])

    def test_layer_norm_with_residual(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        r = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=(6,)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(6,)), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, size=(4, 6)))
        _fd_matches(lambda: T.reduce_sum(mul(T.layer_norm(x, g, b, residual=r), weights)),
                    [x, r, g, b])

    def test_attention(self):
        rng = np.random.default_rng(19)
        q, k, v = (Tensor(rng.uniform(-1, 1, size=(2, 5, 8)), requires_grad=True)
                   for _ in range(3))
        key_mask = np.array([[True] * 5, [True, True, True, False, False]])
        weights = Tensor(rng.uniform(-1, 1, size=(2, 5, 8)))

        def build():
            return T.reduce_sum(mul(T.attention(q, k, v, key_mask, 2, -1e9), weights))

        _fd_matches(build, [q, k, v])


class TestExactFastPaths:
    """Each rewrite of a per-row cost gives the bits of the expression it replaces,
    on inputs that run every branch."""

    @staticmethod
    def softmax_reference(x):
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("shape", [(3, 2, 5, 5), (4, 7), (6,)])
    def test_softmax_matches_the_last_axis_max_bitwise(self, shape):
        """Rows whose maximum is the mask fill, -inf, a zero of either sign among
        zeros of both signs, or NaN, beside ordinary rows."""
        rng = np.random.default_rng(25)
        x = rng.normal(size=shape)
        rows = x.reshape(-1, shape[-1])
        if len(rows) > 1:
            rows[0] = FILL                              # every key masked
            rows[1] = [-np.inf] * shape[-1]
        if len(rows) > 4:
            rows[2] = np.resize([0.0, -0.0], shape[-1])
            rows[3] = np.resize([-0.0, 0.0, -1.0], shape[-1])
            rows[4, 1] = np.nan
        if len(rows) > 5:
            rows[5, ::2] = FILL                         # some keys masked
        with np.errstate(invalid="ignore"):
            got, want = T._softmax(x), self.softmax_reference(x)
        assert got.tobytes() == want.tobytes()

    def test_layer_norm_with_rows_below_the_variance_floor(self):
        """Forward bitwise against ``np.mean``'s formula, and the vjp against central
        differences at c01's tolerance (1e-4 relative above a 1e-8 floor), on ordinary
        rows, an exactly constant row and a row whose variance is below the floor but
        not zero, where the vjp must drop the term along y. Probes of the floored rows
        take a step small enough to stay under the floor."""
        rng = np.random.default_rng(26)
        dim = 16
        a = rng.uniform(-1, 1, size=(2, 4, dim))
        a[0, 1] = 0.5
        a[1, 2] = 1.0 + 5e-7 * rng.uniform(-1, 1, size=dim)
        x = Tensor(a, requires_grad=True)
        gain = Tensor(rng.uniform(0.5, 1.5, size=dim), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, size=dim), requires_grad=True)
        weights = Tensor(rng.uniform(-1, 1, size=a.shape))

        centered = a - a.mean(axis=-1, keepdims=True)
        var = np.mean(centered * centered, axis=-1, keepdims=True)
        assert var[0, 1, 0] == 0.0 and 0.0 < var[1, 2, 0] < T.LAYER_NORM_VAR_FLOOR / 4
        y = centered / np.sqrt(np.maximum(var, T.LAYER_NORM_VAR_FLOOR))
        out = T.layer_norm(x, gain, bias)
        assert out.data.tobytes() == (y * gain.data + bias.data).tobytes()

        def loss():
            return T.reduce_sum(mul(T.layer_norm(x, gain, bias), weights))

        def loss_at(arr):
            saved = x.data
            x.data = np.ascontiguousarray(arr)
            value = loss().item()
            x.data = saved
            return value

        grad = backward(loss())[x].reshape(-1)
        for (b, t), h in (((0, 0), 1e-5), ((1, 3), 1e-5), ((0, 1), 1e-9), ((1, 2), 1e-9)):
            coords = list(range((b * 4 + t) * dim, (b * 4 + t + 1) * dim))
            fd = finite_difference_gradient(loss_at, a, coords, h=h)
            ad = grad[coords]
            err = np.abs(fd - ad) / np.maximum(np.maximum(np.abs(fd), np.abs(ad)), 1e-8)
            assert err.max() <= 1e-4, ((b, t), err.max())

    def test_row_gradient_sum_over_shared_rows_is_the_union_sum_bitwise(self):
        """Two RowGradients holding the same ``rows`` object, as a lookup's replays
        do, add to what the union path gives for an equal copy of the rows."""
        rows = np.array([0, 2, 5])
        a = T.RowGradient(rows, np.array([[-0.0, 1.5], [np.nan, -0.0], [3.0, 0.25]]), (7, 2))
        b = T.RowGradient(rows, np.array([[-0.0, 0.5], [1.0, 0.0], [-3.0, 1e-300]]), (7, 2))
        copied = T.RowGradient(rows.copy(), b.values, b.shape)
        shared = a + b
        assert shared.rows is rows
        assert _bits(shared) == _bits(a + copied) == _bits(dense_gradient(a) + dense_gradient(b))


class TestPacked:
    LAYOUT = (("w", (3, 2)), ("b", (2,)), ("g", (1, 4)))

    def test_views_tile_the_flat_buffer_in_layout_order(self):
        packed = T.Packed(self.LAYOUT)
        for name, shape in self.LAYOUT:
            packed[name][...] = len(name) + np.arange(np.prod(shape)).reshape(shape)
        packed["b"] += 10.0
        assert packed.flat.tolist() == [1, 2, 3, 4, 5, 6, 11, 12, 1, 2, 3, 4]
        assert all(packed[n].base is packed.flat for n, _ in self.LAYOUT)

    def test_a_packed_name_keeps_its_view(self):
        packed = T.Packed(self.LAYOUT)
        with pytest.raises(ValueError, match="b is packed"):
            packed["b"] = np.ones(2)
        packed["table"] = np.ones(2)        # a name of the caller's own
        assert all(packed[n].base is packed.flat for n, _ in self.LAYOUT)
        assert packed["table"].base is None


class TestDeterminism:
    def test_bitwise_identical_forward_and_backward(self):
        def run(seed):
            rng = np.random.default_rng(seed)
            x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            w = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            loss = cross_entropy_loss(T.matmul(x, w), rng.integers(0, 3, size=4))
            grads = backward(loss)
            return loss.item(), grads[x].copy(), grads[w].copy()

        l1, gx1, gw1 = run(42)
        l2, gx2, gw2 = run(42)
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)


# (dim, heads, ffn): the c09 shapes, where a flattened-GEMM rewrite of
# matmul was not bitwise, and the dim-64 benchmark shapes
FUSED_SHAPES = [(16, 2, 32), (64, 4, 256)]
FILL = -1e9


def _taped(build, inputs, rng):
    """Forward output and every input's gradient under a random upstream gradient."""
    out = build(*inputs)
    upstream = Tensor(rng.uniform(-1, 1, size=out.shape))
    grads = backward(T.reduce_sum(mul(out, upstream)))
    return out.data, [grads[t] for t in inputs]


def _assert_bitwise(fused, chain, make_inputs, seed):
    got, got_grads = _taped(fused, make_inputs(), np.random.default_rng(seed))
    want, want_grads = _taped(chain, make_inputs(), np.random.default_rng(seed))
    assert np.array_equal(got, want)
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert g.shape == w.shape and np.array_equal(g, w)


def _padded_mask(bsz, length, rng):
    lengths = rng.integers(2, length + 1, size=bsz)
    lengths[0] = length
    return np.arange(length)[None, :] < lengths[:, None]


class TestFusedOpsMatchTheirChains:
    """Each fused op is bitwise its unfused composition, forward and vjp."""

    @pytest.mark.parametrize("dim, heads, ffn", FUSED_SHAPES)
    def test_matmul_bias_is_matmul_then_add(self, dim, heads, ffn):
        # the projections and FFN layers on (batch, length, dim), and the pooled head
        for shape_in, fan_out in (((5, 9, dim), dim), ((5, 9, dim), ffn), ((5, 9, ffn), dim),
                                  ((5, dim), 2)):
            def make_inputs(shape_in=shape_in, fan_out=fan_out):
                r = np.random.default_rng(1)
                return [Tensor(r.uniform(-1, 1, size=shape), requires_grad=True)
                        for shape in (shape_in, (shape_in[-1], fan_out), (fan_out,))]

            _assert_bitwise(lambda x, w, b: T.matmul(x, w, b),
                            lambda x, w, b: T.add(T.matmul(x, w), b), make_inputs, dim)

    @pytest.mark.parametrize("dim, heads, ffn", FUSED_SHAPES)
    def test_layer_norm_residual_is_add_then_layer_norm(self, dim, heads, ffn):
        def make_inputs():
            r = np.random.default_rng(2)
            return [Tensor(r.uniform(-1, 1, size=(5, 9, dim)), requires_grad=True),
                    Tensor(r.uniform(-1, 1, size=(5, 9, dim)), requires_grad=True),
                    Tensor(r.uniform(0.5, 1.5, size=(dim,)), requires_grad=True),
                    Tensor(r.uniform(-1, 1, size=(dim,)), requires_grad=True)]

        _assert_bitwise(lambda a, h, g, b: T.layer_norm(a, g, b, residual=h),
                        lambda a, h, g, b: T.layer_norm(T.add(h, a), g, b),
                        make_inputs, dim)

    @pytest.mark.parametrize("dim, heads, ffn", FUSED_SHAPES)
    def test_attention_is_the_head_split_chain(self, dim, heads, ffn):
        bsz, length = 5, 9
        dk = dim // heads
        key_mask = _padded_mask(bsz, length, np.random.default_rng(dim))
        assert not key_mask.all()

        def chain(q, k, v):
            def split(t):
                return T.transpose(T.reshape(t, (bsz, length, heads, dk)), (0, 2, 1, 3))

            qh, kh, vh = split(q), split(k), split(v)
            scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / np.sqrt(dk))
            scores = T.mask_fill(scores, key_mask[:, None, None, :], FILL)
            ctx = T.matmul(T.softmax(scores), vh)
            return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (bsz, length, dim))

        def make_inputs():
            r = np.random.default_rng(3)
            return [Tensor(r.uniform(-1, 1, size=(bsz, length, dim)), requires_grad=True)
                    for _ in range(3)]

        _assert_bitwise(lambda q, k, v: T.attention(q, k, v, key_mask, heads, FILL),
                        chain, make_inputs, dim + 1)

    def test_shape_errors(self):
        x = Tensor(np.ones((2, 3, 4)))
        with pytest.raises(T.ShapeError, match="matmul"):
            T.matmul(x, Tensor(np.ones((4, 5))), Tensor(np.ones(4)))
        with pytest.raises(T.ShapeError, match="residual"):
            T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)),
                         residual=Tensor(np.ones((2, 4))))
        mask = np.ones((2, 3), dtype=bool)
        with pytest.raises(T.ShapeError, match="heads"):
            T.attention(x, x, x, mask, 3, FILL)
        with pytest.raises(T.ShapeError, match="key mask"):
            T.attention(x, x, x, mask[:, :2], 2, FILL)


def _dense_scatter(shape, ids, upstream):
    """The embedding gradient as a dense zeros_like plus np.add.at scatter."""
    out = np.zeros(shape)
    np.add.at(out, ids, upstream)
    return out


def _bits(a) -> bytes:
    return dense_gradient(a).tobytes()


class TestRowGradient:
    """The embedding vjp's compact gradient densifies to the dense scatter, bit for bit."""

    # repeated ids, pads (id 0) and a row (4) whose one upstream slice is -0.0
    IDS = np.array([[3, 1, 3, 0], [4, 3, 0, 0], [1, 6, 6, 3]])

    def upstream(self, rng):
        g = rng.uniform(-1, 1, size=self.IDS.shape + (5,))
        g[1, 0] = -0.0
        return g

    def test_lookup_gradient_matches_dense_scatter(self):
        rng = np.random.default_rng(21)
        table = Tensor(rng.uniform(-1, 1, size=(9, 5)), requires_grad=True)
        g = self.upstream(rng)
        grads = backward(T.reduce_sum(mul(T.embedding_lookup(table, self.IDS), Tensor(g))))
        compact = grads[table]
        assert isinstance(compact, T.RowGradient)
        np.testing.assert_array_equal(compact.rows, [0, 1, 3, 4, 6])
        assert _bits(compact) == _bits(_dense_scatter(table.shape, self.IDS, g))

    def test_untouched_rows_are_positive_zero(self):
        rng = np.random.default_rng(22)
        table = Tensor(rng.uniform(-1, 1, size=(9, 5)), requires_grad=True)
        grads = backward(T.reduce_sum(mul(T.embedding_lookup(table, self.IDS),
                                          Tensor(self.upstream(rng)))))
        dense = dense_gradient(grads[table])
        untouched = np.setdiff1d(np.arange(9), self.IDS)
        assert (dense[untouched] == 0.0).all()
        assert not np.signbit(dense[untouched]).any()
        assert not np.signbit(dense[4]).any()     # 0.0 + -0.0 is +0.0, as in the scatter

    def test_table_looked_up_twice_sums_over_the_row_union(self):
        rng = np.random.default_rng(23)
        table = Tensor(rng.uniform(-1, 1, size=(9, 5)), requires_grad=True)
        other = np.array([[8, 1], [0, 2]])
        g1, g2 = self.upstream(rng), rng.uniform(-1, 1, size=(2, 2, 5))
        loss = T.add(T.reduce_sum(mul(T.embedding_lookup(table, self.IDS), Tensor(g1))),
                     T.reduce_sum(mul(T.embedding_lookup(table, other), Tensor(g2))))
        compact = backward(loss)[table]
        np.testing.assert_array_equal(compact.rows, [0, 1, 2, 3, 4, 6, 8])
        expected = (_dense_scatter(table.shape, self.IDS, g1)
                    + _dense_scatter(table.shape, other, g2))
        assert _bits(compact) == _bits(expected)

    def test_arithmetic_matches_the_dense_expression(self):
        """``0.0 + w * g`` and ``g + g`` keep the dense bits, signed zeros and NaN
        included."""
        shape = (6, 2)
        a = T.RowGradient(np.array([1, 3]), np.array([[-0.0, 2.0], [-0.0, np.nan]]), shape)
        b = T.RowGradient(np.array([3, 5]), np.array([[-0.0, 1.0], [4.0, -0.0]]), shape)
        da, db = dense_gradient(a), dense_gradient(b)
        assert _bits(0.0 + 0.25 * a) == _bits(0.0 + 0.25 * da)
        assert _bits(a + b) == _bits(da + db)
        assert _bits(b + a) == _bits(db + da)

    def test_only_the_first_backward_finds_the_distinct_ids(self, monkeypatch):
        """A forward sorts no ids, so predict never does; the first backward
        finds them and every later replay of the same lookup reuses them."""
        calls = []
        unique = np.unique

        def unique_spy(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", unique_spy)
        rng = np.random.default_rng(24)
        table = Tensor(rng.uniform(-1, 1, size=(9, 5)), requires_grad=True)
        g = self.upstream(rng)
        loss = T.reduce_sum(mul(T.embedding_lookup(table, self.IDS), Tensor(g)))
        assert calls == []
        replays = [backward(loss)[table] for _ in range(3)]
        assert len(calls) == 1
        expected = _bits(_dense_scatter(table.shape, self.IDS, g))
        assert all(_bits(r) == expected for r in replays)

        from tavat.data import Batch
        from tavat.model import ModelConfig, TextModel
        model = TextModel(ModelConfig(vocab_size=9, dim=4, blocks=1, heads=2, max_len=4,
                                      use_positional=True), rng=np.random.default_rng(0))
        ids = np.array([[1, 2, 2, 0], [3, 1, 0, 0]])
        calls.clear()
        model.predict(Batch(ids, np.array([0, 1])))
        assert calls == []

    @pytest.mark.parametrize("expression", [lambda g: -1.0 * g, lambda g: math.inf * g,
                                            lambda g: 1.0 + g])
    def test_arithmetic_that_would_fill_untouched_rows_is_refused(self, expression):
        g = T.RowGradient(np.array([1]), np.ones((1, 2)), (3, 2))
        with pytest.raises(TypeError):
            expression(g)


def _model_grads(head):
    """The dim-64, 2-block model's gradient map over a padded batch, as bits."""
    from tavat.model import ModelConfig, TextModel
    classes = 5 if head == "tagging" else 2
    model = TextModel(ModelConfig(vocab_size=56, dim=64, blocks=2, heads=4, ffn_dim=256,
                                  max_len=24, classes=classes, head=head,
                                  use_positional=head == "tagging"),
                      rng=np.random.default_rng(3))
    rng = np.random.default_rng(4)
    ids = rng.integers(1, 56, size=(32, 24))
    ids[:, 18:] *= np.arange(32)[:, None] % 3 == 0      # padded tails on two rows in three
    mask = ids != 0
    labels = rng.integers(0, classes, size=ids.shape if head == "tagging" else 32)
    batch = type("Batch", (), {"token_ids": ids, "mask": mask, "labels": labels})()
    delta = Tensor(rng.normal(scale=0.01, size=ids.shape + (64,)), requires_grad=True)
    loss = model.loss(model.forward_from_embeddings(T.add(model.embed(batch), delta), mask),
                      batch)
    grads = backward(loss)
    return [(grads[t].shape, _bits(grads[t])) for t in [delta, *model.params.values()]]


class TestDeferredProducts:
    """``backward`` runs large leaf products on its worker thread with the same bits."""

    @pytest.mark.parametrize("head", ["classification", "tagging"])
    def test_model_gradient_map_is_bitwise_that_of_inline_products(self, head, monkeypatch):
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", math.inf)
        inline = _model_grads(head)
        submitted = []
        real_submit = T._submit
        monkeypatch.setattr(T, "_submit", lambda job: submitted.append(job) or real_submit(job))
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 0)
        deferred = _model_grads(head)
        # two blocks of q, k, v, o and two ffn layers, weight and bias, and four
        # layer norms' gain and bias, plus the head's weight and bias
        assert len(submitted) == 2 * (6 * 2 + 2 * 2) + 2
        assert deferred == inline
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 1 << 20)
        assert _model_grads(head) == inline

    def test_shared_weight_folds_its_contributions_in_vjp_order(self, monkeypatch):
        """Two deferred products and one inline one add up as the inline left fold."""
        rng = np.random.default_rng(7)
        w_data = rng.normal(size=(8, 8))
        # rows 2 are below the rule set below, rows 64 and 80 clear it
        xs = [rng.normal(size=(rows, 8)) * scale for rows, scale in ((2, 1e3), (64, 1.0),
                                                                      (80, 1e-3))]

        def grad(rule):
            monkeypatch.setattr(T, "DEFER_MIN_MADDS", rule)
            w = Tensor(w_data, requires_grad=True)
            outs = [T.reduce_sum(T.matmul(Tensor(x), w)) for x in xs]
            return backward(T.add(T.add(outs[2], outs[1]), outs[0]))[w]

        submitted = []
        real_submit = T._submit
        monkeypatch.setattr(T, "_submit", lambda job: submitted.append(job.size) or real_submit(job))
        mixed = grad(1000)
        assert submitted == [80 * 8 * 8, 64 * 8 * 8]
        inline = grad(math.inf)
        assert mixed.tobytes() == inline.tobytes()
        # the order matters in these bits: the inline product comes last
        parts = [x.T @ np.ones((x.shape[0], 8)) for x in xs]
        assert ((parts[2] + parts[1]) + parts[0]).tobytes() == inline.tobytes()
        assert ((parts[0] + parts[2]) + parts[1]).tobytes() != inline.tobytes()

    def test_worker_exception_is_raised_by_backward_and_the_next_backward_works(
            self, monkeypatch):
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 0)
        x = Tensor(np.ones(3), requires_grad=True)

        def failing():
            time.sleep(0.05)        # still running when the caller reaches the join
            raise ArithmeticError("deferred product failed")

        def vjp(g):
            return (T.Deferred(failing, 1),)

        broken = T._track(x.data.copy(), (x,), vjp, "broken")
        with pytest.raises(ArithmeticError, match="deferred product failed"):
            backward(T.reduce_sum(broken))
        w = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        grads = backward(T.reduce_sum(T.matmul(Tensor(np.ones((4, 3))), w)))
        np.testing.assert_array_equal(grads[w], np.full((3, 2), 4.0))

    def test_backward_keeps_at_most_the_pending_bound_of_jobs_waiting(self, monkeypatch):
        """Past the bound, the caller waits for its oldest job before queueing one more."""
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 0)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 3))
        w_data = [rng.normal(size=(3, 3)) for _ in range(3 * T.DEFER_MAX_PENDING)]
        submitted, waiting = [], []
        real_submit = T._submit

        def slow_submit(job):
            fn = job.fn
            job.fn = lambda: time.sleep(0.01) or fn()
            submitted.append(job)
            real_submit(job)
            waiting.append(sum(not hasattr(j, "out") for j in submitted))
            return job

        def grads():
            ws = [Tensor(w, requires_grad=True) for w in w_data]
            h = Tensor(x)
            for w in ws:
                h = T.matmul(h, w)
            got = backward(T.reduce_sum(h))
            return [got[w].tobytes() for w in ws]

        monkeypatch.setattr(T, "_submit", slow_submit)
        deferred = grads()
        assert len(submitted) == len(w_data)
        assert max(waiting) == T.DEFER_MAX_PENDING
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", math.inf)
        assert deferred == grads()

    def test_map_does_not_keep_the_tape_alive_with_deferred_products(self, monkeypatch):
        """The worker lets go of a product's arrays before ``backward`` returns."""
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 0)
        x = Tensor(np.arange(-6.0, 6.0).reshape(4, 3), requires_grad=True)
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        hidden = T.relu(T.scale(x, 2.0))
        probe = weakref.ref(hidden.data)
        grads = backward(T.reduce_sum(T.matmul(hidden, w)))
        del hidden
        assert probe() is None
        np.testing.assert_array_equal(grads[w], [[6.0, 6.0], [10.0, 10.0], [14.0, 14.0]])

    def test_small_tavat_step_starts_no_thread(self, monkeypatch):
        """At the c09 shapes no product clears the rule, so no worker is started."""
        from tavat.adv import AdvConfig, tavat_batch_step
        from tavat.model import ModelConfig, TextModel
        from tavat.train import SGD
        monkeypatch.setattr(T, "_jobs", None)
        started = []
        monkeypatch.setattr(T.threading, "Thread",
                            lambda *a, **k: started.append(1) or threading.Thread(*a, **k))
        model = TextModel(ModelConfig(vocab_size=56, dim=16, blocks=1, heads=2, ffn_dim=32,
                                      max_len=24, classes=2), rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        ids = rng.integers(4, 56, size=(32, 24))      # the longest batch the workload makes
        batch = type("Batch", (), {"token_ids": ids, "mask": ids != 0,
                                   "labels": rng.integers(0, 2, size=32), "size": 32})()
        tavat_batch_step(model, batch, None, AdvConfig(use_vocab=False, K=2), SGD(0.01), rng)
        assert started == [] and T._jobs is None

    def test_forked_child_runs_a_backward_to_the_same_bytes(self, monkeypatch):
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 0)
        rng = np.random.default_rng(2)
        data = rng.normal(size=(16, 8)), rng.normal(size=(8, 4))

        def weight_grad():
            w = Tensor(data[1], requires_grad=True)
            return backward(T.reduce_sum(T.relu(T.matmul(Tensor(data[0]), w))))[w].tobytes()

        here = weight_grad()        # the parent's worker is running from here on
        assert T._jobs is not None
        ours, theirs = multiprocessing.get_context("fork").Pipe()
        child = multiprocessing.get_context("fork").Process(
            target=lambda: theirs.send(weight_grad()))
        child.start()
        try:
            assert ours.poll(10), "the forked child's backward did not return"
            assert ours.recv() == here
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()

    def test_threads_running_backward_at_once_get_their_own_maps(self, monkeypatch):
        """Jobs of concurrent calls share one worker; each call waits for its own."""
        monkeypatch.setattr(T, "DEFER_MIN_MADDS", 0)
        rng = np.random.default_rng(5)
        inputs = [(rng.normal(size=(12, 6)), rng.normal(size=(6, 4))) for _ in range(6)]

        def weight_grads():
            out = []
            for x, w_data in inputs:
                w = Tensor(w_data, requires_grad=True)
                out.append(backward(T.reduce_sum(T.relu(T.matmul(Tensor(x), w))))[w].tobytes())
            return out

        want = weight_grads()
        got = [None] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=lambda i=i: got.__setitem__(i, weight_grads()))
                       for i in range(len(got))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * len(got)
