"""Tensor core: op semantics, autodiff correctness, graph behavior."""
import math
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
