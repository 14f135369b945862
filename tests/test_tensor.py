"""Tensor core: op semantics, autodiff correctness, graph behavior."""
import numpy as np
import pytest

from tavat import tensor as T
from tavat.oracles import finite_difference_gradient
from tavat.tensor import Tensor, backward, cross_entropy_loss, topo_order


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
        loss = T.scale(T.reduce_sum(T.mul(x, x)), 0.5)
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
        square = T.mul(x, x)
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

    def test_diamond_graph_gradient(self):
        """Shared subexpressions accumulate both path contributions."""
        x = Tensor([2.0], requires_grad=True)
        y = T.mul(x, x)
        loss = T.reduce_sum(T.add(y, y))
        np.testing.assert_allclose(backward(loss)[x], [8.0])

    def test_topological_order(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = T.mul(x, x)
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
        ad = grads[p].reshape(-1)[coords]
        err = np.abs(fd - ad) / np.maximum(np.maximum(np.abs(fd), np.abs(ad)), floor)
        assert err.max() <= tol, f"max rel err {err.max()}"


class TestFiniteDifferenceConsistency:
    """Every differentiable op agrees with central differences on [-1, 1] draws."""

    def test_matmul_add_mul(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.uniform(-1, 1, size=(3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(4, 2)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, size=(2,)), requires_grad=True)
        _fd_matches(lambda: T.reduce_sum(T.mul(T.add(T.matmul(a, b), c),
                                               T.add(T.matmul(a, b), c))), [a, b, c])

    def test_batched_matmul(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(2, 4, 3)), requires_grad=True)
        _fd_matches(lambda: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])

    def test_layer_norm(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.uniform(-1, 1, size=(4, 6)), requires_grad=True)
        g = Tensor(rng.uniform(0.5, 1.5, size=(6,)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, size=(6,)), requires_grad=True)
        _fd_matches(lambda: T.reduce_sum(T.mul(T.layer_norm(x, g, b),
                                               T.layer_norm(x, g, b))), [x, g, b])

    def test_softmax_and_mask_fill(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.uniform(-1, 1, size=(3, 5)), requires_grad=True)
        mask = rng.random((3, 5)) > 0.3

        def build():
            masked = T.mask_fill(x, mask, -1e9)
            probs = T.softmax(masked)
            return T.reduce_sum(T.mul(probs, probs))

        _fd_matches(build, [x])

    def test_relu_scale_transpose_reshape(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.uniform(-1, 1, size=(2, 3, 4)), requires_grad=True)

        def build():
            h = T.relu(T.scale(x, 1.7))
            h = T.transpose(h, (0, 2, 1))
            h = T.reshape(h, (2, 12))
            return T.reduce_sum(T.mul(h, h))

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
