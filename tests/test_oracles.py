"""Oracle self-checks: the certifiers must themselves behave."""
import numpy as np
import pytest

from tavat.adv import AdvConfig
from tavat.data import DatasetSpec, build_dataset, encode_examples, make_batches
from tavat.model import ModelConfig, TextModel
from tavat.tensor import backward
from oracles import (OracleReport, dense_gradient, finite_difference_gradient,
                     grid_inner_max, reference_freelb_step, token_step_reference)


class TestFiniteDifference:
    def test_linear_loss_gives_ones(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        est = finite_difference_gradient(lambda a: a.sum(), x, list(range(12)))
        np.testing.assert_allclose(est, 1.0, atol=1e-9)

    def test_quadratic_gives_x(self):
        x = np.random.default_rng(1).normal(size=(6,))
        est = finite_difference_gradient(lambda a: 0.5 * (a * a).sum(), x, list(range(6)))
        np.testing.assert_allclose(est, x, atol=1e-8)

    def test_bad_h_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            finite_difference_gradient(lambda a: a.sum(), np.ones(3), [0], h=0.0)

    def test_non_finite_probe_detected(self):
        def f(a):
            return np.inf if a[0] > 1.0 else a.sum()
        with pytest.raises(FloatingPointError, match="non-finite"):
            finite_difference_gradient(f, np.array([1.0]), [0], h=0.5)


class TestGridInnerMax:
    def test_linear_loss_maximized_at_scaled_direction(self):
        """max of c.x over the ball sits at eps * c/|c| with value eps |c|."""
        c = np.array([1.0, -2.0, 0.5])
        eps, pitch = 1.0, 1.0 / 20
        point, value = grid_inner_max(lambda p: p @ c, eps, dims=3, pitch=pitch)
        ideal = eps * np.linalg.norm(c)
        assert ideal - value <= np.linalg.norm(c) * pitch
        np.testing.assert_allclose(point, eps * c / np.linalg.norm(c),
                                   atol=2 * pitch)

    def test_symmetric_quadratic_peaks_at_top_eigenvector(self):
        """By hand at dims=2: eigenvalues of [[3,1],[1,3]] are 4 and 2."""
        a = np.array([[3.0, 1.0], [1.0, 3.0]])
        eps, pitch = 1.0, 1.0 / 50
        point, value = grid_inner_max(
            lambda p: 0.5 * np.einsum("ni,ij,nj->n", p, a, p), eps, dims=2, pitch=pitch)
        # max = eps^2 * lambda_max / 2 = 2.0 along (1,1)/sqrt(2)
        value_tol = 4.0 * pitch
        assert abs(value - 2.0) <= value_tol
        assert np.linalg.norm(point) <= eps * (1 + 1e-12)
        # value deficit eps^2/2 (l1-l2) sin^2(theta) bounds the angular error
        direction = point / np.linalg.norm(point)
        angle_tol = np.sqrt(2 * value_tol / (4.0 - 2.0)) + 2 * pitch
        assert min(np.linalg.norm(direction - np.ones(2) / np.sqrt(2)),
                   np.linalg.norm(direction + np.ones(2) / np.sqrt(2))) <= angle_tol

    def test_tiny_ball_degenerates_to_origin(self):
        c = np.array([5.0, 5.0])
        _, value = grid_inner_max(lambda p: 1.0 + p @ c, 1e-9, dims=2, pitch=1e-9)
        np.testing.assert_allclose(value, 1.0, atol=1e-6)

    def test_grid_too_large_rejected(self):
        with pytest.raises(ValueError, match="grid too large"):
            grid_inner_max(lambda p: p.sum(axis=1), 1.0, dims=6, pitch=1.0 / 50)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            grid_inner_max(lambda p: p.sum(axis=1), 0.0, dims=2, pitch=0.1)


class TestTokenStepReference:
    def test_zero_gradient_keeps_eta_scaled(self):
        eta = np.array([[0.2, 0.0], [0.4, 0.0]])
        out = token_step_reference(eta, np.zeros((2, 2)), 0.3, 10.0,
                                   np.array([True, True]))
        np.testing.assert_allclose(out, np.array([[0.1, 0.0], [0.4, 0.0]]), atol=1e-15)

    def test_projection_applies(self):
        eta = np.array([[10.0, 0.0]])
        out = token_step_reference(eta, np.zeros((1, 2)), 0.3, 1.0,
                                   np.array([True]))
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


class TestReferenceFreeLB:
    def make_setup(self):
        spec = DatasetSpec(n=60, noise=0.1, dev_fraction=0.0)
        tok, train_ex, _, _ = build_dataset(spec, seed=3)
        enc = encode_examples(tok, train_ex[:4], 16)
        batch = make_batches(enc, 4)[0]
        cfg = ModelConfig(vocab_size=tok.vocab_size, dim=8, blocks=0, heads=2,
                          ffn_dim=16, max_len=16, classes=2)
        return TextModel(cfg, rng=np.random.default_rng(1)), batch

    def test_clean_gradient_when_degenerate(self):
        """K=1 and sigma=0 reduce the baseline to one clean update."""
        model, batch = self.make_setup()
        cfg = AdvConfig(mode="freelb", use_vocab=False, use_token_norm=False,
                        sigma=0.0, K=1)
        updated, accum, _ = reference_freelb_step(model, batch, cfg,
                                                  np.random.default_rng(2), lr=0.1)
        grads = backward(model.loss(model.forward(batch), batch))
        for name, p in model.params.items():
            g = dense_gradient(grads[p])
            np.testing.assert_array_equal(accum[name], g)
            np.testing.assert_array_equal(updated[name], p.data - 0.1 * g)

    def test_loss_trace_non_decreasing_on_convex_surrogate(self):
        """With no encoder blocks the loss is convex in the perturbation."""
        model, batch = self.make_setup()
        cfg = AdvConfig(mode="freelb", use_vocab=False, use_token_norm=False,
                        epsilon=0.5, sigma=0.0, alpha=0.05, K=8)
        _, _, losses = reference_freelb_step(model, batch, cfg,
                                             np.random.default_rng(4), lr=0.0)
        diffs = np.diff(losses)
        assert diffs.min() >= -1e-12

    def test_mode_guard(self):
        model, batch = self.make_setup()
        with pytest.raises(ValueError, match="freelb"):
            reference_freelb_step(model, batch, AdvConfig(mode="tavat"),
                                  np.random.default_rng(0), lr=0.1)


class TestOracleReport:
    def test_pass_and_render(self):
        r = OracleReport("demo", engine_value=1.0, oracle_value=1.0 + 1e-9,
                         tolerance=1e-6)
        assert r.passed
        assert "PASS" in r.line() and "demo" in r.line()
        bad = OracleReport("demo", 1.0, 2.0, tolerance=1e-6)
        assert not bad.passed and "FAIL" in bad.line()
