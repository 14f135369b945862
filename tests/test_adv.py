"""Adversarial core: projection, scaling index, steps, the full batch loop."""
import dataclasses
import weakref

import numpy as np
import pytest

from tavat import adv
from tavat.adv import (AdvConfig, ConfigError, NonFiniteGradient, SpecialTokenPolicy,
                       example_norms, init_delta, init_vocabulary, instance_step,
                       project_frobenius, scaling_index, tavat_batch_step, token_step)
from tavat.data import DatasetSpec, build_dataset, encode_examples, make_batches
from tavat.model import ModelConfig, TextModel
from tavat import tensor as T
from tavat.tensor import RowGradient, backward
from tavat.train import SGD, Adam, _step_record
from oracles import dense_gradient, reference_freelb_step, token_step_reference
from stepwatch import RecordingOptimizer, Trajectory


def make_batch(n=6, seed=7, batch_size=6, max_len=16):
    spec = DatasetSpec(n=max(n * 3, 60), noise=0.1, dev_fraction=0.0)
    tok, train_ex, _, _ = build_dataset(spec, seed=seed)
    enc = encode_examples(tok, train_ex[:batch_size], max_len)
    return tok, make_batches(enc, batch_size)[0]


def make_model(tok, dim=16, seed=0, **overrides):
    cfg = ModelConfig(vocab_size=tok.vocab_size, dim=dim, blocks=1, heads=2,
                      ffn_dim=32, max_len=16, classes=2, **overrides)
    return TextModel(cfg, rng=np.random.default_rng(seed))


class TestConfig:
    def test_bounds_validated(self):
        with pytest.raises(ConfigError):
            AdvConfig(epsilon=0.0)
        with pytest.raises(ConfigError):
            AdvConfig(sigma=-1.0)
        with pytest.raises(ConfigError):
            AdvConfig(alpha=0.0)
        with pytest.raises(ConfigError):
            AdvConfig(K=0)

    @pytest.mark.parametrize("kwargs", [
        {"epsilon": float("nan")}, {"epsilon": float("inf")}, {"sigma": float("nan")},
        {"alpha": float("inf")}, {"epsilon": "0.3"}, {"K": True}, {"K": 2.0},
        {"use_vocab": "false"}, {"use_token_norm": 1},
    ])
    def test_ill_typed_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            AdvConfig(**kwargs)

    def test_frozen(self):
        cfg = AdvConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.K = 1

    def test_baseline_modes_forbid_token_features(self):
        with pytest.raises(ConfigError, match="freelb"):
            AdvConfig(mode="freelb", use_vocab=True, use_token_norm=False)
        with pytest.raises(ConfigError, match="pgd"):
            AdvConfig(mode="pgd", use_vocab=False, use_token_norm=True)

    def test_activation_semantics(self):
        assert AdvConfig().eta_active
        assert not AdvConfig(use_vocab=False, use_token_norm=False).eta_active

    def test_policy(self):
        excl = SpecialTokenPolicy("exclude", frozenset({2}))
        assert excl.permits(5) and not excl.permits(2)
        incl = SpecialTokenPolicy("include", frozenset({2}))
        assert incl.permits(2) and not incl.permits(5)
        ids = np.array([[5, 2, 0], [2, 7, 2]])
        np.testing.assert_array_equal(excl.permits(ids), [[True, False, True],
                                                          [False, True, False]])
        np.testing.assert_array_equal(incl.permits(ids), ~excl.permits(ids))
        assert SpecialTokenPolicy().permits(ids).all()
        with pytest.raises(ConfigError):
            SpecialTokenPolicy("banish", frozenset())
        assert SpecialTokenPolicy("exclude", {3, 1, 2, 1}).ids == (1, 2, 3)

    @pytest.mark.parametrize("ids", ["123", [1.5], [True], 5])
    def test_policy_ids_must_be_integers(self, ids):
        with pytest.raises(ConfigError, match="integers"):
            SpecialTokenPolicy("exclude", ids)


class TestInitDelta:
    def test_sigma_zero_gives_zeros(self):
        mask = np.ones((2, 3), dtype=bool)
        out = init_delta((2, 3, 4), 0.0, mask, np.random.default_rng(0))
        assert (out == 0.0).all()

    def test_bounds_and_variance(self):
        """Element variance of U(-1,1)/sqrt(D) should be sigma^2/(3 D)."""
        d = 4
        mask = np.ones((100, 100), dtype=bool)
        draws = np.concatenate([
            init_delta((100, 100, d), 1.0, mask, np.random.default_rng(s)).reshape(-1)
            for s in range(25)])
        assert draws.size == 10 ** 6
        assert np.abs(draws).max() <= 0.5
        expected = 1.0 / (3 * d)
        assert abs(draws.var() - expected) / expected < 0.05

    def test_padded_rows_exactly_zero(self):
        mask = np.array([[True, False], [True, True]])
        out = init_delta((2, 2, 3), 0.7, mask, np.random.default_rng(1))
        assert (out[0, 1] == 0.0).all()
        assert np.abs(out[mask]).max() > 0


class TestProjection:
    def test_scaling_case(self):
        rng = np.random.default_rng(0)
        p = rng.normal(size=(3, 4))
        eps = np.linalg.norm(p) / 2.0
        out = project_frobenius(p, eps)
        np.testing.assert_allclose(out, p / 2.0, rtol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(out), eps, rtol=1e-12)

    def test_interior_point_unchanged_bitwise(self):
        p = np.random.default_rng(1).normal(size=(3, 4))
        out = project_frobenius(p, 2 * np.linalg.norm(p))
        assert out is p

    def test_idempotence_100_random(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p = rng.normal(size=(4, 5)) * rng.uniform(0.1, 10)
            eps = rng.uniform(0.1, 2.0)
            once = project_frobenius(p, eps)
            twice = project_frobenius(once, eps)
            np.testing.assert_array_equal(once, twice)

    def test_zero_input_returns_zero(self):
        p = np.zeros((2, 2))
        assert project_frobenius(p, 1.0) is p

    def test_batch_variant_matches_per_example(self):
        """A batch projects each sequence on its own; the input is left as it was."""
        rng = np.random.default_rng(3)
        p = rng.normal(size=(5, 3, 4)) * rng.uniform(0.05, 1.0, size=(5, 1, 1))
        before = p.copy()
        out = project_frobenius(p, 1.0)
        inside = example_norms(p) <= 1.0
        assert inside.any() and not inside.all()
        for b in range(5):
            np.testing.assert_array_equal(out[b], project_frobenius(p[b], 1.0))
        np.testing.assert_array_equal(p, before)
        interior = p[inside]
        assert project_frobenius(interior, 1.0) is interior


class TestScalingIndex:
    def test_direct_ratio(self):
        eta = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(scaling_index(eta, np.array([True, True])),
                                   [0.5, 1.0], atol=1e-15)

    def test_all_equal_norms_give_ones(self):
        eta = np.ones((4, 3))
        np.testing.assert_array_equal(scaling_index(eta, np.ones(4, dtype=bool)),
                                      np.ones(4))

    def test_invariance_under_global_scaling(self):
        rng = np.random.default_rng(5)
        eta = rng.normal(size=(6, 4))
        mask = np.array([True] * 5 + [False])
        n1 = scaling_index(eta, mask)
        n2 = scaling_index(3.7 * eta, mask)
        assert np.abs(n1 - n2).max() <= 1e-12

    def test_padded_positions_zero(self):
        eta = np.ones((3, 2))
        mask = np.array([True, False, True])
        n = scaling_index(eta, mask)
        assert n[1] == 0.0

    def test_cold_start_fallback(self):
        eta = np.zeros((3, 2))
        mask = np.array([True, True, False])
        np.testing.assert_array_equal(scaling_index(eta, mask), [1.0, 1.0, 0.0])

    def test_batch_variant_matches_single(self):
        rng = np.random.default_rng(6)
        eta = rng.normal(size=(4, 5, 3))
        mask = rng.random((4, 5)) > 0.3
        mask[:, 0] = True
        batch = scaling_index(eta, mask)
        for b in range(4):
            np.testing.assert_array_equal(batch[b], scaling_index(eta[b], mask[b]))


class TestTokenStep:
    def test_zero_gradient_scaling_only(self):
        rng = np.random.default_rng(7)
        eta = rng.normal(size=(1, 4, 3)) * 0.1
        mask = np.ones((1, 4), dtype=bool)
        out = token_step(eta, np.zeros_like(eta), 0.3, 10.0, mask)
        n = scaling_index(eta, mask)
        np.testing.assert_array_equal(out, n[:, :, None] * eta)

    def test_single_token_reduces_to_instance_step(self):
        rng = np.random.default_rng(8)
        eta = rng.normal(size=(1, 1, 4)) * 0.1
        grad = rng.normal(size=(1, 1, 4))
        mask = np.ones((1, 1), dtype=bool)
        via_token = token_step(eta, grad, 0.2, 1.0, mask)
        via_instance = instance_step(eta, grad, 0.2, 1.0, mask)
        np.testing.assert_allclose(via_token, via_instance, atol=1e-15)

    def test_two_token_toy_against_scalar_oracle(self):
        """Hand-specified two-token case recomputed by the arithmetic oracle."""
        eta = np.array([[[0.3, -0.1], [0.05, 0.2]]])
        grad = np.array([[[1.0, 2.0], [-0.5, 0.25]]])
        mask = np.ones((1, 2), dtype=bool)
        for tok_norm in (True, False):
            engine = token_step(eta, grad, 0.7, 0.4, mask, use_token_norm=tok_norm)
            oracle = token_step_reference(eta[0], grad[0], 0.7, 0.4, mask[0],
                                          use_token_norm=tok_norm)
            assert np.abs(engine[0] - oracle).max() <= 1e-12

    def test_random_cases_against_scalar_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            length, dim = rng.integers(1, 6), rng.integers(1, 5)
            eta = rng.normal(size=(1, length, dim)) * rng.uniform(0, 0.5)
            grad = rng.normal(size=(1, length, dim))
            mask = rng.random((1, length)) > 0.3
            mask[0, 0] = True
            eta[~mask] = 0.0
            engine = token_step(eta, grad, 0.31, 0.9, mask)
            oracle = token_step_reference(eta[0], grad[0], 0.31, 0.9, mask[0])
            assert np.abs(engine[0] - oracle).max() <= 1e-12

    def test_zero_row_stays_zero_beside_a_nonzero_one(self):
        """A zero row has scaling index 0 once another row of its sequence is above
        the floor, so no gradient moves it: its vocabulary row never leaves zero."""
        rng = np.random.default_rng(13)
        eta = rng.normal(size=(1, 4, 3)) * 0.1
        eta[0, 1] = 0.0
        out = token_step(eta, rng.normal(size=eta.shape), 0.3, 10.0, np.ones((1, 4), bool))
        np.testing.assert_array_equal(out[0, 1], 0.0)
        assert (np.linalg.norm(out[0], axis=-1)[[0, 2, 3]] > 0).all()

    def test_row_below_the_peak_by_more_than_alpha_shrinks(self):
        """Row i's norm after the step is at most n_i (|eta_i| + alpha), with
        n_i = |eta_i| / max_j |eta_j|: the row shrinks by at least the factor
        (|eta_i| + alpha) / max_j |eta_j| when that is below 1, whatever the gradient."""
        rng = np.random.default_rng(14)
        alpha, shrinking = 0.05, 0
        for _ in range(200):
            eta = rng.normal(size=(1, 5, 3)) * rng.uniform(0.01, 0.3, size=(1, 5, 1))
            out = token_step(eta, rng.normal(size=eta.shape), alpha, 10.0,
                             np.ones((1, 5), bool))
            before, after = np.linalg.norm(eta[0], axis=-1), np.linalg.norm(out[0], axis=-1)
            factor = (before + alpha) / before.max()
            below = factor < 1
            assert (after[below] <= factor[below] * before[below] * (1 + 1e-12)).all()
            assert (after[below] < before[below]).all()
            shrinking += below.sum()
        assert shrinking > 100

    def test_non_finite_gradient_aborts(self):
        eta = np.zeros((1, 2, 2))
        bad = np.array([[[np.nan, 0.0], [0.0, 0.0]]])
        with pytest.raises(NonFiniteGradient, match="non-finite"):
            token_step(eta, bad, 0.1, 1.0, np.ones((1, 2), dtype=bool))


class TestInstanceStep:
    def test_radial_step_on_boundary_projects_back(self):
        rng = np.random.default_rng(10)
        delta = rng.normal(size=(1, 3, 2))
        eps = 0.5
        delta *= eps / np.linalg.norm(delta)
        out = instance_step(delta, 3.0 * delta, 0.2, eps,
                            np.ones((1, 3), dtype=bool))
        np.testing.assert_allclose(out, delta, atol=1e-12)

    def test_first_step_length(self):
        rng = np.random.default_rng(11)
        grad = rng.normal(size=(1, 2, 3))
        mask = np.ones((1, 2), dtype=bool)
        for alpha, eps in ((0.3, 1.0), (2.0, 0.7)):
            out = instance_step(np.zeros((1, 2, 3)), grad, alpha, eps, mask)
            np.testing.assert_allclose(np.linalg.norm(out), min(alpha, eps), rtol=1e-12)

    def test_ascent_monotone_on_positive_definite_quadratic(self):
        """Inner-step loss never decreases on a fixed PD quadratic surrogate."""
        rng = np.random.default_rng(12)
        for trial in range(10):
            m = rng.normal(size=(4, 4))
            a = m @ m.T + 0.1 * np.eye(4)
            mask = np.ones((1, 2), dtype=bool)
            delta = np.zeros((1, 2, 2))
            eps, alpha = 1.0, 0.1
            values = []
            for _ in range(25):
                flat = delta.reshape(-1)
                values.append(0.5 * flat @ a @ flat)
                grad = (a @ flat).reshape(1, 2, 2)
                delta = instance_step(delta, grad, alpha, eps, mask)
            diffs = np.diff(values)
            assert diffs.min() >= -1e-12, f"trial {trial}: decrease {diffs.min()}"

    def test_non_finite_gradient_aborts(self):
        with pytest.raises(NonFiniteGradient):
            instance_step(np.zeros((1, 1, 2)), np.array([[[np.inf, 0.0]]]),
                          0.1, 1.0, np.ones((1, 1), dtype=bool))


class TestBatchStep:
    def test_freelb_reduction_bitwise(self):
        tok, batch = make_batch()
        cfg = AdvConfig(mode="freelb", use_vocab=False, use_token_norm=False,
                        epsilon=0.5, sigma=0.02, alpha=0.2, K=3)
        engine_model = make_model(tok, seed=1)
        ref_model = engine_model.snapshot()
        optimizer = RecordingOptimizer(SGD(0.05))
        report = tavat_batch_step(engine_model, batch, None, cfg, optimizer,
                                  np.random.default_rng(21))
        updated, accum, losses = reference_freelb_step(
            ref_model, batch, cfg, np.random.default_rng(21), lr=0.05)
        for name in engine_model.params:
            np.testing.assert_array_equal(engine_model.params[name].data, updated[name])
        for name in accum:
            np.testing.assert_array_equal(dense_gradient(optimizer.grads[name]), accum[name])
        np.testing.assert_array_equal(report.losses, losses)

    def test_all_off_toggles_also_reduce_to_freelb(self):
        """tavat with vocab and token-norm off collapses to the same loop."""
        tok, batch = make_batch()
        sgd_lr = 0.05
        collapsed_cfg = AdvConfig(mode="tavat", use_vocab=False, use_token_norm=False,
                                  epsilon=0.5, sigma=0.02, alpha=0.2, K=3)
        engine_model = make_model(tok, seed=1)
        ref_model = engine_model.snapshot()
        tavat_batch_step(engine_model, batch, None, collapsed_cfg, SGD(sgd_lr),
                         np.random.default_rng(21))
        freelb_cfg = AdvConfig(mode="freelb", use_vocab=False, use_token_norm=False,
                               epsilon=0.5, sigma=0.02, alpha=0.2, K=3)
        updated, _, _ = reference_freelb_step(ref_model, batch, freelb_cfg,
                                              np.random.default_rng(21), lr=sgd_lr)
        for name in engine_model.params:
            np.testing.assert_array_equal(engine_model.params[name].data, updated[name])

    def test_clean_gradient_reduction(self):
        """K=1, sigma=0, everything off: the step sees the unperturbed batch."""
        tok, batch = make_batch()
        model = make_model(tok, seed=2)
        clean_model = model.snapshot()
        cfg = AdvConfig(mode="tavat", use_vocab=False, use_token_norm=False,
                        sigma=0.0, K=1)
        optimizer = RecordingOptimizer(SGD(0.0))
        tavat_batch_step(model, batch, None, cfg, optimizer, np.random.default_rng(0))
        logits = clean_model.forward(batch)
        grads = backward(clean_model.loss(logits, batch))
        for name, p in clean_model.params.items():
            np.testing.assert_array_equal(dense_gradient(optimizer.grads[name]),
                                          dense_gradient(grads[p]))

    def test_pgd_single_step_equals_freelb_single_step(self):
        tok, batch = make_batch()
        m1 = make_model(tok, seed=3)
        m2 = m1.snapshot()
        common = dict(use_vocab=False, use_token_norm=False,
                      epsilon=0.5, sigma=0.02, alpha=0.2, K=1)
        tavat_batch_step(m1, batch, None, AdvConfig(mode="pgd", **common),
                         SGD(0.05), np.random.default_rng(4))
        tavat_batch_step(m2, batch, None, AdvConfig(mode="freelb", **common),
                         SGD(0.05), np.random.default_rng(4))
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)

    def test_pgd_uses_only_last_step_gradient(self, monkeypatch):
        tok, batch = make_batch()
        model = make_model(tok, seed=4)
        cfg = AdvConfig(mode="pgd", use_vocab=False, use_token_norm=False,
                        epsilon=0.5, sigma=0.01, alpha=0.2, K=3)
        trajectory = Trajectory(monkeypatch)
        optimizer = RecordingOptimizer(SGD(0.05))
        tavat_batch_step(model.snapshot(), batch, None, cfg, optimizer,
                         np.random.default_rng(5))
        # recompute the parameter gradient where the last inner step evaluated
        delta_last = trajectory.path("delta")[-2]
        probe = model.snapshot()
        from tavat import tensor as T
        from tavat.tensor import Tensor
        x = probe.embed(batch)
        logits = probe.forward_from_embeddings(
            T.add(x, Tensor(delta_last, requires_grad=True)), batch.mask)
        grads = backward(probe.loss(logits, batch))
        for name, p in probe.params.items():
            np.testing.assert_array_equal(dense_gradient(optimizer.grads[name]),
                                          dense_gradient(grads[p]))

    def test_vocab_replay_unique_tokens(self, monkeypatch):
        """Second visit to the same batch starts eta at the last final eta."""
        tok, batch = make_batch(batch_size=2)
        ids = batch.token_ids
        assert len(np.unique(ids[batch.mask])) >= 3
        model = make_model(tok, seed=5)
        cfg = AdvConfig(epsilon=1.0, sigma=0.0, alpha=0.3, K=2)
        vocab = init_vocabulary(tok.vocab_size, 16, 0.0, np.random.default_rng(6),
                                meta={"epsilon": 1.0})
        rng = np.random.default_rng(7)
        tavat_batch_step(model, batch, vocab, cfg, SGD(0.0), rng)
        table_after_first = vocab.table.copy()
        trajectory = Trajectory(monkeypatch)
        tavat_batch_step(model, batch, vocab, cfg, SGD(0.0), rng)
        # eta0 of the second call must equal scatter(final eta of the first):
        # for ids occurring once the stored row is exactly the final slice.
        eta0_second = trajectory.path("eta")[0]
        unique, counts = np.unique(ids[batch.mask], return_counts=True)
        singles = set(unique[counts == 1])
        checked = 0
        for b in range(ids.shape[0]):
            for pos in range(ids.shape[1]):
                if batch.mask[b, pos] and ids[b, pos] in singles:
                    np.testing.assert_array_equal(eta0_second[b, pos],
                                                  table_after_first[ids[b, pos]])
                    checked += 1
        assert checked >= 3

    def test_norm_safety_throughout(self, monkeypatch):
        tok, batch = make_batch()
        model = make_model(tok, seed=6)
        cfg = AdvConfig(epsilon=0.3, sigma=0.05, alpha=0.4, K=4)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma,
                                np.random.default_rng(8), meta={"epsilon": 0.3})
        trajectory = Trajectory(monkeypatch)
        tavat_batch_step(model, batch, vocab, cfg, SGD(0.05), np.random.default_rng(9))
        deltas, etas = trajectory.path("delta"), trajectory.path("eta")
        assert len(deltas) == len(etas) == cfg.K + 1
        for p in deltas[1:] + etas[1:]:
            assert example_norms(p).max() <= 0.3 + 1e-9

    def test_padding_neutrality(self, monkeypatch):
        """delta, eta, and their gradients stay exactly zero off-mask."""
        tok, batch = make_batch(batch_size=4)
        assert not batch.mask.all()
        model = make_model(tok, seed=7)
        cfg = AdvConfig(epsilon=1.0, sigma=0.05, alpha=0.3, K=2)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma,
                                np.random.default_rng(10), meta={"epsilon": 1.0})
        trajectory = Trajectory(monkeypatch)
        tavat_batch_step(model, batch, vocab, cfg, SGD(0.05), np.random.default_rng(11))
        deltas, etas = trajectory.path("delta"), trajectory.path("eta")
        assert len(deltas) == len(etas) == cfg.K + 1
        for p in deltas + etas:
            assert (p[~batch.mask] == 0.0).all()
        # gradients at padded positions are exactly zero by mask construction
        from tavat import tensor as T
        from tavat.tensor import Tensor
        x = model.embed(batch)
        d = Tensor(np.zeros(x.shape), requires_grad=True)
        grads = backward(model.loss(
            model.forward_from_embeddings(T.add(x, d), batch.mask), batch))
        assert (grads[d][~batch.mask] == 0.0).all()

    def test_accumulation_identity_recompute(self, monkeypatch):
        """Optimizer-visible gradient equals (1/K) sum of recomputed step grads."""
        tok, batch = make_batch()
        model = make_model(tok, seed=8)
        cfg = AdvConfig(epsilon=1.0, sigma=0.02, alpha=0.3, K=3)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma,
                                np.random.default_rng(12), meta={"epsilon": 1.0})
        before = model.snapshot()
        trajectory = Trajectory(monkeypatch)
        optimizer = RecordingOptimizer(SGD(0.05))
        tavat_batch_step(model, batch, vocab, cfg, optimizer, np.random.default_rng(13))
        from tavat import tensor as T
        from tavat.tensor import Tensor
        recomputed = {name: 0.0 for name in before.params}
        points = list(zip(trajectory.path("delta")[:-1], trajectory.path("eta")[:-1]))
        assert len(points) == cfg.K
        for delta, eta in points:
            x = before.embed(batch)
            perturbed = T.add(T.add(x, Tensor(delta)), Tensor(eta))
            grads = backward(before.loss(
                before.forward_from_embeddings(perturbed, batch.mask), batch))
            for name, p in before.params.items():
                recomputed[name] = recomputed[name] + dense_gradient(grads[p]) / cfg.K
        for name in recomputed:
            assert np.abs(dense_gradient(optimizer.grads[name]) - recomputed[name]).max() <= 1e-10

    def test_abort_leaves_params_and_vocab_untouched(self):
        tok, batch = make_batch()
        model = make_model(tok, seed=9)
        model.params["head.weight"].data[0, 0] = np.nan
        cfg = AdvConfig(epsilon=1.0, sigma=0.01, alpha=0.3, K=2)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma,
                                np.random.default_rng(14), meta={"epsilon": 1.0})
        table_before = vocab.table.copy()
        params_before = {n: p.data.copy() for n, p in model.params.items()}
        with pytest.raises(NonFiniteGradient):
            tavat_batch_step(model, batch, vocab, cfg, SGD(0.05),
                             np.random.default_rng(15))
        np.testing.assert_array_equal(vocab.table, table_before)
        for name, p in model.params.items():
            np.testing.assert_array_equal(
                p.data[~np.isnan(p.data)], params_before[name][~np.isnan(params_before[name])])

    @staticmethod
    def _assert_poisoned_step_aborts(monkeypatch, name, poison):
        """A step whose gradient of ``name`` ``poison`` made non-finite moves nothing."""
        tok, batch = make_batch()
        model = make_model(tok, seed=9)
        cfg = AdvConfig(epsilon=1.0, sigma=0.01, alpha=0.3, K=2)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma,
                                np.random.default_rng(14), meta={"epsilon": 1.0})
        optimizer = Adam(0.01)
        recording = RecordingOptimizer(optimizer)
        tavat_batch_step(model, batch, vocab, cfg, recording, np.random.default_rng(15))
        # the optimizer sees the table's sum row-sparse, the rest dense
        assert {n: type(g) for n, g in recording.grads.items()} == {
            n: RowGradient if n == "embedding.weight" else np.ndarray for n in model.params}

        poisoned = model.params[name]

        def poisoning_backward(loss):
            grads = backward(loss)
            grads[poisoned] = 0.0 + grads[poisoned]    # a fresh array or row values
            poison(grads[poisoned])
            return grads

        monkeypatch.setattr(adv, "backward", poisoning_backward)
        table_before = vocab.table.copy()
        params_before = {n: p.data.copy() for n, p in model.params.items()}
        state_before = (optimizer.t, {n: m.copy() for n, m in optimizer.m.items()},
                        {n: v.copy() for n, v in optimizer.v.items()})
        with pytest.raises(NonFiniteGradient, match=name):
            tavat_batch_step(model, batch, vocab, cfg, optimizer, np.random.default_rng(16))

        np.testing.assert_array_equal(vocab.table, table_before)
        for key, p in model.params.items():
            np.testing.assert_array_equal(p.data, params_before[key])
        assert optimizer.t == state_before[0]
        for now, before in ((optimizer.m, state_before[1]), (optimizer.v, state_before[2])):
            assert now.keys() == before.keys()
            for key in now:
                np.testing.assert_array_equal(now[key], before[key])

    def test_non_finite_parameter_gradient_aborts_before_any_update(self, monkeypatch):
        """A NaN only in a parameter's gradient reaches neither parameters,
        optimizer state nor vocabulary."""
        def poison(g):
            g[0, 0] = np.nan
        self._assert_poisoned_step_aborts(monkeypatch, "block0.ffn.w1.weight", poison)

    def test_non_finite_embedding_row_aborts_before_any_update(self, monkeypatch):
        """The finite check reads the embedding gradient's touched rows, before
        anything densifies it or moves."""
        def poison(g):
            assert isinstance(g, RowGradient)
            g.values[-1, 3] = np.nan
        self._assert_poisoned_step_aborts(monkeypatch, "embedding.weight", poison)

    def test_toggles_are_orthogonal(self, monkeypatch):
        """Flipping ptb_vocab leaves token-norm-gated paths untouched and vice versa;
        each step looks the embedding up once for all K inner steps."""
        tok, batch = make_batch()
        calls = []
        for name in ("gather", "scatter", "token_step"):
            def spy(*args, _name=name, _fn=getattr(adv, name), **kwargs):
                calls.append((_name, kwargs.get("use_token_norm")))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(adv, name, spy)
        embed = TextModel.embed

        def embed_spy(self, batch):
            calls.append(("embed", None))
            return embed(self, batch)
        monkeypatch.setattr(TextModel, "embed", embed_spy)

        def calls_for(use_vocab, use_token_norm):
            calls.clear()
            cfg = AdvConfig(epsilon=1.0, sigma=0.01, alpha=0.3, K=2,
                            use_vocab=use_vocab, use_token_norm=use_token_norm)
            vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma,
                                    np.random.default_rng(16),
                                    meta={"epsilon": 1.0}) if use_vocab else None
            tavat_batch_step(make_model(tok, seed=10), batch, vocab, cfg, SGD(0.05),
                             np.random.default_rng(17))
            steps = [c for c in calls if c[0] == "token_step"]
            return steps, [c for c in calls if c[0] != "token_step"]

        on, vocab_off = calls_for(True, True), calls_for(False, True)
        norm_off = calls_for(True, False)
        assert on[0] == vocab_off[0] == [("token_step", True)] * 2
        assert on[1] == norm_off[1] == [("gather", None), ("embed", None), ("scatter", None)]
        assert vocab_off[1] == [("embed", None)] and norm_off[0] == [("token_step", False)] * 2

    def test_each_inner_step_frees_its_tape_before_the_next(self, monkeypatch):
        """No array of step t's tape is alive when step t + 1's forward starts;
        only the embedding, which all K steps share, outlives its step."""
        tok, batch = make_batch()
        model = make_model(tok, seed=13)
        cfg = AdvConfig(epsilon=0.5, sigma=0.05, alpha=0.2, K=3)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma, np.random.default_rng(22),
                                meta={"epsilon": 0.5})
        recorded, step_tape, leftovers = [], [], []
        track, embed, forward, real_backward = (T._track, model.embed,
                                                model.forward_from_embeddings, adv.backward)

        def track_spy(*args):
            out = track(*args)
            recorded.append(weakref.ref(out.data))
            return out

        def embed_spy(b):
            start = len(recorded)
            x = embed(b)
            del recorded[start:]        # the embedding outlives every step
            return x

        def forward_spy(*args, **kwargs):
            leftovers.append(sum(ref() is not None for ref in step_tape))
            return forward(*args, **kwargs)

        def backward_spy(loss):
            step_tape[:] = recorded
            recorded.clear()
            return real_backward(loss)

        monkeypatch.setattr(T, "_track", track_spy)
        monkeypatch.setattr(model, "embed", embed_spy)
        monkeypatch.setattr(model, "forward_from_embeddings", forward_spy)
        monkeypatch.setattr(adv, "backward", backward_spy)
        tavat_batch_step(model, batch, vocab, cfg, SGD(0.05), np.random.default_rng(23))
        assert len(step_tape) > 10
        assert leftovers == [0, 0, 0]

    @pytest.mark.parametrize("mode", ["tavat", "freelb"])
    def test_report_holds_the_final_perturbations(self, mode, monkeypatch):
        """The report's delta and eta are the last inner step's outputs (eta None
        when token-level features are off); the step record reads their norms."""
        tok, batch = make_batch()
        on = mode == "tavat"
        cfg = AdvConfig(epsilon=0.5, sigma=0.05, alpha=0.2, K=3, mode=mode,
                        use_vocab=on, use_token_norm=on)
        vocab = init_vocabulary(tok.vocab_size, 16, cfg.sigma, np.random.default_rng(20),
                                meta={"epsilon": 0.5}) if on else None
        trajectory = Trajectory(monkeypatch)
        report = tavat_batch_step(make_model(tok, seed=12), batch, vocab, cfg, SGD(0.05),
                                  np.random.default_rng(21))
        record = _step_record(report, 0, 0, 0.0)
        for name, final, active in (("delta", report.delta, True),
                                    ("eta", report.eta, on)):
            if active:
                assert final is trajectory.path(name)[-1]
                norms = example_norms(final)
                assert record[f"{name}_norm_max"] == float(norms.max())
                assert record[f"{name}_norm_mean"] == float(norms.mean())
            else:
                assert final is None and trajectory.path(name) == []
                assert f"{name}_norm_max" not in record

    def test_requires_vocab_when_enabled(self):
        tok, batch = make_batch()
        model = make_model(tok)
        with pytest.raises(ConfigError, match="vocabulary"):
            tavat_batch_step(model, batch, None, AdvConfig(), SGD(0.05),
                             np.random.default_rng(0))
