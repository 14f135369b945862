"""Perturbation vocabulary: gather/scatter, persistence, embedding transfer."""
import hashlib
import re

import numpy as np
import pytest

from tavat.adv import ConfigError, SpecialTokenPolicy, gather, init_vocabulary, scatter
from tavat.vocab import (FingerprintMismatch, PerturbationVocabulary,
                         VocabularyFormatError, apply_to_embedding, load_vocabulary,
                         save_vocabulary)


class TestInit:
    def test_sigma_zero_gives_zero_table(self):
        v = init_vocabulary(10, 4, 0.0, np.random.default_rng(0))
        assert (v.table == 0.0).all()

    def test_fixed_seed_reproducible(self):
        a = init_vocabulary(10, 4, 0.3, np.random.default_rng(5))
        b = init_vocabulary(10, 4, 0.3, np.random.default_rng(5))
        np.testing.assert_array_equal(a.table, b.table)

    def test_padding_row_zero(self):
        v = init_vocabulary(10, 4, 0.5, np.random.default_rng(1))
        assert (v.table[0] == 0.0).all()
        assert np.abs(v.table[1:]).max() > 0

    def test_element_mean_near_zero(self):
        """Sample mean within 3 standard errors of the uniform mean."""
        n, d, sigma = 10_000, 10, 1.0
        v = init_vocabulary(n, d, sigma, np.random.default_rng(2))
        draws = v.table[1:].reshape(-1)
        se = np.sqrt(sigma ** 2 / (3 * d)) / np.sqrt(draws.size)
        assert abs(draws.mean()) <= 3 * se

    def test_dimensions_validated(self):
        with pytest.raises(ValueError):
            init_vocabulary(0, 4, 0.1, np.random.default_rng(0))

    def test_negative_sigma_refused_as_delta_refuses_it(self):
        with pytest.raises(ConfigError, match="sigma must be non-negative"):
            init_vocabulary(10, 4, -0.1, np.random.default_rng(0))


class TestGather:
    def test_duplicate_tokens_identical_slices(self):
        v = init_vocabulary(10, 3, 0.5, np.random.default_rng(3))
        ids = np.array([[5, 5]])
        out = gather(v, ids, np.ones((1, 2), dtype=bool))
        np.testing.assert_array_equal(out[0, 0], out[0, 1])
        np.testing.assert_array_equal(out[0, 0], v.table[5])

    def test_zero_after_sigma_zero_init(self):
        v = init_vocabulary(10, 3, 0.0, np.random.default_rng(0))
        out = gather(v, np.array([[4, 7]]), np.ones((1, 2), dtype=bool))
        assert (out == 0.0).all()

    def test_padded_positions_zero(self):
        v = init_vocabulary(10, 3, 0.5, np.random.default_rng(4))
        out = gather(v, np.array([[5, 0]]), np.array([[True, False]]))
        assert (out[0, 1] == 0.0).all()

    def test_result_does_not_alias_the_table(self):
        v = init_vocabulary(10, 3, 0.5, np.random.default_rng(5))
        before = v.table.copy()
        out = gather(v, np.array([[5, 6]]), np.ones((1, 2), dtype=bool))
        out[...] = 7.0
        np.testing.assert_array_equal(v.table, before)

    def test_id_out_of_range(self):
        v = init_vocabulary(4, 3, 0.1, np.random.default_rng(0))
        with pytest.raises(IndexError, match="out of range"):
            gather(v, np.array([[9]]), np.ones((1, 1), dtype=bool))


EVERYONE = SpecialTokenPolicy()


class TestScatter:
    def setup_method(self):
        self.vocab = init_vocabulary(10, 2, 0.0, np.random.default_rng(0))

    def test_roundtrip_unique_tokens(self):
        ids = np.array([[3, 4, 5]])
        mask = np.ones((1, 3), dtype=bool)
        eta = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
        scatter(self.vocab, ids, mask, eta, special_token_policy=EVERYONE, epsilon=10.0)
        np.testing.assert_array_equal(gather(self.vocab, ids, mask), eta)

    @pytest.mark.parametrize("epsilon", [0.0, -1.0])
    def test_non_positive_epsilon_refused_before_any_write(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon must be positive"):
            scatter(self.vocab, np.array([[3]]), np.ones((1, 1), dtype=bool),
                    np.ones((1, 1, 2)), special_token_policy=EVERYONE, epsilon=epsilon)
        assert (self.vocab.table == 0.0).all() and self.vocab.meta["steps_seen"] == 0

    def test_collision_averaging(self):
        ids = np.array([[5, 5]])
        mask = np.ones((1, 2), dtype=bool)
        u, v = np.array([1.0, 3.0]), np.array([2.0, 5.0])
        scatter(self.vocab, ids, mask, np.stack([u, v])[None], special_token_policy=EVERYONE,
                epsilon=10.0)
        np.testing.assert_array_equal(self.vocab.table[5], (u + v) / 2.0)

    def test_policy_excluded_id_untouched(self):
        before = self.vocab.table[2].copy()
        ids = np.array([[2, 4]])
        mask = np.ones((1, 2), dtype=bool)
        eta = np.ones((1, 2, 2))
        scatter(self.vocab, ids, mask, eta,
                special_token_policy=SpecialTokenPolicy("exclude", frozenset({2})), epsilon=10.0)
        np.testing.assert_array_equal(self.vocab.table[2], before)
        np.testing.assert_array_equal(self.vocab.table[4], [1.0, 1.0])

    def test_fully_padded_batch_is_noop(self):
        before = self.vocab.table.copy()
        ids = np.array([[3, 4]])
        scatter(self.vocab, ids, np.zeros((1, 2), dtype=bool), np.ones((1, 2, 2)),
                special_token_policy=EVERYONE, epsilon=10.0)
        np.testing.assert_array_equal(self.vocab.table, before)

    def test_padding_row_never_written(self):
        ids = np.array([[0, 4]])
        mask = np.array([[True, True]])  # pad id unpadded only in this stress case
        scatter(self.vocab, ids, mask, np.ones((1, 2, 2)), special_token_policy=EVERYONE,
                epsilon=10.0)
        assert (self.vocab.table[0] == 0.0).all()

    def test_row_norm_clamped_to_bound(self):
        vocab = init_vocabulary(10, 2, 0.0, np.random.default_rng(0))
        ids = np.array([[4]])
        scatter(vocab, ids, np.ones((1, 1), dtype=bool), np.array([[[30.0, 40.0]]]),
                special_token_policy=EVERYONE, epsilon=1.0)
        assert np.linalg.norm(vocab.table[4]) <= 1.0 + 1e-9

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_id_out_of_range_writes_nothing(self, bad):
        """A negative id would otherwise index the table from its end."""
        vocab = init_vocabulary(6, 2, 0.5, np.random.default_rng(3))
        before = vocab.table.copy()
        with pytest.raises(IndexError, match=re.escape("scatter: token id out of range [0, 6)")):
            scatter(vocab, np.array([[4, bad]]), np.ones((1, 2), dtype=bool),
                    np.ones((1, 2, 2)), special_token_policy=EVERYONE, epsilon=10.0)
        np.testing.assert_array_equal(vocab.table, before)

    def test_isolation(self):
        """Only rows named by unpadded, permitted ids change."""
        vocab = init_vocabulary(10, 2, 0.5, np.random.default_rng(7))
        before = vocab.table.copy()
        ids = np.array([[3, 6, 0]])
        mask = np.array([[True, True, False]])
        scatter(vocab, ids, mask, np.ones((1, 3, 2)), special_token_policy=EVERYONE,
                epsilon=10.0)
        changed = np.where(np.any(vocab.table != before, axis=1))[0]
        assert set(changed) <= {3, 6}

    def test_matches_dense_reference_bitwise(self):
        """Repeats, padding, an excluded id and the clamp against dense (N, D) sums."""
        rng = np.random.default_rng(12)
        n, d, bound = 40, 6, 0.5
        excluded = {3, 7}
        policy = SpecialTokenPolicy("exclude", frozenset(excluded))
        clamped = set()
        for _ in range(20):
            vocab = init_vocabulary(n, d, 0.3, rng)
            ids = rng.integers(1, 12, size=(4, 9))
            mask = np.arange(9)[None, :] < rng.integers(1, 10, size=(4, 1))
            ids[~mask] = 0
            eta = rng.normal(size=(4, 9, d)) * rng.uniform(0.05, 0.5)

            flat = ids.reshape(-1)
            keep = mask.reshape(-1) & np.array([i != 0 and i not in excluded for i in flat])
            sums, counts = np.zeros((n, d)), np.zeros(n)
            np.add.at(sums, flat[keep], eta.reshape(-1, d)[keep])
            np.add.at(counts, flat[keep], 1.0)
            written = counts > 0
            expected = vocab.table.copy()
            expected[written] = sums[written] / counts[written, None]
            rows = expected[written]
            norms = np.sqrt((rows ** 2).sum(axis=1, keepdims=True))
            over = norms > bound * (1.0 + 1e-12)
            expected[written] = np.where(over, rows * (bound / norms), rows)
            clamped.update(over.reshape(-1).tolist())

            scatter(vocab, ids, mask, eta, special_token_policy=policy, epsilon=bound)
            np.testing.assert_array_equal(vocab.table, expected)
        assert clamped == {True, False}


class TestPersistence:
    def make_vocab(self):
        return init_vocabulary(12, 5, 0.4, np.random.default_rng(9),
                               meta={"epsilon": 1.0, "task": "demo",
                                     "fingerprint": "abc123"})

    def test_round_trip_bitwise(self, tmp_path):
        v = self.make_vocab()
        path = tmp_path / "v.bin"
        save_vocabulary(v, path)
        loaded = load_vocabulary(path)
        np.testing.assert_array_equal(loaded.table, v.table)
        assert loaded.meta == v.meta

    def test_file_hash_stable_across_saves(self, tmp_path):
        v = self.make_vocab()
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_vocabulary(v, p1)
        save_vocabulary(v, p2)
        h = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
        assert h(p1) == h(p2)

    def test_dimension_mismatch_on_load(self, tmp_path):
        v = self.make_vocab()
        path = tmp_path / "v.bin"
        save_vocabulary(v, path)
        with pytest.raises(VocabularyFormatError, match="dimension mismatch"):
            load_vocabulary(path, expect_dim=64)

    def test_fingerprint_mismatch_on_load(self, tmp_path):
        v = self.make_vocab()
        path = tmp_path / "v.bin"
        save_vocabulary(v, path)
        with pytest.raises(FingerprintMismatch):
            load_vocabulary(path, expect_fingerprint="zzz999")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"WHAT" + b"\x01" * 20)
        with pytest.raises(VocabularyFormatError, match="bad magic"):
            load_vocabulary(path)
        path2 = tmp_path / "trunc.bin"
        v = self.make_vocab()
        save_vocabulary(v, path2)
        path2.write_bytes(path2.read_bytes()[:30])
        with pytest.raises(VocabularyFormatError):
            load_vocabulary(path2)

    def test_truncated_or_extended_file_rejected(self, tmp_path):
        v = init_vocabulary(3, 2, 0.1, np.random.default_rng(4), meta={"epsilon": 1.0})
        good = tmp_path / "v.bin"
        save_vocabulary(v, good)
        raw = good.read_bytes()
        path = tmp_path / "bad.bin"
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(VocabularyFormatError):
                load_vocabulary(path)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(VocabularyFormatError, match="trailing bytes"):
            load_vocabulary(path)

    def test_unknown_version_rejected_before_the_body(self, tmp_path):
        path = tmp_path / "v.bin"
        save_vocabulary(self.make_vocab(), path)
        raw = bytearray(path.read_bytes()[:40])
        raw[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VocabularyFormatError, match="unsupported vocabulary version 2"):
            load_vocabulary(path)


class TestApplyToEmbedding:
    def test_zero_vocab_is_identity(self):
        weights = np.arange(20.0).reshape(5, 4)
        vocab = PerturbationVocabulary(table=np.zeros((5, 4)))
        out = apply_to_embedding(weights, vocab)
        np.testing.assert_array_equal(out, weights)
        assert out is not weights

    def test_double_application_is_linear(self):
        weights = np.ones((4, 3))
        vocab = PerturbationVocabulary(table=np.full((4, 3), 0.25))
        once = apply_to_embedding(weights, vocab)
        twice = apply_to_embedding(once, vocab)
        np.testing.assert_array_equal(twice, 1.0 + 2 * 0.25)

    def test_original_untouched(self):
        base = np.ones((4, 3))
        weights = base.copy()
        vocab = PerturbationVocabulary(table=np.full((4, 3), 0.5))
        apply_to_embedding(weights, vocab)
        np.testing.assert_array_equal(weights, base)

    def test_shape_mismatch(self):
        weights = np.ones((4, 3))
        vocab = PerturbationVocabulary(table=np.ones((4, 8)))
        with pytest.raises(ValueError, match="apply_to_embedding"):
            apply_to_embedding(weights, vocab)
