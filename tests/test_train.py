"""Trainer: reproducibility, mode lattice, metrics stream, ablations, CLI."""
import builtins
import dataclasses
import json
import re
import types

import numpy as np
import pytest

import tavat.adv as adv_module
import tavat.cli as cli_module
import tavat.train as train_module
from tavat.adv import AccumulatedGradient, AdvConfig, init_vocabulary
from tavat.cli import MODES, _load_config, main as cli_main
from tavat.data import Batch, DatasetSpec, build_dataset, encode_examples, make_batches
from tavat.model import ConfigError, ModelConfig, TextModel, load_checkpoint, save_checkpoint
from tavat.tensor import Packed, RowGradient, Tensor
from tavat.train import (Adam, MetricsWriter, Seeds, TrainConfig, config_from_dict,
                         evaluate, format_ablation_table, parse_metrics, run_ablation,
                         train)
from tavat.vocab import save_vocabulary
from oracles import dense_gradient
from test_container import _FailingFile
from test_golden import load_workloads


def quick_config(tmp_path, run_name="run", **adv_overrides):
    base = dict(epsilon=0.5, sigma=0.01, alpha=0.15, K=2)
    base.update(adv_overrides)
    adv = AdvConfig(**base)
    return TrainConfig(
        model=ModelConfig(vocab_size=56, dim=8, blocks=1, heads=2, ffn_dim=16,
                          max_len=24, classes=2),
        adv=adv,
        dataset=DatasetSpec(n=120, noise=0.1, dev_fraction=0.25),
        seeds=Seeds(init=1, data=2, adversarial=3),
        lr=0.05, epochs=1, batch_size=16, max_len=24,
        out_dir=str(tmp_path), run_name=run_name,
    )


# dataset edits; the synthetic tagging tokenizer has 54 ids, and 3 synthetic classes give 62
TAGGING = {"source": "synthetic-tagging"}
DELIMITED = {"source": "delimited", "path": None}   # the path of the test's file


# a delimited file that every cut of FOREIGN leaves without a label on its last row
DELIMITED_ROWS = "alpha beta\t0\ngamma delta epsilon\t1\n"
# what comes in place of a file a command reads: bytes, a function of the valid
# file's bytes and another format's file, or None for a directory
FOREIGN = {
    "empty": b"",
    "cut-after-one-byte": lambda valid, other: valid[:1],
    "cut-in-half": lambda valid, other: valid[:len(valid) // 2],
    "cut-two-bytes-short": lambda valid, other: valid[:-2],
    "another-format": lambda valid, other: other,
    "not-utf-8": b"caf\xe9 au lait\t0\n",
    "json-list": b"[]",
    "json-string": b'"a"',
    "json-number": b"3",
    "directory": None,
}


def pinned_text(role, foreign):
    """What the error line says right after the path, where the table pins it."""
    if FOREIGN[foreign] is None:
        return ": a directory, not a file"
    if role in ("checkpoint", "vocab"):
        kind = {"checkpoint": "checkpoint", "vocab": "vocabulary"}[role]
        if foreign in ("cut-in-half", "cut-two-bytes-short"):
            return f": truncated or corrupt {kind} ("
        return f": not a {kind} (bad magic)"
    if role == "config" and foreign.startswith("json-"):
        kind = {"json-list": "an array", "json-string": "a string",
                "json-number": "a number"}[foreign]
        return f": a config is a JSON object, not {kind}"
    if role in ("config", "dataset") and foreign == "not-utf-8":
        return ":1: byte 0xe9 is not UTF-8"
    if role in ("out-dir", "run-name"):
        return ": not a directory"
    return ""


FILE_ROLES = [("train", "config"), ("evaluate", "config"), ("ablate", "config"),
              ("evaluate", "checkpoint"), ("export-vocab", "checkpoint"),
              ("export-vocab", "vocab"), ("train", "vocab"), ("ablate", "vocab"),
              ("train", "dataset"), ("evaluate", "dataset"), ("ablate", "dataset")]
# each file a command reads crossed with every foreign input, then a run directory
# (named by --out-dir, or by --run-name under it) in place of which comes a file
FOREIGN_CASES = ([(command, role, foreign) for command, role in FILE_ROLES
                  for foreign in sorted(FOREIGN)]
                 + [(command, role, "empty") for command in ("train", "ablate")
                    for role in ("out-dir", "run-name")])


def strip_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


class TestAllocatorPin:
    def test_train_pins_the_allocator(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(train_module, "_pin_allocator", lambda: calls.append(1))
        config = quick_config(tmp_path, run_name="pin")
        config.epochs = 0
        train(config)
        assert calls == [1]

    def test_pin_sets_both_thresholds(self, monkeypatch):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(train_module.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        train_module._pin_allocator()
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_pin_is_quiet_without_mallopt(self, monkeypatch):
        monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: object())
        assert train_module._pin_allocator() is None


def stand_in(arrays, dense_names):
    """What an optimizer step reads of a model: ``params``, Tensors over copies of
    ``arrays`` by name, those in ``dense_names`` views of one ``Packed``, ``dense``."""
    dense = Packed((name, arrays[name].shape) for name in dense_names)
    for name in dense_names:
        dense[name][...] = arrays[name]
    params = {name: Tensor(dense[name] if name in dense else a.copy(), requires_grad=True)
              for name, a in arrays.items()}
    return types.SimpleNamespace(dense=dense, params=params)


def packed(model, grads):
    """``grads`` by name as an optimizer takes them: a ``Packed`` of the model's
    layout, the tables' entries as they are, as ``--mode pgd`` hands them over."""
    accum = AccumulatedGradient(model.dense.layout)
    accum.replace(grads.items())
    return accum.sums


class TestAdam:
    LR = 0.003

    @staticmethod
    def dense_step(m, v, p, g, t, lr):
        """Adam written as fresh-array expressions: the order the in-place step keeps."""
        b1, b2, eps = Adam.BETA1, Adam.BETA2, Adam.EPS
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        return m, v, p - lr * mhat / (np.sqrt(vhat) + eps)

    def test_in_place_step_matches_the_dense_expression_bitwise(self):
        rng = np.random.default_rng(31)
        shapes = {"table": (40, 8), "bias": (8,)}
        model = stand_in({n: rng.uniform(-1, 1, size=s) for n, s in shapes.items()}, ["bias"])
        buffers = {n: p.data for n, p in model.params.items()}
        expected = {n: (0.0, 0.0, p.data.copy()) for n, p in model.params.items()}
        optimizer = Adam(self.LR)
        for t in (1, 2, 3):
            grads = {n: rng.normal(scale=10.0 ** -t, size=s) for n, s in shapes.items()}
            grads["table"][::3] = 0.0       # rows no lookup touched
            grads["table"][1, :2] = -0.0
            optimizer.step(model, packed(model, grads))
            for n, p in model.params.items():
                m, v, want = expected[n] = self.dense_step(*expected[n], grads[n], t, self.LR)
                assert p.data.tobytes() == want.tobytes()
                assert optimizer.m[n].tobytes() == m.tobytes()
                assert optimizer.v[n].tobytes() == v.tobytes()
                assert p.data is buffers[n]

    def test_row_gradient_steps_like_its_dense_form_bitwise(self):
        """A table's RowGradient goes into Adam and SGD as it is, and over four
        steps the parameter and the moments move exactly as for its dense
        form. The table spans three whole row blocks and a partial last one;
        the middle block is never touched, some rows only in the first step;
        gradients hold -0.0 entries and a -0.0 row, the parameter -0.0 entries
        off the rows. m starts at +0.0 and at plus and minus the smallest
        denormal, which decays back to itself, and v, never negative, at +0.0
        and at the smallest denormal."""
        block = Adam._BLOCK_ROWS
        shape = (3 * block + 5, 4)
        always = np.array([0, 2, block - 1, 2 * block + 7, 3 * block + 4])
        first_only = np.array([3, block + block // 2, 2 * block, 3 * block])
        untouched = slice(block, block + block // 2)
        tiny = np.nextafter(0.0, 1.0)
        preset = {"m": np.resize([tiny, -tiny, 0.0], shape),
                  "v": np.resize([tiny, tiny, 0.0], shape)}
        for kind, optimizer in train_module.OPTIMIZERS.items():
            rng = np.random.default_rng(32)
            start = rng.uniform(-1, 1, size=shape)
            start[[1, block + 3, 3 * block + 1], 1:3] = -0.0
            sparse, dense = (stand_in({"table": start, "bias": np.zeros(4)}, ["bias"])
                             for _ in range(2))
            sparse_opt, dense_opt = optimizer(self.LR), optimizer(self.LR)
            moments = ("m", "v") if kind == "adam" else ()
            for opt, model in ((sparse_opt, sparse), (dense_opt, dense)):
                for moment in moments:
                    setattr(opt, moment, train_module._zeros(model))
                    getattr(opt, moment)["table"][...] = preset[moment]
            buffer = sparse.params["table"].data
            for step in range(4):
                rows = np.union1d(always, first_only) if step == 0 else always
                values = rng.normal(size=(rows.size, shape[1]))
                values[1, 2] = -0.0
                values[-1] = -0.0
                g = RowGradient(rows, values, shape)
                sparse_opt.step(sparse, packed(sparse, {"table": g, "bias": np.zeros(4)}))
                dense_opt.step(dense, packed(dense, {"table": dense_gradient(g),
                                                     "bias": np.zeros(4)}))
                assert (sparse.params["table"].data.tobytes()
                        == dense.params["table"].data.tobytes()), kind
                for moment in moments:
                    want = getattr(dense_opt, moment)["table"].tobytes()
                    assert getattr(sparse_opt, moment)["table"].tobytes() == want, moment
            assert sparse.params["table"].data is buffer
            for moment in moments:
                kept = getattr(sparse_opt, moment)["table"][untouched]
                assert kept.tobytes() == preset[moment][untouched].tobytes()
            if not moments:
                kept = sparse.params["table"].data[untouched]
                assert kept.tobytes() == start[untouched].tobytes()

    @pytest.mark.parametrize("kind", list(train_module.OPTIMIZERS))
    @pytest.mark.parametrize("grads_form", ["accumulated", "replaced"])
    @pytest.mark.parametrize("model_form", ["drawn", "snapshot", "loaded"])
    def test_packed_dense_parameters_step_like_the_per_name_expression_bitwise(
            self, tmp_path, kind, grads_form, model_form):
        """A model drawn, snapshotted or loaded from a checkpoint, its embedding
        table with a RowGradient beside the dense parameters in one buffer, takes
        the gradients as ``AccumulatedGradient`` sums them over two inner steps or
        as it hands over the last one (``--mode pgd``): over four steps every
        parameter and moment moves exactly as the per-name dense expression moves
        it, in place. Moments start at the smallest denormals; gradients and
        parameters hold -0.0 entries."""
        rng = np.random.default_rng(34)
        drawn = TextModel(ModelConfig(vocab_size=30, dim=4, blocks=1, heads=1, ffn_dim=6,
                                      max_len=8, classes=2), rng=rng)
        drawn.params["block0.attn.wq.weight"].data[0, :2] = -0.0
        save_checkpoint(drawn, tmp_path / "model.bin")
        model = {"drawn": lambda: drawn, "snapshot": drawn.snapshot,
                 "loaded": lambda: load_checkpoint(tmp_path / "model.bin")}[model_form]()
        table_shape = model.params["embedding.weight"].shape
        buffers = {n: p.data for n, p in model.params.items()}
        tiny = np.nextafter(0.0, 1.0)
        optimizer = train_module.OPTIMIZERS[kind](self.LR)
        moments = {}
        if kind == "adam":
            optimizer.m, optimizer.v = train_module._zeros(model), train_module._zeros(model)
            for n, p in model.params.items():
                moments[n] = (np.resize([tiny, -tiny, 0.0], p.shape),
                              np.resize([tiny, 0.0], p.shape))
                optimizer.m[n][...], optimizer.v[n][...] = moments[n]
        expected = {n: (*moments.get(n, (None, None)), p.data.copy())
                    for n, p in model.params.items()}
        for t in range(1, 5):
            accum = AccumulatedGradient(model.dense.layout)
            for _ in range(2):
                rows = np.array([0, 3, 4, 17, 29]) if t % 2 else np.array([1, 3])
                values = rng.normal(size=(rows.size, table_shape[1]))
                values[0, 1] = -0.0
                draws = {n: rng.normal(scale=10.0 ** -t, size=p.shape)
                         for n, p in model.params.items() if n in model.dense}
                draws["embedding.weight"] = RowGradient(rows, values, table_shape)
                if grads_form == "accumulated":
                    accum.add(draws.items(), 0.5)
                else:
                    accum.replace(draws.items())
            grads = accum.sums
            grads["head.bias"][1] = -0.0
            assert isinstance(grads, Packed) and grads.layout == model.dense.layout
            assert len(train_module._pieces(model, grads)) == 2
            optimizer.step(model, grads)
            for n, p in model.params.items():
                m, v, before = expected[n]
                g = dense_gradient(grads[n])
                if kind == "adam":
                    m, v, want = self.dense_step(m, v, before, g, t, self.LR)
                    assert optimizer.m[n].tobytes() == m.tobytes(), (t, n)
                    assert optimizer.v[n].tobytes() == v.tobytes(), (t, n)
                else:
                    want = before - self.LR * g
                expected[n] = (m, v, want)
                assert p.data.tobytes() == want.tobytes(), (t, n)
                assert p.data is buffers[n]
        for state in ((optimizer.m, optimizer.v) if kind == "adam" else ()):
            assert all(state[n].base is state.flat for n in model.dense)

    def test_table_step_allocates_no_table_sized_array(self):
        """Once the moments exist, a step over a 2 MB table and its RowGradient
        allocates only block-sized temporaries."""
        import tracemalloc

        rng = np.random.default_rng(33)
        shape = (4096, 64)
        model = stand_in({"table": rng.uniform(-1, 1, size=shape), "bias": np.zeros(2)},
                         ["bias"])
        rows = np.arange(0, shape[0], 7)

        def grads():
            return packed(model, {"table": RowGradient(rows, rng.normal(size=(rows.size, shape[1])),
                                                       shape),
                                  "bias": np.zeros(2)})

        optimizer = Adam(self.LR)
        optimizer.step(model, grads())
        g = grads()
        tracemalloc.start()
        try:
            optimizer.step(model, g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the gradient block and two temporaries are 3 x 128 kB here
        table_bytes = model.params["table"].data.nbytes
        assert peak < table_bytes / 2, (peak, table_bytes)


class TestTrainBasics:
    def test_zero_epochs_evaluates_only(self, tmp_path):
        config = quick_config(tmp_path, run_name="zero")
        config.epochs = 0
        result = train(config)
        assert result.dev_metric is not None
        fresh = quick_config(tmp_path, run_name="zero2")
        fresh.epochs = 0
        result2 = train(fresh)
        # no parameter ever changed: both runs give the init-model metric
        assert result.dev_metric == result2.dev_metric
        loaded = load_checkpoint(result.checkpoint_path)
        from tavat.model import TextModel
        init_model = TextModel(config.model, rng=np.random.default_rng(1))
        for name in init_model.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          init_model.params[name].data)

    def test_empty_training_split_rejected_before_any_file(self, tmp_path):
        config = quick_config(tmp_path, run_name="nodata")
        config.dataset = DatasetSpec(n=120, noise=0.1, dev_fraction=1.0)
        with pytest.raises(ValueError, match="training split is empty"):
            train(config)
        assert not config.resolved_out_dir().exists()

    def test_training_improves_over_init(self, tmp_path):
        config = quick_config(tmp_path, run_name="learn", epsilon=0.3,
                              sigma=0.03, alpha=0.09)
        config.model = ModelConfig(vocab_size=56, dim=16, blocks=1, heads=2,
                                   ffn_dim=32, max_len=24, classes=2)
        config.optimizer, config.lr = "adam", 0.005
        config.epochs = 6
        config.dataset = DatasetSpec(n=400, noise=0.05, dev_fraction=0.25)
        result = train(config)
        assert result.dev_metric >= 0.85

    def test_non_finite_abort_leaves_last_good_checkpoint(self, tmp_path):
        """A diverging run raises instead of skipping batches, and the
        checkpoint on disk is from before the poisoned update."""
        import warnings
        from tavat.adv import NonFiniteGradient
        from tavat.model import TextModel
        config = quick_config(tmp_path, run_name="bomb")
        config.lr = 1e200
        config.epochs = 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonFiniteGradient):
                train(config)
        loaded = load_checkpoint(config.resolved_out_dir() / "checkpoint.bin")
        init_model = TextModel(config.model, rng=np.random.default_rng(1))
        for name in init_model.params:
            np.testing.assert_array_equal(loaded.params[name].data,
                                          init_model.params[name].data)

    @pytest.mark.parametrize("epochs", [0, 2])
    def test_checkpoint_written_at_step_zero_and_each_epoch(self, tmp_path, monkeypatch,
                                                            epochs):
        real_save, calls = train_module.save_checkpoint, []

        def counting_save(model, path):
            calls.append(path)
            real_save(model, path)

        monkeypatch.setattr(train_module, "save_checkpoint", counting_save)
        config = quick_config(tmp_path, run_name=f"saves{epochs}")
        config.epochs = epochs
        train(config)
        assert len(calls) == epochs + 1

    def test_vocab_saved_when_in_use(self, tmp_path):
        result = train(quick_config(tmp_path, run_name="vocabrun"))
        assert result.vocab_path == tmp_path / "vocabrun" / "ptb_vocab.bin"
        from tavat.vocab import load_vocabulary
        vocab = load_vocabulary(result.vocab_path,
                                expect_fingerprint=result.tokenizer_fingerprint)
        assert vocab.vocab_size == 56
        plain = train(quick_config(tmp_path, run_name="novocab", use_vocab=False))
        assert plain.vocab_path is None
        assert sorted(p.name for p in (tmp_path / "novocab").iterdir()) == [
            "checkpoint.bin", "metrics.jsonl"]

    def test_run_without_vocabulary_removes_an_earlier_one(self, tmp_path):
        """A reused run directory holds only what its latest run wrote."""
        train(quick_config(tmp_path, run_name="r"))
        assert (tmp_path / "r" / "ptb_vocab.bin").exists()
        result = train(quick_config(tmp_path, run_name="r", **MODES["freelb"]))
        assert result.vocab_path is None
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
            "checkpoint.bin", "metrics.jsonl"]

    def test_embedding_warm_start_from_vocab(self, tmp_path):
        taught = train(quick_config(tmp_path, run_name="teach"))
        second = quick_config(tmp_path, run_name="warm")
        second.init_embedding_from_vocab = str(taught.vocab_path)
        warm = train(second)
        assert warm.dev_metric is not None

    def test_fingerprint_guard_on_warm_start(self, tmp_path):
        taught = train(quick_config(tmp_path, run_name="teach2"))
        second = quick_config(tmp_path, run_name="mismatch")
        second.dataset = DatasetSpec(source="synthetic-tagging", n=120,
                                     dev_fraction=0.25)
        second.model = None
        second.init_embedding_from_vocab = str(taught.vocab_path)
        from tavat.vocab import FingerprintMismatch
        with pytest.raises(FingerprintMismatch):
            train(second)


class TestDeterminism:
    def test_identical_config_identical_artifacts(self, tmp_path):
        r1 = train(quick_config(tmp_path / "a", run_name="same"))
        r2 = train(quick_config(tmp_path / "b", run_name="same"))
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        m1 = strip_time(parse_metrics(r1.metrics_path))
        m2 = strip_time(parse_metrics(r2.metrics_path))
        # the config record embeds the (intentionally different) output dirs
        assert [r for r in m1 if r["kind"] != "config"] == \
            [r for r in m2 if r["kind"] != "config"]
        assert r1.dev_metric == r2.dev_metric


class TestModeLattice:
    def test_all_off_tavat_matches_freelb_run_bitwise(self, tmp_path):
        tavat_off = quick_config(tmp_path / "a", run_name="l", mode="tavat",
                                 use_vocab=False, use_token_norm=False)
        freelb = quick_config(tmp_path / "b", run_name="l", mode="freelb",
                              use_vocab=False, use_token_norm=False)
        r1, r2 = train(tavat_off), train(freelb)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()
        s1 = [r for r in strip_time(parse_metrics(r1.metrics_path))
              if r["kind"] in ("step", "eval")]
        s2 = [r for r in strip_time(parse_metrics(r2.metrics_path))
              if r["kind"] in ("step", "eval")]
        assert s1 == s2

    def test_freelb_k1_matches_pgd_k1(self, tmp_path):
        freelb = quick_config(tmp_path / "a", run_name="k1", mode="freelb",
                              use_vocab=False, use_token_norm=False, K=1)
        pgd = quick_config(tmp_path / "b", run_name="k1", mode="pgd",
                           use_vocab=False, use_token_norm=False, K=1)
        r1, r2 = train(freelb), train(pgd)
        assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()


class TestEvaluate:
    def test_majority_class_model_accuracy(self):
        """A constant predictor scores the majority fraction exactly."""
        ids = np.full((10, 3), 5, dtype=np.int64)
        ids[:, 0] = 1
        labels = np.array([0] * 7 + [1] * 3)
        batch = Batch(token_ids=ids, labels=labels)

        class Constant:
            class config:
                head = "classification"

            def predict(self, b):
                return np.zeros(b.size, dtype=np.int64)

        assert evaluate(Constant(), [batch])["accuracy"] == 0.70

    def test_accuracy_against_confusion_recount(self, tmp_path):
        config = quick_config(tmp_path, run_name="recount")
        result = train(config)
        tok, _, dev, _ = build_dataset(config.dataset, seed=config.seeds.data)
        batches = make_batches(encode_examples(tok, dev, config.max_len), 16)
        metric = evaluate(result.model, batches)["accuracy"]
        confusion = np.zeros((2, 2), dtype=int)
        for b in batches:
            for pred, gold in zip(result.model.predict(b), b.labels):
                confusion[gold, pred] += 1
        assert metric == confusion.trace() / confusion.sum()

    def test_perfect_spans_score_one(self):
        gold = [[1, 2, 0, 3], [0, 0, 1, 0]]
        from tavat.data import span_f1
        assert span_f1(gold, gold) == (1.0, 1.0, 1.0)

    def test_tagging_pipeline_end_to_end(self, tmp_path):
        config = quick_config(tmp_path, run_name="tagging")
        config.model = None
        config.dataset = DatasetSpec(source="synthetic-tagging", n=150,
                                     dev_fraction=0.25)
        config.epochs = 1
        result = train(config)
        assert result.model.config.head == "tagging"
        assert result.dev_metric is not None


class TestMetricsStream:
    def test_step_records_carry_k_losses(self, tmp_path):
        config = quick_config(tmp_path, run_name="metrics", K=3)
        result = train(config)
        steps = [r for r in parse_metrics(result.metrics_path) if r["kind"] == "step"]
        assert steps and all(len(r["losses"]) == 3 for r in steps)
        assert all(r["schema"] == 1 for r in steps)

    def test_reparse_reconstructs_summary(self, tmp_path):
        result = train(quick_config(tmp_path, run_name="summary"))
        records = parse_metrics(result.metrics_path)
        stored = [r for r in records if r["kind"] == "summary"][-1]
        replay = MetricsWriter(None)
        for record in records[:-1]:
            replay.emit(record)
        assert {"schema": 1, **replay.summary} == stored

    def test_empty_run_is_summary_only(self, tmp_path):
        config = quick_config(tmp_path, run_name="empty")
        config.epochs = 0
        config.dataset = DatasetSpec(n=40, noise=0.1, dev_fraction=0.0)
        result = train(config)
        kinds = [r["kind"] for r in parse_metrics(result.metrics_path)]
        assert kinds == ["config", "summary"]

    def test_monotone_epoch_batch_ordering(self, tmp_path):
        config = quick_config(tmp_path, run_name="order")
        config.epochs = 2
        result = train(config)
        steps = [(r["epoch"], r["batch"]) for r in parse_metrics(result.metrics_path)
                 if r["kind"] == "step"]
        assert steps == sorted(steps)

    def test_each_epoch_steps_on_its_own_shuffle(self, tmp_path, monkeypatch):
        """Epoch e steps on make_batches(encoded_train, batch_size, seed=seeds.data + e,
        shuffle=True), batch by batch; epochs 0 and 1 differ."""
        config = quick_config(tmp_path, run_name="shuffle")
        config.epochs = 2
        seen = []
        step = train_module.tavat_batch_step

        def spy(model, batch, *args):
            seen.append((batch.token_ids.copy(), batch.labels.copy()))
            return step(model, batch, *args)

        monkeypatch.setattr(train_module, "tavat_batch_step", spy)
        train(config)
        tokenizer, train_ex, _, _ = build_dataset(config.dataset, seed=config.seeds.data)
        encoded = encode_examples(tokenizer, train_ex, config.max_len)
        epochs = [[(b.token_ids, b.labels) for b in make_batches(
            encoded, config.batch_size, seed=config.seeds.data + e, shuffle=True)]
            for e in range(2)]
        assert any(not np.array_equal(a[0], b[0]) for a, b in zip(*epochs))
        expected = epochs[0] + epochs[1]
        assert len(seen) == len(expected)
        for (ids, labels), (want_ids, want_labels) in zip(seen, expected):
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(labels, want_labels)


class TestVocabularyRows:
    """The token-level rule followed through a short run's vocabulary writes."""

    PLANTED = np.arange(4, 56, 7)       # rows zeroed before the first batch

    def test_zero_rows_stay_zero_and_rows_with_factor_below_one_shrink(
            self, tmp_path, monkeypatch):
        """With K = 1 a batch takes one token step from the gathered rows, and
        each token's step is scaled by n = ‖r‖ / P, P its sequence's largest
        row norm. So a row written back has norm at most f‖r‖, where
        f = (‖r‖ + α) / P with the smallest P among the sequences holding it
        (a mean and a projection only shrink). A row at zero stays zero, and
        a row with f < 1 shrinks, from batch to batch, until a sequence's
        every row is below the norm floor and the cold start frees them."""
        config = quick_config(tmp_path, run_name="rows", K=1)
        config.epochs = 3
        alpha = config.adv.alpha

        def planted(*args, **kwargs):
            vocab = init_vocabulary(*args, **kwargs)
            vocab.table[self.PLANTED] = 0.0
            return vocab

        writes = []
        scatter = adv_module.scatter

        def spy(vocab, token_ids, mask, eta_final, **kwargs):
            before = vocab.table.copy()
            scatter(vocab, token_ids, mask, eta_final, **kwargs)
            writes.append((before, vocab.table.copy(), token_ids, mask))
            return vocab

        monkeypatch.setattr(train_module, "init_vocabulary", planted)
        monkeypatch.setattr(adv_module, "scatter", spy)
        train(config)

        def row_norms(table):
            return np.sqrt((table * table).sum(axis=1))

        zero_writes = shrinks = 0
        for before, after, ids, mask in writes:
            was, now = row_norms(before), row_norms(after)
            peaks = np.where(mask, was[ids], 0.0).max(axis=1)
            for row in np.unique(ids[mask & (ids != 0)]):
                peak = peaks[((ids == row) & mask).any(axis=1)].min()
                if peak < adv_module.NORM_FLOOR:
                    continue
                factor = (was[row] + alpha) / peak
                assert now[row] <= factor * was[row] * (1 + 1e-12), (row, factor)
                if was[row] == 0.0:
                    zero_writes += 1
                    assert not after[row].any()
                elif factor < 1.0:
                    shrinks += 1
                    assert now[row] < was[row]
        assert zero_writes > 0 and shrinks > 0
        final = row_norms(writes[-1][1])
        assert not final[self.PLANTED].any()
        free = np.setdiff1d(np.arange(1, final.size), self.PLANTED)
        # 18 writes: 125 of a zero row, 273 shrinks; then 10 of the 47 rows
        # neither padding nor planted are below 1e-6, median 3.0e-5
        assert (final[free] < 1e-6).sum() == 10


class TestAblation:
    def test_table5_grid_shape_and_baseline_equivalence(self, tmp_path):
        config = quick_config(tmp_path, run_name="ablate")
        config.epochs = 1
        config.dataset = DatasetSpec(n=80, noise=0.1, dev_fraction=0.25)
        rows = run_ablation(config, grid="table5", seeds=[5, 6])
        assert len(rows) == 4
        assert all(len(r["per_seed"]) == 2 for r in rows)
        # the all-off row must equal a freelb run with the same seeds
        freelb_cfg = dataclasses.replace(config)
        freelb_cfg.adv = dataclasses.replace(config.adv, mode="freelb",
                                             use_vocab=False, use_token_norm=False)
        all_off = next(r for r in rows if not r["ptb_vocab"] and not r["tok_norm"])
        for i, s in enumerate([5, 6]):
            arm = dataclasses.replace(freelb_cfg)
            arm.seeds = Seeds(init=s, data=config.seeds.data, adversarial=s + 1000)
            arm.run_name = f"fre-{s}"
            assert train(arm).dev_metric == all_off["per_seed"][i]
        table = format_ablation_table(rows)
        assert "mean" in table and len(table.splitlines()) == 6

    def test_table6_grid_has_three_rows(self, tmp_path):
        config = quick_config(tmp_path, run_name="ablate6")
        config.epochs = 1
        config.dataset = DatasetSpec(n=80, noise=0.1, dev_fraction=0.25)
        rows = run_ablation(config, grid="table6", seeds=[7])
        assert len(rows) == 3
        assert all("special_tokens" in r for r in rows)

    def test_unknown_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown ablation grid"):
            run_ablation(quick_config(tmp_path), grid={"ptb_vocab": [True, False]})


class TestConfigSerialization:
    def test_round_trip_through_dict(self, tmp_path):
        config = quick_config(tmp_path, run_name="roundtrip")
        rebuilt = config_from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    @pytest.mark.parametrize("raw", [{"eval_train": True},
                                     {"adv": {"scale_from_ascended": True}},
                                     {"weight_decay": 0.0},
                                     {"adv": {"eta_epsilon": 0.1}},
                                     {"adv": {"use_instance_delta": False}},
                                     {"model": {"vocab_size": 20, "encoder": "mlp"}},
                                     {"model": {"vocab_size": 20, "dropout": 0.0}},
                                     {"dataset": {"subsample_count": 10}},
                                     {"save_ptb_vocab": True},
                                     {"emit_metrics": False}])
    def test_removed_fields_rejected(self, raw):
        with pytest.raises(TypeError, match="unexpected keyword"):
            config_from_dict(raw)

    @pytest.mark.parametrize("raw, message", [
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"epochs": -1}, "epochs must be at least 0, got -1"),
        ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
        ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
        ({"max_len": "24"}, "max_len must be an integer, got '24'"),
        ({"max_len": 1}, "max_len must be at least 2, got 1"),
        ({"lr": "0.05"}, "lr must be a finite positive number, got '0.05'"),
        ({"lr": float("nan")}, "lr must be a finite positive number, got nan"),
        ({"lr": 0.0}, "lr must be a finite positive number, got 0.0"),
        ({"optimizer": "adamw"}, "unknown optimizer kind 'adamw'"),
        ({"dataset": {"dev_fraction": -0.5}}, "dev_fraction must be a number in [0, 1], got -0.5"),
        ({"dataset": {"test_fraction": 1.5}}, "test_fraction must be a number in [0, 1], got 1.5"),
        ({"dataset": {"dev_fraction": 0.6, "test_fraction": 0.5}},
         "dev_fraction 0.6 and test_fraction 0.5 add up to more than 1"),
        ({"dataset": {"n": "100"}}, "n must be an integer, got '100'"),
        ({"dataset": {"n": 0}}, "n must be at least 1, got 0"),
        ({"dataset": {"classes": True}}, "classes must be an integer, got True"),
        ({"dataset": {"classes": 1}}, "classes must be at least 2, got 1"),
        ({"dataset": {"split_seed": 1.5}}, "split_seed must be an integer, got 1.5"),
        ({"dataset": {"split_seed": -1}}, "split_seed must be at least 0, got -1"),
        ({"model": {"vocab_size": 20, "blocks": -1}}, "blocks must be at least 0, got -1"),
        ({"model": {"vocab_size": 20, "dim": 8, "heads": 3}}, "dim 8 not divisible by heads 3"),
        ({"seeds": {"init": "1"}}, "init must be an integer, got '1'"),
        ({"seeds": {"data": 1.5}}, "data must be an integer, got 1.5"),
        ({"seeds": {"adversarial": True}}, "adversarial must be an integer, got True"),
        ({"seeds": {"data": -2}}, "data must be at least 0, got -2"),
        ({"dataset": {"has_header": "false"}}, "has_header must be true or false, got 'false'"),
        ({"model": {"vocab_size": 20, "use_positional": "false"}},
         "use_positional must be true or false, got 'false'"),
        ({"dataset": {"noise": 0.7}}, "noise must be a number in [0, 0.5), got 0.7"),
        ({"dataset": {"noise": "0.1"}}, "noise must be a number in [0, 0.5), got '0.1'"),
        ({"dataset": {"source": "bogus"}}, "unknown dataset source 'bogus'"),
        ({"dataset": {"source": "delimited"}}, "delimited source needs a path"),
        ({"model": {"vocab_size": 20, "head": "pooled"}}, "unknown head kind 'pooled'"),
    ])
    def test_run_shape_checked_at_construction(self, raw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            config_from_dict(raw)

    def test_train_checks_a_config_edited_after_construction(self, tmp_path):
        config = quick_config(tmp_path, run_name="edited")
        config.lr = "0.05"
        with pytest.raises(ValueError, match=re.escape("lr must be a finite positive "
                                                       "number, got '0.05'")):
            train(config)
        config.lr, config.model.use_positional = 0.05, "false"
        with pytest.raises(ValueError, match="use_positional must be true or false"):
            train(config)
        assert list(tmp_path.iterdir()) == []

    def test_train_rebuilds_each_benchmark_config_unchanged(self, tmp_path):
        """The entry check is a round trip through the config's dict form."""
        workloads = load_workloads()
        for name in workloads.WORKLOADS:
            config = workloads.make_config(name, 1, tmp_path)
            assert config_from_dict(config.to_dict()) == config


class TestCLI:
    def write_config(self, tmp_path, **kwargs):
        config = quick_config(tmp_path, **kwargs)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        return config, path

    def test_train_evaluate_and_export(self, tmp_path, capsys):
        config, path = self.write_config(tmp_path, run_name="cli")
        assert cli_main(["train", "--config", str(path), "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "dev metric" in out
        checkpoint = config.resolved_out_dir() / "checkpoint.bin"
        vocab_file = config.resolved_out_dir() / "ptb_vocab.bin"
        metrics_file = config.resolved_out_dir() / "metrics.jsonl"
        assert out.splitlines()[1:] == [f"checkpoint: {checkpoint}",
                                        f"perturbation vocabulary: {vocab_file}",
                                        f"metrics: {metrics_file}"]
        assert checkpoint.exists() and vocab_file.exists() and metrics_file.exists()

        assert cli_main(["evaluate", "--checkpoint", str(checkpoint),
                         "--config", str(path)]) == 0
        assert "accuracy" in capsys.readouterr().out

        merged = tmp_path / "merged.bin"
        assert cli_main(["export-vocab", "--checkpoint", str(checkpoint),
                         "--vocab", str(vocab_file), "--out", str(merged)]) == 0
        capsys.readouterr()
        assert merged.exists()

    def assert_refused(self, capsys, argv, message):
        """``argv`` ends with exit status 2 and the one error line ``message``."""
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        assert capsys.readouterr().err == f"tavat {argv[0]}: error: {message}\n"

    def test_evaluate_rejects_checkpoint_of_another_vocabulary(self, tmp_path, monkeypatch,
                                                              capsys):
        config, path = self.write_config(tmp_path, run_name="foreign")
        foreign = tmp_path / "foreign.bin"
        save_checkpoint(TextModel(dataclasses.replace(config.model, vocab_size=40),
                                  rng=np.random.default_rng(0)), foreign)

        def no_batches(*args, **kwargs):
            raise AssertionError("batches built for a mismatched checkpoint")

        monkeypatch.setattr(cli_module, "make_batches", no_batches)
        self.assert_refused(
            capsys, ["evaluate", "--checkpoint", str(foreign), "--config", str(path)],
            f"{foreign}: vocab_size 40 != dataset tokenizer 56: the checkpoint was trained "
            f"on another vocabulary")

    @pytest.mark.parametrize("command, role, foreign", FOREIGN_CASES)
    def test_foreign_input_exits_with_one_line_naming_the_file(self, tmp_path, capsys,
                                                               command, role, foreign):
        """Every file a command reads, in place of which comes a file that is not
        one (``FOREIGN``), and every run directory, in place of which comes a
        file, ends the command with exit status 2 and one error line that begins
        with the path and, where ``pinned_text`` gives it, the reason, before
        anything is written. A config is refused before any flag is written into
        it, and before the checkpoint is opened; ``ablate``'s run directory before
        any arm runs."""
        # a run directory of its own: under "foreign" it would be the foreign file
        config, config_path = self.write_config(tmp_path, run_name="table")
        valid = {"config": config_path, "checkpoint": tmp_path / "model.bin",
                 "vocab": tmp_path / "vocab.bin", "dataset": tmp_path / "data.tsv"}
        save_checkpoint(TextModel(config.model, rng=np.random.default_rng(0)),
                        valid["checkpoint"])
        save_vocabulary(init_vocabulary(config.model.vocab_size, config.model.dim, 0.01,
                                        np.random.default_rng(0)), valid["vocab"])
        valid["dataset"].write_text(DELIMITED_ROWS, encoding="utf-8")
        delimited = tmp_path / "delimited.json"
        raw = config.to_dict()
        raw["model"] = None
        raw["dataset"].update(source="delimited", path=str(tmp_path / "foreign"))
        delimited.write_text(json.dumps(raw), encoding="utf-8")

        target = tmp_path / "foreign"
        make = FOREIGN[foreign]
        if make is None:
            target.mkdir()
        elif callable(make):
            other = valid["vocab" if role == "checkpoint" else "checkpoint"].read_bytes()
            target.write_bytes(make(valid[role].read_bytes(), other))
        else:
            target.write_bytes(make)
        argv = {
            # flags that write into the config, or a checkpoint that is never reached
            "config": [command, "--config", str(target)]
            + (["--checkpoint", str(tmp_path / "absent.bin")] if command == "evaluate"
               else ["--epochs", "0", "--out-dir", str(tmp_path / "runs")]),
            "checkpoint": (["evaluate", "--checkpoint", str(target), "--config", str(config_path)]
                           if command == "evaluate" else
                           ["export-vocab", "--checkpoint", str(target),
                            "--vocab", str(valid["vocab"]), "--out", str(tmp_path / "out.bin")]),
            "vocab": (["export-vocab", "--checkpoint", str(valid["checkpoint"]),
                       "--vocab", str(target), "--out", str(tmp_path / "out.bin")]
                      if command == "export-vocab" else
                      [command, "--config", str(config_path),
                       "--init-embedding-from-vocab", str(target)]),
            "dataset": [command, "--config", str(delimited)]
            + (["--checkpoint", str(valid["checkpoint"])] if command == "evaluate" else []),
            "out-dir": [command, "--config", str(config_path), "--epochs", "0",
                        "--out-dir", str(target)],
            "run-name": [command, "--config", str(config_path), "--epochs", "0",
                         "--out-dir", str(tmp_path), "--run-name", target.name],
        }[role]
        before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tavat {command}: error: {target}") and err.count("\n") == 1, err
        assert err.startswith(f"tavat {command}: error: {target}{pinned_text(role, foreign)}")
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before

    def test_export_vocab_out_that_is_a_directory_exits_with_one_error_line(self, tmp_path,
                                                                            capsys):
        config, _ = self.write_config(tmp_path, run_name="outdir")
        checkpoint, vocab, out = tmp_path / "model.bin", tmp_path / "vocab.bin", tmp_path / "out"
        save_checkpoint(TextModel(config.model, rng=np.random.default_rng(0)), checkpoint)
        save_vocabulary(init_vocabulary(config.model.vocab_size, config.model.dim, 0.01,
                                        np.random.default_rng(0)), vocab)
        out.mkdir()
        self.assert_refused(capsys, ["export-vocab", "--checkpoint", str(checkpoint),
                                     "--vocab", str(vocab), "--out", str(out)],
                            f"{out}: a directory, not a file")
        assert list(out.iterdir()) == []
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "model.bin", "out", "vocab.bin"]

    @pytest.mark.parametrize("argv", [
        ["train", "--config", "{missing}"],
        ["train", "--config", "{config}", "--init-embedding-from-vocab", "{missing}"],
        ["ablate", "--config", "{config}", "--init-embedding-from-vocab", "{missing}"],
        ["evaluate", "--checkpoint", "{checkpoint}", "--config", "{missing}"],
        ["evaluate", "--checkpoint", "{missing}", "--config", "{config}"],
        ["export-vocab", "--checkpoint", "{missing}", "--vocab", "{checkpoint}",
         "--out", "{out}"],
        ["export-vocab", "--checkpoint", "{checkpoint}", "--vocab", "{missing}",
         "--out", "{out}"],
        ["export-vocab", "--checkpoint", "{checkpoint}", "--vocab", "{vocab}",
         "--out", "{missing}"],
        ["train", "--config", "{delimited}"],
        ["ablate", "--config", "{delimited}"],
        ["evaluate", "--checkpoint", "{checkpoint}", "--config", "{delimited}"],
    ])
    def test_missing_file_exits_with_one_error_line(self, tmp_path, capsys, argv):
        """A path a flag or a config's ``dataset.path`` names that does not exist, or an
        output path in a directory that does not, ends the command with one line naming
        it, before anything is written."""
        config, path = self.write_config(tmp_path, run_name="missing")
        checkpoint = tmp_path / "model.bin"
        save_checkpoint(TextModel(config.model, rng=np.random.default_rng(0)), checkpoint)
        vocab = tmp_path / "vocab.bin"
        save_vocabulary(init_vocabulary(config.model.vocab_size, config.model.dim, 0.01,
                                        np.random.default_rng(0)), vocab)
        missing = tmp_path / "absent" / "nope.bin"
        # a config whose delimited dataset.path is the missing one
        delimited = tmp_path / "delimited.json"
        raw = config.to_dict()
        raw["dataset"].update(source="delimited", path=str(missing))
        delimited.write_text(json.dumps(raw), encoding="utf-8")
        argv = [a.format(config=path, checkpoint=checkpoint, vocab=vocab, missing=missing,
                         out=tmp_path / "merged.bin", delimited=delimited) for a in argv]
        self.assert_refused(capsys, argv, f"{missing}: no such file")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "delimited.json", "model.bin", "vocab.bin"]

    @pytest.mark.parametrize("command, edit, rows, message", [
        ("train", {"model": {"vocab_size": 40}}, None, "model vocab_size 40 != tokenizer 56"),
        ("ablate", {"model": {"vocab_size": 40}}, None, "model vocab_size 40 != tokenizer 56"),
        ("train", {"dataset": {"dev_fraction": 1.0}}, None,
         "the training split is empty: 1 epochs would run no step"),
        ("evaluate", {}, None, "the test split of the dataset is empty"),
        # table5's first arm turns the vocabulary on, which freelb refuses
        ("ablate", {"adv": {"mode": "freelb", "use_vocab": False, "use_token_norm": False}},
         None, "mode=freelb requires use_vocab=False and use_token_norm=False"),
        *[(command, edit, None, message) for command in ("train", "ablate")
          for edit, message in [
              ({"dataset": TAGGING, "model": {"vocab_size": 54}},
               "model: a classification head cannot take synthetic-tagging data, which "
               "needs a tagging head"),
              ({"model": {"head": "tagging"}},
               "model: a tagging head cannot take synthetic-classification data, which "
               "needs a classification head"),
              ({"dataset": {"classes": 3}, "model": {"vocab_size": 62}},
               "training labels 0..2 do not fit model classes 2"),
              ({"dataset": TAGGING, "model": {"vocab_size": 54, "head": "tagging",
                                              "classes": 3}},
               "training labels 0..4 do not fit model classes 3"),
              ({"dataset": TAGGING, "model": {"vocab_size": 54, "head": "tagging",
                                              "classes": 5, "use_positional": True,
                                              "max_len": 12}},
               "model: max_len 12 is shorter than the longest encoded sequence, 16 ids"),
          ]],
        ("evaluate", {"dataset": {**TAGGING, "test_fraction": 0.25},
                      "model": {"vocab_size": 54, "head": "tagging", "classes": 5,
                                "use_positional": True, "max_len": 12}}, None,
         "{checkpoint}: max_len 12 is shorter than the longest encoded sequence, 16 ids"),
        ("evaluate", {"dataset": {**TAGGING, "test_fraction": 0.25},
                      "model": {"vocab_size": 54}}, None,
         "{checkpoint}: a classification head cannot take synthetic-tagging data, which "
         "needs a tagging head"),
        ("evaluate", {"dataset": {"test_fraction": 0.25},
                      "model": {"head": "tagging", "classes": 5}}, None,
         "{checkpoint}: a tagging head cannot take synthetic-classification data, which "
         "needs a classification head"),
        ("train", {"dataset": DELIMITED, "model": None}, "a b\t0\nc d\t2\ne f\t1\ng h\t0\n",
         "training labels 0..2 do not fit model classes 2"),
        ("train", {"dataset": DELIMITED}, "some text\tmaybe\n",
         "{data}:1: unknown label 'maybe'"),
        ("train", {"dataset": DELIMITED}, "good text\t0\nonly-one-column\n",
         "{data}:2: missing required columns in ['only-one-column']"),
        ("train", {"dataset": {**DELIMITED, "has_header": True,
                               "column_map": {"text": "text", "label": "label"}}},
         "text\ttarget\nhello world\t0\n",
         "{data}: header ['text', 'target'] has no column 'label'"),
        ("train", {"dataset": DELIMITED}, "", "{data}: no example with any words"),
        ("evaluate", {"dataset": DELIMITED}, "\n\n", "{data}: no example with any words"),
        ("train", {"dataset": DELIMITED}, b"good text\t0\ncaf\xe9 au lait\t0\n",
         "{data}:2: byte 0xe9 is not UTF-8"),
    ])
    def test_values_the_run_cannot_take_exit_with_one_error_line(self, tmp_path, capsys,
                                                                command, edit, rows, message):
        """Config values each valid alone that the dataset, the model or the ablation
        grid cannot take, and a delimited file (``rows``, text or raw bytes) that is not
        one, end the command with one line, before anything is written."""
        config, path = self.write_config(tmp_path, run_name="unfit")
        data = tmp_path / "data.tsv"
        raw = config.to_dict()
        for key, value in edit.items():
            raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
        if rows is not None:
            data.write_bytes(rows if isinstance(rows, bytes) else rows.encode("utf-8"))
            raw["dataset"]["path"] = str(data)
        path.write_text(json.dumps(raw), encoding="utf-8")
        extra = []
        if command == "evaluate":
            checkpoint = tmp_path / "model.bin"
            save_checkpoint(TextModel(ModelConfig(**raw["model"]),
                                      rng=np.random.default_rng(0)), checkpoint)
            extra = ["--checkpoint", str(checkpoint), "--split", "test"]
        self.assert_refused(capsys, [command, "--config", str(path), *extra],
                            message.format(data=data, checkpoint=tmp_path / "model.bin"))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["config.json"] + (["model.bin"] if command == "evaluate" else [])
            + (["data.tsv"] if rows is not None else []))

    def test_an_internal_error_keeps_its_traceback(self, tmp_path, monkeypatch):
        """Only a file's own format errors become one line; an engine fault propagates."""
        from tavat.tensor import ShapeError
        config, path = self.write_config(tmp_path, run_name="fault")
        checkpoint = tmp_path / "model.bin"
        save_checkpoint(TextModel(config.model, rng=np.random.default_rng(0)), checkpoint)

        def faulty(model, batches):
            raise ShapeError("an engine fault")

        monkeypatch.setattr(cli_module, "evaluate", faulty)
        with pytest.raises(ShapeError, match="an engine fault"):
            cli_main(["evaluate", "--checkpoint", str(checkpoint), "--config", str(path)])

    def test_ablate_arms_each_leave_a_run_directory(self, tmp_path, capsys):
        """Each table6 arm is a run like any other, in a directory whose name
        a shell takes without quoting."""
        config, path = self.write_config(tmp_path, run_name="arms")
        config.dataset = DatasetSpec(n=60, noise=0.1, dev_fraction=0.25)
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        assert cli_main(["ablate", "--config", str(path), "--grid", "table6",
                         "--seeds", "4", "--epochs", "1"]) == 0
        capsys.readouterr()
        arms = sorted(p for p in tmp_path.iterdir() if p.name.startswith("arms-ablate-"))
        assert [p.name for p in arms] == [
            "arms-ablate-special_tokens-False-True-s4",
            "arms-ablate-special_tokens-True-False-s4",
            "arms-ablate-special_tokens-True-True-s4"]
        for arm in arms:
            # every table6 arm writes the vocabulary; only the policy differs
            assert sorted(p.name for p in arm.iterdir()) == [
                "checkpoint.bin", "metrics.jsonl", "ptb_vocab.bin"]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", arm.name)
            assert parse_metrics(arm / "metrics.jsonl")[-1]["kind"] == "summary"

    def test_ablate_subcommand(self, tmp_path, capsys):
        config, path = self.write_config(tmp_path, run_name="cliablate")
        config.dataset = DatasetSpec(n=60, noise=0.1, dev_fraction=0.25)
        payload = config.to_dict()
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(["ablate", "--config", str(path), "--grid", "table6",
                         "--seeds", "3", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "special_tokens" in out
        table = config.resolved_out_dir() / "ablation-table6.json"
        assert table.exists() and len(json.loads(table.read_text())) == 3

    def test_ablate_table_write_failing_midway_keeps_the_previous_table(
            self, tmp_path, capsys, monkeypatch):
        """The table goes through the same temp file, fsync and rename as a
        checkpoint: a write that fails after half the old table's bytes, as on a
        full disk, leaves the old table whole and no temp file beside it."""
        config, path = self.write_config(tmp_path, run_name="atomic")
        row = {"ptb_vocab": True, "tok_norm": True, "per_seed": [0.5], "mean": 0.5, "std": 0.0}
        tables = iter([[row] * 4, [{**row, "mean": 0.25}] * 40])
        monkeypatch.setattr(cli_module, "run_ablation", lambda *args, **kwargs: next(tables))
        argv = ["ablate", "--config", str(path)]
        assert cli_main(argv) == 0
        table = config.resolved_out_dir() / "ablation-table5.json"
        first = table.read_bytes()
        assert json.loads(first) == [row] * 4

        real_open = builtins.open

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return _FailingFile(fh, len(first) // 2) if "w" in mode else fh

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="injected"):
            cli_main(argv)
        monkeypatch.undo()
        capsys.readouterr()
        assert table.read_bytes() == first
        assert [p.name for p in table.parent.iterdir()] == [table.name]

    def test_flags_checked_like_config_fields(self, tmp_path, capsys):
        config, path = self.write_config(tmp_path, run_name="badflag")
        with pytest.raises(SystemExit) as exited:
            cli_main(["train", "--config", str(path), "--epochs", "-1"])
        assert exited.value.code == 2
        assert capsys.readouterr().err == (
            f"tavat train: error: {path}: epochs must be at least 0, got -1\n")
        assert not config.resolved_out_dir().exists()

    @pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
    @pytest.mark.parametrize("edit, message", [
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"adv": {"epsilon": 0}}, "epsilon must be positive, got 0"),
        ({"dataset": {"has_header": "false"}}, "has_header must be true or false, got 'false'"),
        ({"dataset": {"noise": 0.7}}, "noise must be a number in [0, 0.5), got 0.7"),
        ({"dataset": {"source": "bogus"}}, "unknown dataset source 'bogus'"),
        ({"dataset": {"source": "delimited", "path": None}}, "delimited source needs a path"),
    ])
    def test_refused_config_value_exits_with_one_error_line(self, tmp_path, capsys, command,
                                                            edit, message):
        """A value a config refuses ends the command as an unknown field does,
        before anything is written."""
        config, path = self.write_config(tmp_path, run_name="refused")
        raw = config.to_dict()
        for key, value in edit.items():
            raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
        path.write_text(json.dumps(raw), encoding="utf-8")
        extra = ["--checkpoint", str(tmp_path / "absent.bin")] if command == "evaluate" else []
        with pytest.raises(SystemExit) as exited:
            cli_main([command, "--config", str(path), *extra])
        assert exited.value.code == 2
        assert capsys.readouterr().err == f"tavat {command}: error: {path}: {message}\n"
        assert not config.resolved_out_dir().exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_refused_flag_exits_with_one_error_line(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exited:
            cli_main([command, "--out-dir", str(tmp_path), "--epochs", "-1"])
        assert exited.value.code == 2
        assert capsys.readouterr().err == (
            f"tavat {command}: error: epochs must be at least 0, got -1\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "evaluate", "ablate"])
    @pytest.mark.parametrize("section, field", [("model", "encoder"), (None, "save_ptb_vocab"),
                                                (None, "emit_metrics")])
    def test_unknown_config_field_exits_with_one_error_line(self, tmp_path, capsys, command,
                                                            section, field):
        """A config file naming a field no config has, as one written before that
        field was removed does, ends the command with one argparse error line
        that names the field, before anything is written."""
        config, path = self.write_config(tmp_path, run_name="stale")
        raw = config.to_dict()
        (raw[section] if section else raw)[field] = True
        path.write_text(json.dumps(raw), encoding="utf-8")
        extra = ["--checkpoint", str(tmp_path / "absent.bin")] if command == "evaluate" else []
        with pytest.raises(SystemExit) as exited:
            cli_main([command, "--config", str(path), *extra])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tavat {command}: error: {path}: ") and err.count("\n") == 1
        assert f"unexpected keyword argument '{field}'" in err
        assert not config.resolved_out_dir().exists()

    @pytest.mark.parametrize("mode", list(MODES))
    def test_mode_rows_build(self, tmp_path, mode):
        config, path = self.write_config(tmp_path)
        built = _load_config(types.SimpleNamespace(config=str(path), mode=mode))
        assert built.adv == dataclasses.replace(config.adv, **MODES[mode])

    def test_clean_mode_is_the_clean_workload(self, tmp_path):
        clean = load_workloads().make_config("tagging-clean", 1, tmp_path).adv
        assert _load_config(types.SimpleNamespace(config=None, mode="clean")).adv == clean

    def test_clean_mode_flag(self, tmp_path, capsys):
        _, path = self.write_config(tmp_path, run_name="cleanrun")
        assert cli_main(["train", "--config", str(path), "--mode", "clean",
                         "--epochs", "1"]) == 0
        capsys.readouterr()

    def test_out_dir_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TAVAT_OUT_DIR", str(tmp_path / "envroot"))
        config = quick_config(tmp_path, run_name="envrun")
        config.out_dir = None
        path = tmp_path / "config.json"
        payload = config.to_dict()
        payload["out_dir"] = None
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(["train", "--config", str(path), "--epochs", "1"]) == 0
        capsys.readouterr()
        assert (tmp_path / "envroot" / "envrun" / "checkpoint.bin").exists()
