"""Trainer: reproducibility, mode lattice, metrics stream, ablations, CLI."""
import dataclasses
import importlib
import json
import re
import types

import numpy as np
import pytest

from tavat.adv import AdvConfig
from tavat.cli import main as cli_main
from tavat.data import DatasetSpec, make_batches, Batch
from tavat.model import ModelConfig, TextModel, load_checkpoint, save_checkpoint
from tavat.train import (Seeds, TrainConfig, config_from_dict, evaluate,
                         format_ablation_table, parse_metrics, run_ablation,
                         summarize_records, train)


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


def strip_time(records):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in records]


class TestAllocatorPin:
    def test_train_pins_the_allocator(self, tmp_path, monkeypatch):
        train_module = importlib.import_module("tavat.train")
        calls = []
        monkeypatch.setattr(train_module, "_pin_allocator", lambda: calls.append(1))
        config = quick_config(tmp_path, run_name="pin")
        config.epochs = 0
        train(config)
        assert calls == [1]

    def test_pin_sets_both_thresholds(self, monkeypatch):
        train_module = importlib.import_module("tavat.train")
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        monkeypatch.setattr(train_module.ctypes, "CDLL",
                            lambda name: types.SimpleNamespace(mallopt=mallopt))
        train_module._pin_allocator()
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_pin_is_quiet_without_mallopt(self, monkeypatch):
        train_module = importlib.import_module("tavat.train")
        monkeypatch.setattr(train_module.ctypes, "CDLL", lambda name: object())
        assert train_module._pin_allocator() is None


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
        # the package re-exports the function ``train`` under the module's name
        train_module = importlib.import_module("tavat.train")
        real_save, calls = train_module.save_checkpoint, []

        def counting_save(model, path):
            calls.append(path)
            real_save(model, path)

        monkeypatch.setattr(train_module, "save_checkpoint", counting_save)
        config = quick_config(tmp_path, run_name=f"saves{epochs}")
        config.epochs = epochs
        train(config)
        assert len(calls) == epochs + 1

    def test_vocab_saved_when_requested(self, tmp_path):
        config = quick_config(tmp_path, run_name="vocabrun")
        config.save_ptb_vocab = True
        result = train(config)
        assert result.vocab_path is not None and result.vocab_path.exists()
        from tavat.vocab import load_vocabulary
        vocab = load_vocabulary(result.vocab_path,
                                expect_fingerprint=result.tokenizer_fingerprint)
        assert vocab.vocab_size == 56

    def test_embedding_warm_start_from_vocab(self, tmp_path):
        first = quick_config(tmp_path, run_name="teach")
        first.save_ptb_vocab = True
        taught = train(first)
        second = quick_config(tmp_path, run_name="warm")
        second.init_embedding_from_vocab = str(taught.vocab_path)
        warm = train(second)
        assert warm.dev_metric is not None

    def test_fingerprint_guard_on_warm_start(self, tmp_path):
        first = quick_config(tmp_path, run_name="teach2")
        first.save_ptb_vocab = True
        taught = train(first)
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
        batch = Batch(token_ids=ids, mask=ids != 0, labels=labels)

        class Constant:
            class config:
                head = "classification"

            def predict(self, b):
                return np.zeros(b.size, dtype=np.int64)

        assert evaluate(Constant(), [batch])["accuracy"] == 0.70

    def test_accuracy_against_confusion_recount(self, tmp_path):
        config = quick_config(tmp_path, run_name="recount")
        result = train(config)
        from tavat.data import build_dataset, encode_examples
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
        config = quick_config(tmp_path, run_name="metrics")
        config.adv.K = 3
        result = train(config)
        steps = [r for r in parse_metrics(result.metrics_path) if r["kind"] == "step"]
        assert steps and all(len(r["losses"]) == 3 for r in steps)
        assert all(r["schema"] == 1 for r in steps)

    def test_reparse_reconstructs_summary(self, tmp_path):
        result = train(quick_config(tmp_path, run_name="summary"))
        records = parse_metrics(result.metrics_path)
        stored = [r for r in records if r["kind"] == "summary"][-1]
        rebuilt = summarize_records([r for r in records if r["kind"] != "summary"])
        for key, value in rebuilt.items():
            assert stored[key] == value

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
            arm.emit_metrics = False
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
                                     {"adv": {"eta_epsilon": 0.1}}])
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
    ])
    def test_run_shape_checked_at_construction(self, raw, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            config_from_dict(raw)


class TestCLI:
    def write_config(self, tmp_path, **kwargs):
        config = quick_config(tmp_path, **kwargs)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
        return config, path

    def test_train_evaluate_and_export(self, tmp_path, capsys):
        config, path = self.write_config(tmp_path, run_name="cli")
        assert cli_main(["train", "--config", str(path), "--epochs", "1",
                         "--save-ptb-vocab"]) == 0
        out = capsys.readouterr().out
        assert "dev metric" in out
        checkpoint = config.resolved_out_dir() / "checkpoint.bin"
        vocab_file = config.resolved_out_dir() / "ptb_vocab.bin"
        assert checkpoint.exists() and vocab_file.exists()

        assert cli_main(["evaluate", "--checkpoint", str(checkpoint),
                         "--config", str(path)]) == 0
        assert "accuracy" in capsys.readouterr().out

        merged = tmp_path / "merged.bin"
        assert cli_main(["export-vocab", "--checkpoint", str(checkpoint),
                         "--vocab", str(vocab_file), "--out", str(merged)]) == 0
        capsys.readouterr()
        assert merged.exists()

    def test_evaluate_rejects_checkpoint_of_another_vocabulary(self, tmp_path, monkeypatch):
        config, path = self.write_config(tmp_path, run_name="foreign")
        foreign = tmp_path / "foreign.bin"
        save_checkpoint(TextModel(dataclasses.replace(config.model, vocab_size=40),
                                  rng=np.random.default_rng(0)), foreign)
        cli_module = importlib.import_module("tavat.cli")

        def no_batches(*args, **kwargs):
            raise AssertionError("batches built for a mismatched checkpoint")

        monkeypatch.setattr(cli_module, "make_batches", no_batches)
        with pytest.raises(ValueError, match=r"vocab_size 40 != dataset tokenizer 56"):
            cli_main(["evaluate", "--checkpoint", str(foreign), "--config", str(path)])

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

    def test_flags_checked_like_config_fields(self, tmp_path):
        _, path = self.write_config(tmp_path, run_name="badflag")
        with pytest.raises(ValueError, match="epochs must be at least 0, got -1"):
            cli_main(["train", "--config", str(path), "--epochs", "-1"])

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
