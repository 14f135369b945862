"""The benchmark's tracer and harness still find every engine name they use.

``bench/tracing.py`` patches functions by name in the namespaces their
callers use, and ``bench/harness.py`` stands in for ``tavat_batch_step``
and ``evaluate`` in ``tavat.train`` and reads the step's report and
``TextModel.snapshot``. A rename in the engine breaks ``bench/run.py``;
these run one traced batch step and one timed one-epoch run so such a
rename fails here, fast.
"""
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

import tavat.adv as adv
import tavat.train as train_mod
from tavat.adv import AdvConfig, init_vocabulary
from tavat.cli import MODES
from tavat.data import DatasetSpec, build_dataset, encode_examples, make_batches
from tavat.model import ModelConfig, TextModel
from tavat.train import SGD, Seeds, TrainConfig, parse_metrics

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_traced_batch_step():
    tok, train_ex, _, _ = build_dataset(DatasetSpec(n=60, noise=0.1, dev_fraction=0.0), seed=7)
    batch = make_batches(encode_examples(tok, train_ex[:6], 16), 6)[0]
    model = TextModel(ModelConfig(vocab_size=tok.vocab_size, dim=16, blocks=1, heads=2,
                                  ffn_dim=32, max_len=16, classes=2),
                      rng=np.random.default_rng(0))
    vocab = init_vocabulary(tok.vocab_size, 16, 0.05, np.random.default_rng(1))
    cfg = AdvConfig(epsilon=0.3, sigma=0.03, alpha=0.09, K=2)

    tracer = load_bench("tracing").Tracer()
    tracer.phase = "train"
    try:
        tracer.install()
        train_mod.tavat_batch_step(model, batch, vocab, cfg, SGD(0.05),
                                   np.random.default_rng(2))
    finally:
        tracer.remove()
    assert train_mod.tavat_batch_step is adv.tavat_batch_step

    metrics = tracer.layer_metrics(rounds=1, epochs=1, train_tokens=int(batch.mask.sum()))
    assert metrics["adv.inner_steps"] == cfg.K
    for name in ("tensor.backward.ms", "tensor.tape.nodes", "tensor.fwd.matmul.ms",
                 "model.embed.ms", "adv.init_delta.ms", "adv.token_step.ms",
                 "adv.instance_step.ms", "adv.accumulate.ms", "vocab.gather.ms",
                 "vocab.scatter.ms", "vocab.scatter.rows_written",
                 "train.optimizer_step.ms"):
        assert metrics[name] > 0, name
    # backward returns its gradients and writes none onto tensors
    assert metrics["tensor.backward.grad_bytes"] == 0


def test_timed_clean_run(tmp_path, monkeypatch):
    """The harness's step timer sees one step per batch, and the first step's
    loss of a clean run is the snapshot's loss on that batch, bitwise."""
    monkeypatch.syspath_prepend(str(BENCH))      # the harness imports its siblings
    harness = load_bench("harness")
    dataset = DatasetSpec(n=60, noise=0.1, dev_fraction=0.25)
    config = TrainConfig(
        model=ModelConfig(vocab_size=56, dim=8, blocks=1, heads=2, ffn_dim=16,
                          max_len=16, classes=2),
        adv=AdvConfig(**MODES["clean"]), dataset=dataset,
        seeds=Seeds(init=1, data=2, adversarial=3), epochs=1, batch_size=16, max_len=16,
        out_dir=str(tmp_path))
    timer, result, _, _ = harness._timed_train(config, "timed", abort=False,
                                               capture_first=True)
    assert train_mod.tavat_batch_step is adv.tavat_batch_step
    assert train_mod.evaluate.__module__ == "tavat.train"

    snapshot, batch, step_loss = timer.first
    clean_loss = snapshot.loss(snapshot.forward(batch), batch).item()
    assert step_loss.hex() == clean_loss.hex()
    _, train_ex, _, _ = build_dataset(dataset, seed=config.seeds.data)
    steps = [r for r in parse_metrics(result.metrics_path) if r["kind"] == "step"]
    assert len(timer.step_s) == len(steps) == math.ceil(len(train_ex) / config.batch_size)
