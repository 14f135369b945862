"""The benchmark's per-layer tracer still finds every engine name it wraps.

``bench/tracing.py`` patches functions by name in the namespaces their
callers use; a rename in the engine breaks ``bench/run.py --trace 1``.
This runs one traced batch step so such a rename fails here, fast.
"""
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from tavat.adv import AdvConfig
from tavat.data import DatasetSpec, build_dataset, encode_examples, make_batches
from tavat.model import ModelConfig, TextModel
from tavat.train import SGD
from tavat.vocab import init_vocabulary

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_batch_step():
    train_mod = importlib.import_module("tavat.train")
    tok, train_ex, _, _ = build_dataset(DatasetSpec(n=60, noise=0.1, dev_fraction=0.0), seed=7)
    batch = make_batches(encode_examples(tok, train_ex[:6], 16), 6)[0]
    model = TextModel(ModelConfig(vocab_size=tok.vocab_size, dim=16, blocks=1, heads=2,
                                  ffn_dim=32, max_len=16, classes=2),
                      rng=np.random.default_rng(0))
    vocab = init_vocabulary(tok.vocab_size, 16, 0.05, np.random.default_rng(1))
    cfg = AdvConfig(epsilon=0.3, sigma=0.03, alpha=0.09, K=2)

    tracer = load_tracing().Tracer()
    tracer.phase = "train"
    try:
        tracer.install()
        train_mod.tavat_batch_step(model, batch, vocab, cfg, SGD(0.05),
                                   np.random.default_rng(2))
    finally:
        tracer.remove()
    assert train_mod.tavat_batch_step is importlib.import_module("tavat.adv").tavat_batch_step

    metrics = tracer.layer_metrics(rounds=1, epochs=1, train_tokens=int(batch.mask.sum()))
    assert metrics["adv.inner_steps"] == cfg.K
    for name in ("tensor.backward.ms", "tensor.tape.nodes", "tensor.fwd.matmul.ms",
                 "model.embed.ms", "adv.init_delta.ms", "adv.token_step.ms",
                 "adv.instance_step.ms", "adv.accumulate.ms", "vocab.gather.ms",
                 "vocab.scatter.ms", "vocab.scatter.rows_written",
                 "train.optimizer_step.ms"):
        assert metrics[name] > 0, name
    # backward writes .grad on leaves only: the parameters and the two perturbations
    perturbation_bytes = 2 * batch.token_ids.size * 16 * 8
    leaf_bytes = sum(p.data.nbytes for p in model.params.values()) + perturbation_bytes
    assert metrics["tensor.backward.grad_bytes"] == leaf_bytes
