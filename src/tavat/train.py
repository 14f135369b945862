"""Training orchestration: epochs, optimizers, evaluation, ablations, metrics.

One process runs one training job. Seeds are split by role (parameter
init, data order, adversarial draws) so ablation arms can share data
order while varying only the adversarial behavior. Every run writes a
checkpoint, a line-delimited metrics stream and, when in use, the
perturbation vocabulary; identical configs and seeds reproduce all
three bit for bit.
"""
from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import re
import time
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .adv import (AdvConfig, SpecialTokenPolicy, example_norms, init_vocabulary,
                  tavat_batch_step)
from .data import (CLS, SEP, UNK, DatasetSpec, build_dataset, encode_examples,
                   label_histogram, make_batches, span_f1, tagging_tag_names)
from .model import (ConfigError, ModelConfig, TextModel, _check_ints, _is_real,
                    require_directory, require_file, save_checkpoint)
from .tensor import Packed, RowGradient
from .vocab import apply_to_embedding, load_vocabulary, save_vocabulary

METRICS_SCHEMA = 1


def _pieces(model, grads: Packed):
    """What an optimizer step walks: (name, parameter array, rows, gradient)
    per piece, where ``rows`` indexes the rows the gradient may be nonzero on.

    The dense parameters are one piece, named None, over the model's flat
    buffer and that of ``grads``, a ``Packed`` sum of the model's layout as
    ``AccumulatedGradient`` makes it. Each lookup table is a piece of its own:
    a RowGradient with its ``rows`` and ``values`` as they are, or a dense
    array over every row.
    """
    pieces = [(None, model.dense.flat, slice(None), grads.flat)]
    for name, p in model.params.items():
        if name not in model.dense:
            g = grads[name]
            rows, g = (g.rows, g.values) if isinstance(g, RowGradient) else (slice(None), g)
            pieces.append((name, p.data, rows, g))
    return pieces


class SGD:
    """Plain SGD, in place. ``p - lr * +0.0`` is ``p``, -0.0 included, so a
    table moves only the rows its gradient touched."""

    def __init__(self, lr: float):
        self.lr = lr

    def step(self, model, grads: Packed) -> None:
        for _, p, rows, g in _pieces(model, grads):
            p[rows] -= self.lr * g


def _zeros(model) -> Packed:
    """Zeros by parameter name, the dense ones views of one flat buffer of the
    model's layout."""
    state = Packed(model.dense.layout)
    for name, p in model.params.items():
        if name not in state:
            state[name] = np.zeros_like(p.data)
    return state


class Adam:
    """Adam with bias correction; state keyed by parameter name.

    In place, in the operation order of ``m = B1*m + (1-B1)*g``,
    ``v = B2*v + (1-B2)*g*g`` and ``p - lr*(m/c1) / (sqrt(v/c2) + EPS)``:
    the moments decay whole, take the gradient terms on the touched rows
    only, and a table's update walks blocks of ``_BLOCK_ROWS`` rows so its
    temporaries stay block-sized. Off the rows the dense step would add
    ``+0.0``, which changes only a ``-0.0``, and no moment is ever ``-0.0``:
    ``x + y`` is ``-0.0`` only when both are, the moments start at ``+0.0``,
    and B1 or B2 times the smallest denormal rounds back to it. ``m`` and
    ``v`` are made at the first step unless already given, each a ``Packed``
    of the model's layout, so the dense parameters' moments are stepped in
    one pass each.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    _BLOCK_ROWS = 256

    def __init__(self, lr: float):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] = {}     # a Packed from the first step
        self.v: dict[str, np.ndarray] = {}

    def step(self, model, grads: Packed) -> None:
        if not self.m:
            self.m, self.v = _zeros(model), _zeros(model)
        self.t += 1
        c1 = 1 - self.BETA1 ** self.t
        c2 = 1 - self.BETA2 ** self.t
        for name, p, rows, g in _pieces(model, grads):
            m, v = (self.m.flat, self.v.flat) if name is None else (self.m[name], self.v[name])
            m *= self.BETA1
            v *= self.BETA2
            m[rows] += (1 - self.BETA1) * g
            temp = np.multiply(1 - self.BETA2, g)
            temp *= g
            v[rows] += temp
            # a dense piece is one block
            block_rows = self._BLOCK_ROWS if isinstance(rows, np.ndarray) else max(len(p), 1)
            for start in range(0, len(p), block_rows):
                block = slice(start, start + block_rows)
                temp = np.divide(v[block], c2)
                np.sqrt(temp, out=temp)
                temp += self.EPS
                update = np.divide(m[block], c1)
                update *= self.lr
                update /= temp
                p[block] -= update


OPTIMIZERS = {"sgd": SGD, "adam": Adam}


@dataclass
class Seeds:
    init: int = 1
    data: int = 2
    adversarial: int = 3

    def __post_init__(self):
        _check_ints(self, (("init", 0), ("data", 0), ("adversarial", 0)))


@dataclass
class TrainConfig:
    model: ModelConfig | None = None
    adv: AdvConfig = field(default_factory=AdvConfig)
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    seeds: Seeds = field(default_factory=Seeds)
    optimizer: str = "sgd"
    lr: float = 0.05
    epochs: int = 3
    batch_size: int = 32
    max_len: int = 32
    out_dir: str | None = None
    run_name: str = "run"
    init_embedding_from_vocab: str | None = None

    def __post_init__(self):
        _check_ints(self, (("epochs", 0), ("batch_size", 1), ("max_len", 2)))
        if not _is_real(self.lr) or not math.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be a finite positive number, got {self.lr!r}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"unknown optimizer kind {self.optimizer!r}")

    def resolved_out_dir(self) -> Path:
        root = self.out_dir or os.environ.get("TAVAT_OUT_DIR", "runs")
        return Path(root) / self.run_name

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(raw: dict) -> TrainConfig:
    """Build a TrainConfig from plain JSON-ish data (config files, CLI)."""
    raw = dict(raw)
    kwargs: dict = {}
    if "model" in raw and raw["model"] is not None:
        kwargs["model"] = ModelConfig(**raw.pop("model"))
    else:
        raw.pop("model", None)
    if "adv" in raw:
        adv = dict(raw.pop("adv"))
        if "special_token_policy" in adv:
            adv["special_token_policy"] = SpecialTokenPolicy(**adv["special_token_policy"])
        kwargs["adv"] = AdvConfig(**adv)
    if "dataset" in raw:
        kwargs["dataset"] = DatasetSpec(**raw.pop("dataset"))
    if "seeds" in raw:
        kwargs["seeds"] = Seeds(**raw.pop("seeds"))
    kwargs.update(raw)
    return TrainConfig(**kwargs)


class MetricsWriter:
    """Append-only line-delimited records, flushed as they happen."""

    def __init__(self, path: Path | None):
        self._fh = open(path, "w", encoding="utf-8") if path else None
        # the end-of-run summary of the records emitted so far
        self.summary = {"kind": "summary", "steps": 0, "evaluations": 0,
                        "final_loss": None, "final_dev_metric": None}

    def emit(self, record: dict) -> None:
        record = {"schema": METRICS_SCHEMA, **record}
        if record["kind"] == "step":
            self.summary["steps"] += 1
            self.summary["final_loss"] = record["losses"][-1]
        elif record["kind"] == "eval":
            self.summary["evaluations"] += 1
            self.summary["final_dev_metric"] = record["metric"]
        if self._fh:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh:
            self._fh.close()
            self._fh = None


def parse_metrics(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@dataclass
class TrainResult:
    model: TextModel
    dev_metric: float | None
    checkpoint_path: Path
    vocab_path: Path | None             # None when the run has no vocabulary
    metrics_path: Path
    tokenizer_fingerprint: str


def check_head(head: str, spec: DatasetSpec, error: type[ValueError], where: str) -> None:
    """Raise ``error`` naming ``where`` unless ``head`` is the one the dataset's task needs."""
    needed = "tagging" if spec.source == "synthetic-tagging" else "classification"
    if head != needed:
        raise error(f"{where}: a {head} head cannot take {spec.source} data, "
                    f"which needs a {needed} head")


def check_positional(cfg: ModelConfig, encoded, error: type[ValueError], where: str) -> None:
    """Raise ``error`` naming ``where`` when a positional table is shorter than
    the longest of the ``encoded`` sequences."""
    if cfg.use_positional:
        longest = max((len(ex.ids) for ex in encoded), default=0)
        if longest > cfg.max_len:
            raise error(f"{where}: max_len {cfg.max_len} is shorter than the "
                        f"longest encoded sequence, {longest} ids")


def _dev_metric(model: TextModel, batches) -> float:
    """Accuracy for classification, span F1 for tagging."""
    metrics = evaluate(model, batches)
    return metrics["f1"] if model.config.head == "tagging" else metrics["accuracy"]


def evaluate(model: TextModel, batches) -> dict:
    """Deterministic metrics on pre-built batches."""
    if not batches:
        raise ValueError("evaluate: no batches (is the requested split empty?)")
    if model.config.head == "tagging":
        gold, pred = [], []
        for b in batches:
            p = model.predict(b)
            for row in range(b.size):
                keep = b.mask[row]
                gold.append(b.labels[row][keep])
                pred.append(p[row][keep])
        precision, recall, f1 = span_f1(gold, pred)
        return {"precision": precision, "recall": recall, "f1": f1}
    correct = total = 0
    for b in batches:
        correct += int((model.predict(b) == b.labels).sum())
        total += b.size
    return {"accuracy": correct / total}


def _step_record(report, epoch: int, b_index: int, wall_time: float) -> dict:
    """The metrics record of one batch step, with the final perturbations' norms."""
    record = {"kind": "step", "epoch": epoch, "batch": b_index,
              "losses": [round(v, 10) for v in report.losses], "wall_time": wall_time}
    for name, perturbation in (("delta", report.delta), ("eta", report.eta)):
        if perturbation is not None:
            norms = example_norms(perturbation)
            record[f"{name}_norm_max"] = float(norms.max())
            record[f"{name}_norm_mean"] = float(norms.mean())
    return record


# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8


def _pin_allocator() -> None:
    """Keep freed activations in the heap for the next inner step to reuse.

    glibc serves a block above its mmap threshold from a fresh mapping and
    unmaps it on free, and hands a free heap top above its trim threshold
    back to the kernel; both thresholds slide with the sizes freed. An
    inner step's 0.2-6 MB arrays then fault their pages in again on every
    step. Fixed, high thresholds keep those pages in the heap, and one
    arena keeps ``backward``'s worker thread on that heap rather than a
    second one. A no-op where the C library has no ``mallopt``.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)
    mallopt(_M_ARENA_MAX, 1)


def train(config: TrainConfig) -> TrainResult:
    """Run a full training job as configured; everything is seed-determined."""
    # rebuilt, so a field assigned after construction is checked too
    cfg = config_from_dict(config.to_dict())
    _pin_allocator()
    tokenizer, train_ex, dev_ex, _ = build_dataset(cfg.dataset, seed=cfg.seeds.data)
    if cfg.epochs and not train_ex:
        raise ConfigError(f"the training split is empty: {cfg.epochs} epochs would run no step")
    fingerprint = tokenizer.fingerprint()
    tagging = cfg.dataset.source == "synthetic-tagging"
    histogram = label_histogram(train_ex)

    model_cfg = cfg.model
    if model_cfg is None:
        classes = len(tagging_tag_names()) if tagging else cfg.dataset.classes
        model_cfg = ModelConfig(vocab_size=tokenizer.vocab_size, classes=classes,
                                head="tagging" if tagging else "classification",
                                max_len=cfg.max_len)
    if model_cfg.vocab_size != tokenizer.vocab_size:
        raise ConfigError(
            f"model vocab_size {model_cfg.vocab_size} != tokenizer {tokenizer.vocab_size}")
    check_head(model_cfg.head, cfg.dataset, ConfigError, "model")
    # any BIO tag id may occur in a tagging set
    labels = range(len(tagging_tag_names())) if tagging else histogram
    if labels and (min(labels) < 0 or max(labels) >= model_cfg.classes):
        raise ConfigError(f"training labels {min(labels)}..{max(labels)} do not fit "
                          f"model classes {model_cfg.classes}")

    rng_init = np.random.default_rng(cfg.seeds.init)
    rng_adv = np.random.default_rng(cfg.seeds.adversarial)
    model = TextModel(model_cfg, rng=rng_init)

    if cfg.init_embedding_from_vocab:
        require_file(cfg.init_embedding_from_vocab)
        learned = load_vocabulary(cfg.init_embedding_from_vocab,
                                  expect_dim=model_cfg.dim,
                                  expect_fingerprint=fingerprint)
        model.set_embedding(apply_to_embedding(
            model.params["embedding.weight"].data, learned))

    vocab = None
    if cfg.adv.use_vocab:
        vocab = init_vocabulary(model_cfg.vocab_size, model_cfg.dim, cfg.adv.sigma,
                                rng_adv, meta={"task": cfg.dataset.source,
                                               "epsilon": cfg.adv.epsilon,
                                               "fingerprint": fingerprint})

    optimizer = OPTIMIZERS[cfg.optimizer](cfg.lr)
    encoded_train = encode_examples(tokenizer, train_ex, cfg.max_len)
    encoded_dev = encode_examples(tokenizer, dev_ex, cfg.max_len)
    check_positional(model_cfg, chain(encoded_train, encoded_dev), ConfigError, "model")
    dev_batches = make_batches(encoded_dev, cfg.batch_size) if encoded_dev else []

    out_dir = cfg.resolved_out_dir()
    require_directory(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)   # after every refusal above
    checkpoint_path, metrics_path = out_dir / "checkpoint.bin", out_dir / "metrics.jsonl"
    vocab_path = out_dir / "ptb_vocab.bin"
    vocab_path.unlink(missing_ok=True)   # an earlier run's, no checkpoint's pair below
    if vocab is None:
        vocab_path = None
    writer = MetricsWriter(metrics_path)
    started = time.time()
    writer.emit({"kind": "config", "config": cfg.to_dict(),
                 "train_examples": len(train_ex),
                 "label_histogram": {str(k): v for k, v in sorted(histogram.items())},
                 "tokenizer_fingerprint": fingerprint})
    try:
        dev_metric = None
        save_checkpoint(model, checkpoint_path)   # last-good from step zero
        for epoch in range(cfg.epochs):
            batches = make_batches(encoded_train, cfg.batch_size,
                                   seed=cfg.seeds.data + epoch, shuffle=True)
            for b_index, batch in enumerate(batches):
                writer.emit(_step_record(
                    tavat_batch_step(model, batch, vocab, cfg.adv, optimizer, rng_adv),
                    epoch, b_index, time.time() - started))
            if dev_batches:
                dev_metric = _dev_metric(model, dev_batches)
                writer.emit({"kind": "eval", "epoch": epoch, "metric": dev_metric,
                             "wall_time": time.time() - started})
            save_checkpoint(model, checkpoint_path)
            if vocab is not None:   # the checkpoint's pair, so a stopped run leaves both
                save_vocabulary(vocab, vocab_path)
        if cfg.epochs == 0 and dev_batches:
            dev_metric = _dev_metric(model, dev_batches)
            writer.emit({"kind": "eval", "epoch": -1, "metric": dev_metric,
                         "wall_time": time.time() - started})
        if cfg.epochs == 0 and vocab is not None:
            save_vocabulary(vocab, vocab_path)
        writer.emit(writer.summary)
    finally:
        writer.close()

    return TrainResult(model=model, dev_metric=dev_metric, checkpoint_path=checkpoint_path,
                       vocab_path=vocab_path, metrics_path=metrics_path,
                       tokenizer_fingerprint=fingerprint)


# ---------------------------------------------------------------------------
# ablations

_SPECIALS = (CLS, SEP, UNK)

# grid -> (row label, AdvConfig overrides) per arm
ABLATION_GRIDS = {
    # perturbation vocabulary x token-level normalization
    "table5": [
        ({"ptb_vocab": True, "tok_norm": True}, {"use_vocab": True, "use_token_norm": True}),
        ({"ptb_vocab": False, "tok_norm": True}, {"use_vocab": False, "use_token_norm": True}),
        ({"ptb_vocab": True, "tok_norm": False}, {"use_vocab": True, "use_token_norm": False}),
        ({"ptb_vocab": False, "tok_norm": False},
         {"use_vocab": False, "use_token_norm": False}),
    ],
    # which token groups write the vocabulary: (special tokens, normal tokens)
    "table6": [
        ({"special_tokens": (True, True)},
         {"special_token_policy": SpecialTokenPolicy("exclude", ())}),
        ({"special_tokens": (False, True)},
         {"special_token_policy": SpecialTokenPolicy("exclude", _SPECIALS)}),
        ({"special_tokens": (True, False)},
         {"special_token_policy": SpecialTokenPolicy("include", _SPECIALS)}),
    ],
}


def run_ablation(config: TrainConfig, grid: str = "table5",
                 seeds: list[int] | None = None) -> list[dict]:
    """One run per arm of the grid and seed, joined into one table.

    ``grid`` is "table5" (vocabulary x token norm) or "table6" (which
    token groups write the vocabulary). All arms share the data seed so
    they see identical batches; the init and adversarial seeds vary only
    across replication seeds, never across arms. Each is a run of its own.
    """
    seeds = seeds or [1, 2, 3]
    if not isinstance(grid, str) or grid not in ABLATION_GRIDS:
        raise ValueError(f"unknown ablation grid {grid!r}")

    rows = []
    for label, overrides in ABLATION_GRIDS[grid]:
        # path-safe: special_tokens(True, False) gives special_tokens-True-False
        suffix = re.sub(r"[^\w.]+", "-", "-".join(f"{k}{v}" for k, v in label.items())).strip("-")
        metrics = []
        for s in seeds:
            arm = dataclasses.replace(
                config, adv=dataclasses.replace(config.adv, **overrides),
                seeds=Seeds(init=s, data=config.seeds.data, adversarial=s + 1000),
                run_name=f"{config.run_name}-ablate-{suffix}-s{s}")
            metrics.append(train(arm).dev_metric)
        rows.append({
            **{k: (list(v) if isinstance(v, tuple) else v) for k, v in label.items()},
            "per_seed": metrics,
            "mean": float(np.mean(metrics)),
            "std": float(np.std(metrics)),
        })
    return rows


def format_ablation_table(rows: list[dict]) -> str:
    lines = []
    keys = [k for k in rows[0] if k not in ("per_seed", "mean", "std")]
    header = " | ".join(keys + ["mean", "std", "per-seed"])
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        cells = [str(row[k]) for k in keys]
        cells.append(f"{row['mean']:.4f}")
        cells.append(f"{row['std']:.4f}")
        cells.append(",".join(f"{m:.4f}" for m in row["per_seed"]))
        lines.append(" | ".join(cells))
    return "\n".join(lines)
