"""Small text classifier with a perturbation injection point.

The encoder runs entirely on the autodiff tensors: an embedding lookup,
one or more transformer blocks (or a per-position MLP), and either a
pooled classification head or a per-token tagging head. Perturbations
are added to the embedding output before the encoder, so
``forward_from_embeddings`` is the seam the adversarial loop drives.
"""
from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class ModelConfig:
    vocab_size: int
    dim: int = 64
    blocks: int = 2
    heads: int = 4
    ffn_dim: int | None = None
    max_len: int = 64
    classes: int = 2
    encoder: str = "transformer"          # "transformer" | "mlp"
    head: str = "classification"          # "classification" | "tagging"
    use_positional: bool = False
    dropout: float = 0.0                  # disabled by default; off keeps baselines clean
    dropout_seed: int = 0

    def __post_init__(self):
        if self.ffn_dim is None:
            self.ffn_dim = 4 * self.dim
        if self.encoder not in ("transformer", "mlp"):
            raise ValueError(f"unknown encoder kind {self.encoder!r}")
        if self.head not in ("classification", "tagging"):
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.encoder == "transformer" and self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")


MASK_FILL_VALUE = -1e9


class TextModel:
    """Embedding table + encoder + head, all parameters in one named map."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 params: dict[str, Tensor] | None = None):
        self.config = config
        if params is not None:
            self.params = params
        else:
            if rng is None:
                raise ValueError("TextModel needs an rng or explicit params")
            self.params = self._init_params(rng)
        self._dropout_rng = np.random.default_rng(config.dropout_seed)

    def _init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        cfg = self.config
        params: dict[str, Tensor] = {}

        def linear(name, fan_in, fan_out):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            params[f"{name}.weight"] = Tensor(
                rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)
            params[f"{name}.bias"] = Tensor(np.zeros(fan_out), requires_grad=True)

        # token rows land near unit norm, the regime the perturbation
        # bounds are calibrated against
        emb_bound = math.sqrt(3.0 / cfg.dim)
        emb = rng.uniform(-emb_bound, emb_bound, size=(cfg.vocab_size, cfg.dim))
        emb[0] = 0.0
        params["embedding.weight"] = Tensor(emb, requires_grad=True)
        if cfg.use_positional:
            params["positional.weight"] = Tensor(
                rng.uniform(-0.1, 0.1, size=(cfg.max_len, cfg.dim)), requires_grad=True)

        if cfg.encoder == "transformer":
            for b in range(cfg.blocks):
                for proj in ("wq", "wk", "wv", "wo"):
                    linear(f"block{b}.attn.{proj}", cfg.dim, cfg.dim)
                params[f"block{b}.ln1.gain"] = Tensor(np.ones(cfg.dim), requires_grad=True)
                params[f"block{b}.ln1.bias"] = Tensor(np.zeros(cfg.dim), requires_grad=True)
                linear(f"block{b}.ffn.w1", cfg.dim, cfg.ffn_dim)
                linear(f"block{b}.ffn.w2", cfg.ffn_dim, cfg.dim)
                params[f"block{b}.ln2.gain"] = Tensor(np.ones(cfg.dim), requires_grad=True)
                params[f"block{b}.ln2.bias"] = Tensor(np.zeros(cfg.dim), requires_grad=True)
        else:
            linear("mlp.w1", cfg.dim, cfg.ffn_dim)
            linear("mlp.w2", cfg.ffn_dim, cfg.dim)

        linear("head", cfg.dim, cfg.classes)
        return params

    def set_embedding(self, weights: np.ndarray) -> None:
        """Replace the N x D embedding weights (row 0 is padding) with a copy."""
        current = self.params["embedding.weight"]
        if weights.shape != current.shape:
            raise T.ShapeError(
                f"embedding shape mismatch: model {current.shape}, new {weights.shape}")
        self.params["embedding.weight"] = Tensor(weights.copy(), requires_grad=True)

    def snapshot(self) -> "TextModel":
        copies = {name: Tensor(p.data.copy(), requires_grad=True)
                  for name, p in self.params.items()}
        return TextModel(self.config, params=copies)

    def embed(self, batch) -> Tensor:
        """Embedding output for a batch; padding ids resolve to row 0."""
        ids = np.asarray(batch.token_ids)
        x = T.embedding_lookup(self.params["embedding.weight"], ids)
        if self.config.use_positional:
            length = ids.shape[1]
            if length > self.config.max_len:
                raise T.ShapeError(
                    f"sequence length {length} exceeds max_len {self.config.max_len}")
            pos = T.embedding_lookup(self.params["positional.weight"], np.arange(length))
            x = T.add(x, pos)
        return x

    def _dropout(self, x: Tensor, train: bool) -> Tensor:
        p = self.config.dropout
        if not train or p <= 0.0:
            return x
        keep = (self._dropout_rng.random(x.shape) >= p) / (1.0 - p)
        return T.scale(x, keep)

    def _attention(self, h: Tensor, mask: np.ndarray, b: int) -> Tensor:
        cfg = self.config
        bsz, length, dim = h.shape
        heads, dk = cfg.heads, dim // cfg.heads
        p = self.params

        def proj(name):
            out = T.add(T.matmul(h, p[f"block{b}.attn.{name}.weight"]),
                        p[f"block{b}.attn.{name}.bias"])
            out = T.reshape(out, (bsz, length, heads, dk))
            return T.transpose(out, (0, 2, 1, 3))

        q, k, v = proj("wq"), proj("wk"), proj("wv")
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dk))
        key_mask = mask[:, None, None, :]
        scores = T.mask_fill(scores, key_mask, MASK_FILL_VALUE)
        weights = T.softmax(scores)
        ctx = T.matmul(weights, v)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (bsz, length, dim))
        return T.add(T.matmul(ctx, p[f"block{b}.attn.wo.weight"]),
                     p[f"block{b}.attn.wo.bias"])

    def forward_from_embeddings(self, x: Tensor, mask: np.ndarray, train: bool = False) -> Tensor:
        """Logits from (possibly perturbed) embeddings; padded positions are inert."""
        cfg = self.config
        mask = np.asarray(mask, dtype=bool)
        if x.ndim != 3 or x.shape[-1] != cfg.dim or x.shape[:2] != mask.shape:
            raise T.ShapeError(
                f"forward_from_embeddings: embeddings {x.shape} vs mask {mask.shape}, dim {cfg.dim}")
        p = self.params
        h = x
        if cfg.encoder == "transformer":
            for b in range(cfg.blocks):
                attn = self._dropout(self._attention(h, mask, b), train)
                h = T.layer_norm(T.add(h, attn), p[f"block{b}.ln1.gain"], p[f"block{b}.ln1.bias"])
                ff = T.add(T.matmul(T.relu(T.add(T.matmul(h, p[f"block{b}.ffn.w1.weight"]),
                                                 p[f"block{b}.ffn.w1.bias"])),
                                    p[f"block{b}.ffn.w2.weight"]),
                           p[f"block{b}.ffn.w2.bias"])
                ff = self._dropout(ff, train)
                h = T.layer_norm(T.add(h, ff), p[f"block{b}.ln2.gain"], p[f"block{b}.ln2.bias"])
        else:
            inner = T.relu(T.add(T.matmul(h, p["mlp.w1.weight"]), p["mlp.w1.bias"]))
            h = T.add(T.matmul(inner, p["mlp.w2.weight"]), p["mlp.w2.bias"])

        if cfg.head == "tagging":
            return T.add(T.matmul(h, p["head.weight"]), p["head.bias"])

        kept = T.mask_fill(h, mask[:, :, None], 0.0)
        pooled = T.reduce_sum(kept, axis=1)
        inv_len = (1.0 / mask.sum(axis=1))[:, None]
        pooled = T.scale(pooled, inv_len)
        return T.add(T.matmul(pooled, p["head.weight"]), p["head.bias"])

    def forward(self, batch, train: bool = False) -> Tensor:
        return self.forward_from_embeddings(self.embed(batch), batch.mask, train=train)

    def loss(self, logits: Tensor, batch) -> Tensor:
        if self.config.head == "tagging":
            return T.cross_entropy_loss(logits, batch.labels, mask=batch.mask)
        return T.cross_entropy_loss(logits, batch.labels)

    def predict(self, batch) -> np.ndarray:
        return np.argmax(self.forward(batch).data, axis=-1)


CHECKPOINT_MAGIC = b"TAVM"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Corrupt, truncated, mis-versioned or over-long model checkpoint."""


def save_checkpoint(model: TextModel, path) -> None:
    """Binary checkpoint: magic, version, hyperparameter block, named tensors."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    hyper = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
    buf.write(struct.pack("<I", len(hyper)))
    buf.write(hyper)
    buf.write(struct.pack("<I", len(model.params)))
    for name, p in model.params.items():
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", p.ndim))
        buf.write(struct.pack(f"<{p.ndim}I", *p.shape))
        buf.write(p.data.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path) -> TextModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    view = io.BytesIO(raw)
    if view.read(4) != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a model checkpoint (bad magic)")
    try:
        (version,) = struct.unpack("<I", view.read(4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointFormatError(f"{path}: unsupported checkpoint version {version}")
        (hlen,) = struct.unpack("<I", view.read(4))
        config = ModelConfig(**json.loads(view.read(hlen).decode("utf-8")))
        (count,) = struct.unpack("<I", view.read(4))
        params: dict[str, Tensor] = {}
        for _ in range(count):
            (nlen,) = struct.unpack("<I", view.read(4))
            name = view.read(nlen).decode("utf-8")
            (rank,) = struct.unpack("<I", view.read(4))
            dims = struct.unpack(f"<{rank}I", view.read(4 * rank))
            n = int(np.prod(dims)) if rank else 1
            data = np.frombuffer(view.read(8 * n), dtype="<f8").reshape(dims)
            params[name] = Tensor(data, requires_grad=True)
    except CheckpointFormatError:
        raise
    except (struct.error, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: truncated or corrupt checkpoint") from exc
    if view.read(1):
        raise CheckpointFormatError(f"{path}: trailing bytes after the last tensor")
    return TextModel(config, params=params)
