"""Small text classifier with a perturbation injection point.

The encoder runs entirely on the autodiff tensors: an embedding lookup,
zero or more transformer blocks, and either a pooled classification
head or a per-token tagging head. Perturbations are added to the
embedding output before the encoder, so ``forward_from_embeddings`` is
the seam the adversarial loop drives.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass, asdict
from itertools import islice

import numpy as np

from . import container
from . import tensor as T
from .tensor import Tensor


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_ints(config, least_by_name) -> None:
    """Raise ValueError unless each named field is an integer no less than its bound."""
    for name, least in least_by_name:
        value = getattr(config, name)
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _check_bools(config, names) -> None:
    """Raise ValueError unless each named field is True or False."""
    for name in names:
        if not isinstance(getattr(config, name), bool):
            raise ValueError(f"{name} must be true or false, got {getattr(config, name)!r}")


@dataclass
class ModelConfig:
    vocab_size: int
    dim: int = 64
    blocks: int = 2
    heads: int = 4
    ffn_dim: int | None = None
    max_len: int = 64
    classes: int = 2
    head: str = "classification"          # "classification" | "tagging"
    use_positional: bool = False

    def __post_init__(self):
        if self.ffn_dim is None and _is_int(self.dim):
            self.ffn_dim = 4 * self.dim
        _check_ints(self, (("vocab_size", 1), ("dim", 1), ("blocks", 0), ("heads", 1),
                           ("ffn_dim", 1), ("max_len", 1), ("classes", 1)))
        _check_bools(self, ("use_positional",))
        if self.head not in ("classification", "tagging"):
            raise ValueError(f"unknown head kind {self.head!r}")
        if self.dim % self.heads:
            raise ValueError(f"dim {self.dim} not divisible by heads {self.heads}")


MASK_FILL_VALUE = -1e9


def param_shapes(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every parameter's name and shape, in the order initialization draws them."""
    def linear(name, fan_in, fan_out):
        yield f"{name}.weight", (fan_in, fan_out)
        yield f"{name}.bias", (fan_out,)

    def norm(name):
        yield f"{name}.gain", (cfg.dim,)
        yield f"{name}.bias", (cfg.dim,)

    yield "embedding.weight", (cfg.vocab_size, cfg.dim)
    if cfg.use_positional:
        yield "positional.weight", (cfg.max_len, cfg.dim)
    for b in range(cfg.blocks):
        for proj in ("wq", "wk", "wv", "wo"):
            yield from linear(f"block{b}.attn.{proj}", cfg.dim, cfg.dim)
        yield from norm(f"block{b}.ln1")
        yield from linear(f"block{b}.ffn.w1", cfg.dim, cfg.ffn_dim)
        yield from linear(f"block{b}.ffn.w2", cfg.ffn_dim, cfg.dim)
        yield from norm(f"block{b}.ln2")
    yield from linear("head", cfg.dim, cfg.classes)


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

    def _init_params(self, rng: np.random.Generator) -> dict[str, Tensor]:
        cfg = self.config
        params: dict[str, Tensor] = {}
        for name, shape in param_shapes(cfg):
            if name == "embedding.weight":
                # token rows land near unit norm, the regime the perturbation
                # bounds are calibrated against
                bound = math.sqrt(3.0 / cfg.dim)
                data = rng.uniform(-bound, bound, size=shape)
                data[0] = 0.0
            elif name == "positional.weight":
                data = rng.uniform(-0.1, 0.1, size=shape)
            elif name.endswith(".weight"):
                fan_in, fan_out = shape
                bound = math.sqrt(6.0 / (fan_in + fan_out))
                data = rng.uniform(-bound, bound, size=shape)
            elif name.endswith(".gain"):
                data = np.ones(shape)
            else:
                data = np.zeros(shape)
            params[name] = Tensor(data, requires_grad=True)
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

    def _linear(self, x: Tensor, name: str) -> Tensor:
        return T.matmul(x, self.params[f"{name}.weight"], self.params[f"{name}.bias"])

    def _attention(self, h: Tensor, mask: np.ndarray, b: int) -> Tensor:
        q, k, v = (self._linear(h, f"block{b}.attn.{proj}") for proj in ("wq", "wk", "wv"))
        ctx = T.attention(q, k, v, mask, self.config.heads, MASK_FILL_VALUE)
        return self._linear(ctx, f"block{b}.attn.wo")

    def forward_from_embeddings(self, x: Tensor, mask: np.ndarray) -> Tensor:
        """Logits from (possibly perturbed) embeddings; padded positions are inert."""
        cfg = self.config
        mask = np.asarray(mask, dtype=bool)
        if x.ndim != 3 or x.shape[-1] != cfg.dim or x.shape[:2] != mask.shape:
            raise T.ShapeError(
                f"forward_from_embeddings: embeddings {x.shape} vs mask {mask.shape}, dim {cfg.dim}")
        p = self.params
        h = x
        for b in range(cfg.blocks):
            h = T.layer_norm(self._attention(h, mask, b), p[f"block{b}.ln1.gain"],
                             p[f"block{b}.ln1.bias"], residual=h)
            ff = self._linear(T.relu(self._linear(h, f"block{b}.ffn.w1")), f"block{b}.ffn.w2")
            h = T.layer_norm(ff, p[f"block{b}.ln2.gain"], p[f"block{b}.ln2.bias"], residual=h)

        if cfg.head == "tagging":
            return self._linear(h, "head")

        kept = T.mask_fill(h, mask[:, :, None], 0.0)
        pooled = T.reduce_sum(kept, axis=1)
        inv_len = (1.0 / mask.sum(axis=1))[:, None]
        pooled = T.scale(pooled, inv_len)
        return self._linear(pooled, "head")

    def forward(self, batch) -> Tensor:
        return self.forward_from_embeddings(self.embed(batch), batch.mask)

    def loss(self, logits: Tensor, batch) -> Tensor:
        if self.config.head == "tagging":
            return T.cross_entropy_loss(logits, batch.labels, mask=batch.mask)
        return T.cross_entropy_loss(logits, batch.labels)

    def predict(self, batch) -> np.ndarray:
        return np.argmax(self.forward(batch).data, axis=-1)


CHECKPOINT_MAGIC = b"TAVM"
CHECKPOINT_VERSION = 1


class CheckpointFormatError(ValueError):
    """Corrupt, truncated, mis-versioned, over-long or mismatched model checkpoint."""


def save_checkpoint(model: TextModel, path) -> None:
    """Binary checkpoint: magic, version, hyperparameter block, named tensors."""
    fields = [container.json_object(asdict(model.config)), container.u32(len(model.params))]
    for name, p in model.params.items():
        fields += [container.text(name), container.u32(p.ndim, *p.shape), container.f8(p.data)]
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, fields)


def load_checkpoint(path) -> TextModel:
    """The model in ``path``; its tensor table must be the one its hyperparameters imply."""
    reader = container.Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                              CheckpointFormatError, "checkpoint")
    hyper = reader.json_object()
    params: dict[str, Tensor] = {}
    for _ in range(reader.u32()):
        name = reader.text()
        params[name] = Tensor(reader.f8(reader.u32s(reader.u32())), requires_grad=True)
    reader.end()
    # older files also name the encoder and a dropout rate and seed, which
    # touch neither the saved parameters nor predictions
    if hyper.pop("encoder", "transformer") != "transformer":
        raise CheckpointFormatError(f"{path}: only the transformer encoder is supported")
    hyper.pop("dropout", None)
    hyper.pop("dropout_seed", None)
    try:
        config = ModelConfig(**hyper)
        # no more names than the table holds, so a crafted block count stays cheap
        expected = dict(islice(param_shapes(config), len(params) + 1))
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"{path}: bad hyperparameter block: {exc}") from exc
    if {name: p.shape for name, p in params.items()} != expected:
        raise CheckpointFormatError(
            f"{path}: tensor table does not match the hyperparameter block")
    return TextModel(config, params=params)
