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
from pathlib import Path

import numpy as np

from . import container
from . import tensor as T
from .tensor import Tensor


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


class ConfigError(ValueError):
    """A configuration value, or a combination of them, that a run refuses."""


def require_file(path, parent: bool = False) -> None:
    """Raise ConfigError unless ``path`` is a file or, with ``parent``, could be
    made one: no directory, in a directory that exists."""
    if Path(path).is_dir():
        raise ConfigError(f"{path}: a directory, not a file")
    if not (Path(path).parent.is_dir() if parent else Path(path).is_file()):
        raise ConfigError(f"{path}: no such file")


def read_utf8(path, error: type[ValueError]) -> str:
    """The text of ``path``; a byte that is not UTF-8 raises ``error`` naming
    its line and its value."""
    raw = Path(path).read_bytes()
    # decoded whole: a stream decodes in chunks, so its error can name an earlier line
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: byte {raw[exc.start]:#04x} is not UTF-8") from None


def require_directory(path) -> None:
    """Raise ConfigError naming the first of ``path`` and its parents that
    exists but is not a directory, so ``path`` could be made one."""
    for part in reversed((Path(path), *Path(path).parents)):
        if part.exists() and not part.is_dir():
            raise ConfigError(f"{part}: not a directory")


def _check_ints(config, least_by_name) -> None:
    """Raise ConfigError unless each named field is an integer no less than its bound."""
    for name, least in least_by_name:
        value = getattr(config, name)
        if not _is_int(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ConfigError(f"{name} must be at least {least}, got {value}")


def _check_bools(config, names) -> None:
    """Raise ConfigError unless each named field is True or False."""
    for name in names:
        if not isinstance(getattr(config, name), bool):
            raise ConfigError(f"{name} must be true or false, got {getattr(config, name)!r}")


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
            raise ConfigError(f"unknown head kind {self.head!r}")
        if self.dim % self.heads:
            raise ConfigError(f"dim {self.dim} not divisible by heads {self.heads}")


MASK_FILL_VALUE = -1e9
# the parameters read through embedding_lookup, whose gradients are RowGradients
LOOKUP_TABLES = ("embedding.weight", "positional.weight")


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


def _draw(rng: np.random.Generator, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh parameter's initial values."""
    if name == "embedding.weight":
        # token rows land near unit norm, the regime the perturbation
        # bounds are calibrated against
        bound = math.sqrt(3.0 / shape[1])
        data = rng.uniform(-bound, bound, size=shape)
        data[0] = 0.0
        return data
    if name == "positional.weight":
        return rng.uniform(-0.1, 0.1, size=shape)
    if name.endswith(".weight"):
        fan_in, fan_out = shape
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-bound, bound, size=shape)
    return np.ones(shape) if name.endswith(".gain") else np.zeros(shape)


class TextModel:
    """Embedding table + encoder + head, all parameters in one named map.

    The parameters are drawn from ``rng`` in ``param_shapes`` order, or copied
    from ``params``, arrays by name. Either way the dense ones (all but the
    lookup tables) are views of one flat buffer, ``dense``, so an optimizer
    updates them in one pass.
    """

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None,
                 params: dict[str, np.ndarray] | None = None):
        if params is None and rng is None:
            raise ValueError("TextModel needs an rng or explicit params")
        self.config = config
        shapes = list(param_shapes(config))
        self.dense = T.Packed((name, shape) for name, shape in shapes
                              if name not in LOOKUP_TABLES)
        self.params: dict[str, Tensor] = {}
        for name, shape in shapes:
            data = _draw(rng, name, shape) if params is None else params[name]
            if name in self.dense:
                self.dense[name][...] = data
                data = self.dense[name]
            elif params is not None:
                data = np.array(data, dtype=np.float64)
            self.params[name] = Tensor(data, requires_grad=True)

    def set_embedding(self, weights: np.ndarray) -> None:
        """Replace the N x D embedding weights (row 0 is padding) with a copy."""
        current = self.params["embedding.weight"]
        if weights.shape != current.shape:
            raise T.ShapeError(
                f"embedding shape mismatch: model {current.shape}, new {weights.shape}")
        self.params["embedding.weight"] = Tensor(weights.copy(), requires_grad=True)

    def snapshot(self) -> "TextModel":
        return TextModel(self.config, params={name: p.data for name, p in self.params.items()})

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
    params: dict[str, np.ndarray] = {}
    for _ in range(reader.u32()):
        name = reader.text()
        params[name] = reader.f8(reader.u32s(reader.u32()))
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
    # each parameter is copied once, from the file's bytes to its place in the model
    return TextModel(config, params=params)
