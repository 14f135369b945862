"""Perturbation algebra and the adversarial inner loop.

Two perturbations ride on the embedding output: an instance-level one
bounded by a per-example Frobenius ball, and a token-level one whose
ascent direction is normalized per token and re-scaled by each token's
share of the largest accumulated perturbation in its sequence. The
token-level table persists across batches through the perturbation
vocabulary. PGD and the single-perturbation accumulate-K baseline fall
out of the same loop as configuration reductions.

All update arithmetic here is plain float64 ndarray math; gradients
come from one tape replay per inner step, which yields the parameter,
instance, and token gradients simultaneously at the same evaluation
point.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .model import _is_int, _is_real
from .tensor import Tensor, backward
from .vocab import PerturbationVocabulary, gather, scatter

NORM_FLOOR = 1e-12
PROJECT_SLACK = 1e-12


class ConfigError(ValueError):
    """Inconsistent adversarial configuration."""


class NonFiniteGradient(FloatingPointError):
    """An inner step saw NaN/Inf; the step aborts before any state changes."""


@dataclass(frozen=True)
class SpecialTokenPolicy:
    """Which token ids may participate in the perturbation vocabulary.

    mode "exclude": listed ids are kept out (no ids means everyone
    participates); mode "include": only listed ids participate.
    """

    mode: str = "exclude"
    ids: tuple = ()

    def __post_init__(self):
        if self.mode not in ("exclude", "include"):
            raise ConfigError(f"unknown special-token policy mode {self.mode!r}")
        if (isinstance(self.ids, str) or not isinstance(self.ids, Iterable)
                or not all(_is_int(i) for i in self.ids)):
            raise ConfigError(f"special-token ids must be integers, got {self.ids!r}")
        object.__setattr__(self, "ids", tuple(sorted({int(i) for i in self.ids})))

    def permits(self, token_ids):
        """Whether each id may be written; one id gives one truth value, an array a mask."""
        listed = np.isin(token_ids, self.ids)
        return ~listed if self.mode == "exclude" else listed


@dataclass(frozen=True)
class AdvConfig:
    """Knobs of the adversarial loop; ablation switches included."""

    epsilon: float = 0.1
    sigma: float = 0.01
    alpha: float = 0.03
    K: int = 3
    use_vocab: bool = True
    use_token_norm: bool = True
    special_token_policy: SpecialTokenPolicy = field(default_factory=SpecialTokenPolicy)
    mode: str = "tavat"                    # "tavat" | "freelb" | "pgd"

    def __post_init__(self):
        for name in ("epsilon", "sigma", "alpha"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value):
                raise ConfigError(f"{name} must be a finite real number, got {value!r}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be positive, got {self.alpha}")
        if not _is_int(self.K) or self.K < 1:
            raise ConfigError(f"K must be a positive integer, got {self.K!r}")
        for name in ("use_vocab", "use_token_norm"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.mode not in ("tavat", "freelb", "pgd"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode in ("freelb", "pgd") and self.eta_active:
            raise ConfigError(f"mode={self.mode} requires use_vocab=False and use_token_norm=False")

    # delta and eta share one epsilon ball. bench/harness.py reads eta's
    # radius by this name until the benchmark reads ``epsilon`` instead.
    @property
    def eta_bound(self) -> float:
        return self.epsilon

    @property
    def eta_active(self) -> bool:
        # With both token-level features off the loop collapses to the
        # single-perturbation baseline: only delta remains.
        return self.use_vocab or self.use_token_norm


@dataclass
class AccumulatedGradient:
    """Running parameter-gradient sum over the inner steps.

    A table's entry stays a ``RowGradient``; the optimizer takes it as it is.
    """

    sums: dict = field(default_factory=dict)

    def add(self, named_grads, weight: float) -> None:
        for name, g in named_grads:
            if name in self.sums:
                # in place for an ndarray; a RowGradient's rows are summed anew
                self.sums[name] += weight * g
            else:
                self.sums[name] = 0.0 + weight * g

    def replace(self, named_grads) -> None:
        # kept as they are: backward and the optimizers only read a gradient
        self.sums = dict(named_grads)


@dataclass
class StepReport:
    """One batch step's K inner-step losses and final perturbations;
    ``eta`` is None when both token-level features are off."""

    losses: list
    delta: np.ndarray
    eta: np.ndarray | None


def example_norms(p: np.ndarray) -> np.ndarray:
    """Frobenius norm of each sequence, over the trailing (length, dim) axes."""
    return np.sqrt(np.sum(p * p, axis=(-2, -1)))


def init_delta(shape, sigma: float, mask: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Uniform(-sigma, sigma)/sqrt(dim) draw with padded rows zeroed."""
    if sigma < 0:
        raise ConfigError(f"sigma must be non-negative, got {sigma}")
    dim = shape[-1]
    out = rng.uniform(-sigma, sigma, size=tuple(shape)) / math.sqrt(dim)
    out[~np.asarray(mask, dtype=bool)] = 0.0
    return out


def project_frobenius(p: np.ndarray, epsilon: float) -> np.ndarray:
    """Scale each sequence outside the epsilon ball onto its surface.

    ``p`` is one sequence (length, dim) or a batch (batch, length, dim).
    Sequences inside the ball keep their values; when none lies outside,
    ``p`` itself comes back.
    """
    if epsilon <= 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    norms = example_norms(p)[..., None, None]
    outside = norms > epsilon * (1.0 + PROJECT_SLACK)
    if not outside.any():
        return p
    return p * np.where(outside, epsilon / np.maximum(norms, NORM_FLOOR), 1.0)


def scaling_index(eta: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each token's perturbation norm over the largest one in its sequence.

    ``eta`` is one sequence (length, dim) with a (length,) mask, or a
    batch (batch, length, dim) with a (batch, length) mask. Padded
    positions get 0. When every norm of a sequence sits below the floor
    its unpadded indices all get 1, so a cold-start ascent step survives
    the rescale.
    """
    mask = np.asarray(mask, dtype=bool)
    norms = np.sqrt(np.sum(eta * eta, axis=-1))
    peak = np.max(np.where(mask, norms, 0.0), axis=-1, keepdims=True)
    n = np.where(peak < NORM_FLOOR, 1.0, norms / np.maximum(peak, NORM_FLOOR))
    return np.where(mask, n, 0.0)


def _check_finite(what: str, arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(arr.size - finite.sum())
        raise NonFiniteGradient(f"{what} has {bad} non-finite entries; aborting")


def _normalized_ascent(grad: np.ndarray, mask: np.ndarray, alpha: float, axis) -> np.ndarray:
    """alpha times the unpadded gradient over its norm along ``axis``; 0 below the floor."""
    g = np.where(mask[:, :, None], grad, 0.0)
    gnorm = np.sqrt(np.sum(g * g, axis=axis, keepdims=True))
    return np.where(gnorm >= NORM_FLOOR, alpha * g / np.maximum(gnorm, NORM_FLOOR), 0.0)


def _project_unpadded(p: np.ndarray, epsilon: float, mask: np.ndarray) -> np.ndarray:
    """Ball projection per sequence, then padded rows set to exactly zero."""
    out = project_frobenius(p, epsilon)
    out[~mask] = 0.0
    return out


def token_step(eta: np.ndarray, grad_eta: np.ndarray, alpha: float, epsilon: float,
               mask: np.ndarray, use_token_norm: bool = True, _step: int = 0) -> np.ndarray:
    """One ascent step of the token-level perturbation.

    Per-token normalized gradient step, rescale by the scaling index
    computed from the pre-step perturbation, then whole-sequence ball
    projection. With use_token_norm off the gradient is normalized over
    the whole sequence and no rescale happens.
    """
    mask = np.asarray(mask, dtype=bool)
    _check_finite(f"grad_eta at inner step {_step}", grad_eta)
    if use_token_norm:
        ascended = eta + _normalized_ascent(grad_eta, mask, alpha, -1)
        n = scaling_index(eta, mask)
        new = n[:, :, None] * ascended
    else:
        new = eta + _normalized_ascent(grad_eta, mask, alpha, (-2, -1))
    return _project_unpadded(new, epsilon, mask)


def instance_step(delta: np.ndarray, grad_delta: np.ndarray, alpha: float,
                  epsilon: float, mask: np.ndarray, _step: int = 0) -> np.ndarray:
    """One whole-sequence-normalized ascent step with ball projection."""
    mask = np.asarray(mask, dtype=bool)
    _check_finite(f"grad_delta at inner step {_step}", grad_delta)
    new = delta + _normalized_ascent(grad_delta, mask, alpha, (-2, -1))
    return _project_unpadded(new, epsilon, mask)


def tavat_batch_step(model, batch, vocab: PerturbationVocabulary | None,
                     cfg: AdvConfig, optimizer, rng: np.random.Generator) -> StepReport:
    """One full batch step: init, K ascent steps, vocabulary and parameter update.

    Parameters and vocabulary are only mutated after the whole inner loop
    has completed and the accumulated parameter gradient has been checked,
    so a non-finite abort leaves both (and the optimizer state) untouched.
    """
    if batch.size == 0:
        raise ValueError("empty batch")
    if cfg.use_vocab and vocab is None:
        raise ConfigError("use_vocab=True needs a perturbation vocabulary")

    ids = batch.token_ids
    mask = batch.mask
    bsz, length = ids.shape
    dim = model.config.dim
    shape = (bsz, length, dim)

    delta = init_delta(shape, cfg.sigma, mask, rng)
    eta = None
    if cfg.eta_active:
        eta = (gather(vocab, ids, mask) if cfg.use_vocab
               else init_delta(shape, cfg.sigma, mask, rng))

    accum = AccumulatedGradient()
    inv_k = 1.0 / cfg.K
    losses: list[float] = []

    # parameters move only after the loop, so one embedding serves all K steps
    x = model.embed(batch)
    for t in range(cfg.K):
        dt = Tensor(delta, requires_grad=True)
        perturbed = T.add(x, dt)
        if cfg.eta_active:
            et = Tensor(eta, requires_grad=True)
            perturbed = T.add(perturbed, et)

        logits = model.forward_from_embeddings(perturbed, mask)
        loss = model.loss(logits, batch)
        value = loss.item()
        if not math.isfinite(value):
            raise NonFiniteGradient(f"loss is non-finite at inner step {t}; aborting")
        grads = backward(loss)
        # the map holds only leaf gradients, so this frees step t's tape
        # before step t + 1 records its own
        del logits, loss, perturbed
        losses.append(value)

        named = ((name, grads[p]) for name, p in model.params.items())
        if cfg.mode == "pgd":
            accum.replace(named)
        else:
            accum.add(named, inv_k)

        if cfg.eta_active:
            eta = token_step(eta, grads[et], cfg.alpha, cfg.epsilon, mask,
                             use_token_norm=cfg.use_token_norm, _step=t)
        delta = instance_step(delta, grads[dt], cfg.alpha, cfg.epsilon, mask, _step=t)
        del grads       # before step t + 1's backward builds the next map

    for name, g in accum.sums.items():
        _check_finite(f"accumulated gradient of {name}",
                      g.values if isinstance(g, T.RowGradient) else g)
    if cfg.use_vocab:
        scatter(vocab, ids, mask, eta, special_token_policy=cfg.special_token_policy,
                epsilon=cfg.epsilon)
    optimizer.step(model.params, accum.sums)

    return StepReport(losses=losses, delta=delta, eta=eta)
