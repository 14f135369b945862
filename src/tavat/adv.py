"""Perturbation algebra and the adversarial inner loop.

Two perturbations ride on the embedding output: an instance-level one
bounded by a per-example Frobenius ball, and a token-level one whose
ascent direction is normalized per token and re-scaled by each token's
share of the largest accumulated perturbation in its sequence. The
token-level one persists across batches in the perturbation vocabulary,
whose rows are drawn and held to the epsilon ball by the same formulas.
PGD and the single-perturbation accumulate-K baseline fall out of the
same loop as configuration reductions.

All update arithmetic here is plain float64 ndarray math; gradients
come from one tape replay per inner step, which yields the parameter
gradients and the one perturbation gradient, which both perturbations
step on, at the same evaluation point.
"""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import PAD
from .model import ConfigError, _check_bools, _check_ints, _is_int, _is_real
from .tensor import Packed, Tensor, _check_ids, backward, row_summer
from .vocab import PerturbationVocabulary

NORM_FLOOR = 1e-12
PROJECT_SLACK = 1e-12


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
        _check_ints(self, (("K", 1),))
        _check_bools(self, ("use_vocab", "use_token_norm"))
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


class AccumulatedGradient:
    """Running parameter-gradient sum over the inner steps, as one ``Packed``.

    The gradients of the parameters named in ``layout``, a model's
    ``dense.layout``, go into the sum's flat buffer, so the sum, the finite
    check and the optimizer's update each run once over it. A lookup table's
    gradient sums by name; a RowGradient stays one, which the optimizer takes
    as it is.
    """

    def __init__(self, layout):
        self.layout = tuple(layout)
        self.sums = Packed(self.layout)

    def _split(self, named_grads) -> tuple[np.ndarray, dict]:
        """The packed names' gradients as one flat array, and the rest by name."""
        rest = dict(named_grads)
        return np.concatenate([rest.pop(name).reshape(-1) for name, _ in self.layout]), rest

    def add(self, named_grads, weight: float) -> None:
        # s + w * g for every gradient; from the sums' +0.0, the first is 0.0 + w * g
        terms, rest = self._split(named_grads)
        terms *= weight
        self.sums.flat += terms
        for name, g in rest.items():
            self.sums[name] = self.sums.get(name, 0.0) + weight * g

    def replace(self, named_grads) -> None:
        # the gradients as they are: backward and the optimizers only read them
        terms, rest = self._split(named_grads)
        self.sums = Packed(self.layout, terms)
        self.sums.update(rest)

    def check_finite(self, names) -> None:
        """Raise NonFiniteGradient naming the first of ``names`` whose sum has
        a NaN or an infinity."""
        # one pass clears every packed name; only a failing one reads them by name
        cleared = {name for name, _ in self.layout} if np.isfinite(self.sums.flat).all() else ()
        for name in names:
            if name not in cleared:
                g = self.sums[name]
                _check_finite(f"accumulated gradient of {name}",
                              g.values if isinstance(g, T.RowGradient) else g)


@dataclass
class StepReport:
    """One batch step's K inner-step losses and final perturbations;
    ``eta`` is None when both token-level features are off."""

    losses: list
    delta: np.ndarray
    eta: np.ndarray | None


def example_norms(p: np.ndarray, axis=(-2, -1), keepdims: bool = False) -> np.ndarray:
    """Euclidean norm along ``axis``: by default each sequence's Frobenius
    norm, over the trailing (length, dim) axes."""
    return np.sqrt(np.sum(p * p, axis=axis, keepdims=keepdims))


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
    norms = example_norms(p, keepdims=True)
    outside = norms > epsilon * (1.0 + PROJECT_SLACK)
    if not outside.any():
        return p
    return p * np.where(outside, epsilon / np.maximum(norms, NORM_FLOOR), 1.0)


def init_vocabulary(n: int, d: int, sigma: float, rng: np.random.Generator,
                    meta: dict | None = None) -> PerturbationVocabulary:
    """An n x d table drawn as ``init_delta`` draws, with the padding row zeroed."""
    if n <= 0 or d <= 0:
        raise ValueError("vocabulary dimensions must be positive")
    table = init_delta((n, d), sigma, np.arange(n) != PAD, rng)
    return PerturbationVocabulary(table=table, meta={"sigma": sigma, "steps_seen": 0,
                                                     **(meta or {})})


def gather(vocab: PerturbationVocabulary, token_ids: np.ndarray,
           mask: np.ndarray) -> np.ndarray:
    """Per-position rows of the table; padded positions come back zero."""
    ids = np.asarray(token_ids)
    _check_ids("gather", ids, vocab.vocab_size)
    out = vocab.table[ids]             # integer-array indexing copies
    out[~np.asarray(mask, dtype=bool)] = 0.0
    return out


def scatter(vocab: PerturbationVocabulary, token_ids: np.ndarray, mask: np.ndarray,
            eta_final: np.ndarray, *, special_token_policy,
            epsilon: float) -> PerturbationVocabulary:
    """Write final perturbation slices back by token id.

    Repeated ids within the batch are averaged; the padding row and any
    policy-excluded ids are never touched. Each written row is projected
    onto the epsilon ball, as ``project_frobenius`` projects a sequence.
    """
    ids = np.asarray(token_ids).reshape(-1)
    _check_ids("scatter", ids, vocab.vocab_size)
    mask = np.asarray(mask, dtype=bool).reshape(-1)
    slices = np.asarray(eta_final).reshape(-1, vocab.dim)

    keep = mask & (ids != PAD) & special_token_policy.permits(ids)
    if not keep.any():
        return vocab

    rows, slot = np.unique(ids[keep], return_inverse=True)
    sums = row_summer(slot, rows.size, vocab.dim)(slices[keep])
    means = sums / np.bincount(slot)[:, None]
    # each row is a one-token sequence to the ball projection
    vocab.table[rows] = project_frobenius(means[:, None, :], epsilon)[:, 0]
    vocab.meta["steps_seen"] = vocab.meta.get("steps_seen", 0) + 1
    return vocab


def scaling_index(eta: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Each token's perturbation norm over the largest one in its sequence.

    ``eta`` is one sequence (length, dim) with a (length,) mask, or a
    batch (batch, length, dim) with a (batch, length) mask. Padded
    positions get 0. When every norm of a sequence sits below the floor
    its unpadded indices all get 1, so a cold-start ascent step survives
    the rescale.
    """
    mask = np.asarray(mask, dtype=bool)
    norms = example_norms(eta, axis=-1)
    peak = np.max(np.where(mask, norms, 0.0), axis=-1, keepdims=True)
    n = np.where(peak < NORM_FLOOR, 1.0, norms / np.maximum(peak, NORM_FLOOR))
    return np.where(mask, n, 0.0)


def _check_finite(what: str, arr: np.ndarray) -> None:
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(arr.size - finite.sum())
        raise NonFiniteGradient(f"{what} has {bad} non-finite entries; aborting")


def _ascend(p: np.ndarray, grad: np.ndarray, alpha: float, epsilon: float,
            mask: np.ndarray, per_token: bool, what: str) -> np.ndarray:
    """One normalized ascent step, then the ball projection with padded rows zero.

    The unpadded gradient is normalized per token and the result rescaled
    by the scaling index of the pre-step ``p`` when ``per_token``, else
    normalized over the whole sequence; a norm below the floor gives no step.
    """
    mask = np.asarray(mask, dtype=bool)
    _check_finite(what, grad)
    g = np.where(mask[:, :, None], grad, 0.0)
    gnorm = example_norms(g, axis=-1 if per_token else (-2, -1), keepdims=True)
    new = p + np.where(gnorm >= NORM_FLOOR, alpha * g / np.maximum(gnorm, NORM_FLOOR), 0.0)
    if per_token:
        new = scaling_index(p, mask)[:, :, None] * new
    out = project_frobenius(new, epsilon)
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
    return _ascend(eta, grad_eta, alpha, epsilon, mask, use_token_norm,
                   f"grad_eta at inner step {_step}")


def instance_step(delta: np.ndarray, grad_delta: np.ndarray, alpha: float,
                  epsilon: float, mask: np.ndarray, _step: int = 0) -> np.ndarray:
    """One whole-sequence-normalized ascent step with ball projection."""
    return _ascend(delta, grad_delta, alpha, epsilon, mask, False,
                   f"grad_delta at inner step {_step}")


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

    accum = AccumulatedGradient(model.dense.layout)
    inv_k = 1.0 / cfg.K
    losses: list[float] = []

    # parameters move only after the loop, so one embedding serves all K steps
    x = model.embed(batch)
    for t in range(cfg.K):
        dt = Tensor(delta, requires_grad=True)
        perturbed = T.add(x, dt)
        if cfg.eta_active:
            # untracked: x + delta + eta gives eta delta's gradient, which both steps read
            perturbed = T.add(perturbed, Tensor(eta))

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
            eta = token_step(eta, grads[dt], cfg.alpha, cfg.epsilon, mask,
                             use_token_norm=cfg.use_token_norm, _step=t)
        delta = instance_step(delta, grads[dt], cfg.alpha, cfg.epsilon, mask, _step=t)
        del grads       # before step t + 1's backward builds the next map

    accum.check_finite(model.params)
    if cfg.use_vocab:
        scatter(vocab, ids, mask, eta, special_token_policy=cfg.special_token_policy,
                epsilon=cfg.epsilon)
    optimizer.step(model, accum.sums)

    return StepReport(losses=losses, delta=delta, eta=eta)
