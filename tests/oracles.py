"""Deliberately naive reference implementations used only by tests.

Nothing here shares loop or projection logic with the training engine:
gradients come from central differences, the inner maximization from an
exhaustive grid, the token update from scalar per-token arithmetic, and
the single-perturbation baseline from a standalone transcription of the
K-step accumulate-and-project loop, and the synthetic labels from a
cue-word count. They certify, they do not scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tavat.tensor import Tensor, add, backward, cross_entropy_loss


@dataclass
class OracleReport:
    """One engine-vs-oracle comparison, rendered into acceptance summaries."""

    quantity: str
    engine_value: float
    oracle_value: float
    tolerance: float

    @property
    def abs_error(self) -> float:
        return abs(self.engine_value - self.oracle_value)

    @property
    def rel_error(self) -> float:
        denom = max(abs(self.engine_value), abs(self.oracle_value), 1e-300)
        return self.abs_error / denom

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance or self.rel_error <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.quantity}: engine={self.engine_value:.12g} "
            f"oracle={self.oracle_value:.12g} abs={self.abs_error:.3g} "
            f"rel={self.rel_error:.3g} tol={self.tolerance:g}"
        )


def cue_majority_oracle(tokens: list[str], classes: int = 2) -> int:
    """Bag-of-cue-words classifier used to sanity-check generated data."""
    counts = [0] * classes
    for t in tokens:
        if t.startswith("cue"):
            counts[int(t[3: t.index("_")])] += 1
    return int(np.argmax(counts))


def finite_difference_gradient(f, x: np.ndarray, coords, h: float = 1e-5) -> np.ndarray:
    """Central differences (f(x+h e) - f(x-h e)) / 2h at the given flat coords."""
    if h <= 0:
        raise ValueError("finite_difference_gradient: h must be positive")
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    estimates = np.empty(len(coords))
    for i, c in enumerate(coords):
        if not 0 <= c < flat.size:
            raise IndexError(f"coordinate {c} out of range for size {flat.size}")
        probe = flat.copy()
        probe[c] += h
        up = float(f(probe.reshape(x.shape)))
        probe[c] -= 2 * h
        down = float(f(probe.reshape(x.shape)))
        if not (math.isfinite(up) and math.isfinite(down)):
            raise FloatingPointError(f"non-finite loss at probe coordinate {c}")
        estimates[i] = (up - down) / (2 * h)
    return estimates


def ball_grid_points(epsilon: float, dims: int, pitch: float,
                     max_points: int = 10_000_000) -> np.ndarray:
    """All axis-aligned grid points with spacing ``pitch`` inside the ball.

    The guard counts the full grid before filtering; repeated scans over
    the same ball should build this once and hand it to ``grid_inner_max``.
    """
    if epsilon <= 0 or pitch <= 0:
        raise ValueError("ball_grid_points: epsilon and pitch must be positive")
    per_axis = 2 * int(round(epsilon / pitch)) + 1
    total = per_axis ** dims
    if total > max_points:
        raise ValueError(
            f"grid too large ({per_axis}^{dims} = {total} > {max_points})"
        )
    axis = (np.arange(per_axis) - (per_axis - 1) // 2) * pitch
    limit = epsilon * epsilon * (1.0 + 1e-12)
    if dims == 1:
        return axis[axis * axis <= limit][:, None]

    tail = np.stack(
        [g.reshape(-1) for g in np.meshgrid(*([axis] * (dims - 1)), indexing="ij")],
        axis=1,
    )
    tail_sq = (tail * tail).sum(axis=1)
    kept = []
    for x0 in axis:
        inside = tail_sq + x0 * x0 <= limit
        if not inside.any():
            continue
        block = np.empty((int(inside.sum()), dims))
        block[:, 0] = x0
        block[:, 1:] = tail[inside]
        kept.append(block)
    return np.concatenate(kept, axis=0)


def grid_inner_max(f, epsilon: float, dims: int, pitch: float,
                   max_points: int = 10_000_000, points: np.ndarray | None = None):
    """Exhaustive scan of an axis-aligned grid over the epsilon ball.

    ``f`` must accept an (n, dims) array of candidate perturbations and
    return n loss values. The default point budget keeps this honest about
    being a tiny-dimension certification tool; callers may raise it
    explicitly (and pass a prebuilt ``points`` grid) when they accept the
    cost of a larger scan.
    """
    if points is None:
        points = ball_grid_points(epsilon, dims, pitch, max_points)
    best_value = -np.inf
    best_point = np.zeros(dims)
    chunk = 4_000_000
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        values = np.asarray(f(block), dtype=np.float64)
        k = int(values.argmax())
        if values[k] > best_value:
            best_value = float(values[k])
            best_point = block[k].copy()
    return best_point, best_value


def token_step_reference(eta, grad, alpha, epsilon, mask, use_token_norm=True):
    """Scalar-arithmetic recomputation of one token-level update.

    Operates on a single sequence (length x dim) with explicit Python
    loops; mirrors the published update formulas, not the engine code.
    """
    eta = np.asarray(eta, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    length, dim = eta.shape
    floor = 1e-12

    def fro(v):
        return math.sqrt(float(sum(x * x for x in v.reshape(-1))))

    ascended = np.zeros_like(eta)
    for i in range(length):
        if not mask[i]:
            continue
        gnorm = fro(grad[i])
        if use_token_norm:
            step = alpha * grad[i] / gnorm if gnorm >= floor else np.zeros(dim)
        else:
            whole = fro(grad[mask])
            step = alpha * grad[i] / whole if whole >= floor else np.zeros(dim)
        ascended[i] = eta[i] + step

    if use_token_norm:
        norms = [fro(eta[i]) if mask[i] else 0.0 for i in range(length)]
        peak = max((norms[i] for i in range(length) if mask[i]), default=0.0)
        out = np.zeros_like(eta)
        for i in range(length):
            if not mask[i]:
                continue
            n_i = 1.0 if peak < floor else norms[i] / peak
            out[i] = n_i * ascended[i]
    else:
        out = np.where(mask[:, None], ascended, 0.0)

    total = fro(out[mask])
    if total > epsilon * (1.0 + 1e-12):
        out = out * (epsilon / total)
        out[~mask] = 0.0
    return out


def reference_freelb_step(model, batch, cfg, rng: np.random.Generator, lr: float):
    """Standalone single-perturbation K-step baseline.

    Initializes one perturbation, runs K ascent steps with whole-sequence
    gradient normalization and ball projection, accumulates (1/K) of the
    parameter gradient at every step, and returns the updated parameter
    arrays from one plain SGD application; no code is shared with the
    engine's step logic beyond the model's loss evaluation.
    """
    if cfg.mode != "freelb":
        raise ValueError("reference_freelb_step: cfg.mode must be 'freelb'")
    ids = batch.token_ids
    bsz, length = ids.shape
    dim = model.config.dim
    mask = batch.mask

    delta = rng.uniform(-cfg.sigma, cfg.sigma, size=(bsz, length, dim)) / math.sqrt(dim)
    delta[~mask] = 0.0

    inv_k = 1.0 / cfg.K
    accum: dict[str, np.ndarray] = {}
    losses = []
    for _ in range(cfg.K):
        x = model.embed(batch)
        d = Tensor(delta, requires_grad=True)
        logits = model.forward_from_embeddings(add(x, d), mask)
        loss = cross_entropy_loss(logits, batch.labels)
        grads = backward(loss)
        losses.append(loss.item())

        for name, p in model.params.items():
            g = grads[p]
            accum[name] = accum.get(name, 0.0) + inv_k * g

        gd = grads[d]
        gd = np.where(mask[:, :, None], gd, 0.0)
        gnorm = np.sqrt(np.sum(gd * gd, axis=(1, 2), keepdims=True))
        step = np.where(gnorm >= 1e-12, cfg.alpha * gd / np.maximum(gnorm, 1e-12), 0.0)
        delta = delta + step
        dnorm = np.sqrt(np.sum(delta * delta, axis=(1, 2), keepdims=True))
        factor = np.where(dnorm > cfg.epsilon * (1.0 + 1e-12),
                          cfg.epsilon / np.maximum(dnorm, 1e-12), 1.0)
        delta = delta * factor
        delta[~mask] = 0.0

    updated = {name: model.params[name].data - lr * g for name, g in accum.items()}
    return updated, accum, losses
