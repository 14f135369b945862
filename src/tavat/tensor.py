"""Dense float64 tensors with reverse-mode automatic differentiation.

The tape is dynamic: every op that sees a tracked input links its output
back to the inputs through a vjp closure, and ``backward`` replays the
graph once in reverse topological order. Graphs are rebuilt on every
forward pass, which is what the adversarial inner loop needs (the same
parameters are re-evaluated K times per batch with mutated inputs).

Broadcasting is deliberately narrow: the second operand of ``add``/``mul``
may be a trailing-shape suffix of the first (bias over leading batch
dims); anything else is a shape error. ``scale`` multiplies by a
constant (scalar or plain ndarray) that never receives a gradient.
"""
from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's contract."""


class GraphError(RuntimeError):
    """Backward called on something that is not a differentiable scalar."""


class Tensor:
    """A dense float64 array plus its links into the tape.

    Intermediate results produced from tracked inputs are themselves
    tracked so gradients can flow through them. A tensor holds no
    gradient: ``backward`` returns them all in one map.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_op")

    # Read-only: no slot backs it, so assigning ``.grad`` raises
    # AttributeError. bench/tracing.py sums it as
    # ``tensor.backward.grad_bytes`` until that metric leaves the benchmark.
    grad = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjp = None
        self._op: str | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        op = f", op={self._op}" if self._op else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{op})"


def _track(out_data, parents, vjp, op) -> Tensor:
    """Wrap an op result, recording the graph node if any input is tracked."""
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
        out._op = op
    return out


def topo_order(root: Tensor) -> list[Tensor]:
    """Nodes reachable from ``root``, every tensor after all of its parents."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate d(loss)/d(tensor) to every tracked tensor under ``loss``.

    Returns the gradient map keyed by tensor identity. The map is the
    only output: no tensor is written to, so repeated calls return equal
    maps.
    """
    if loss.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss._parents:
        raise GraphError("backward on a tensor with no recorded operations")

    order = topo_order(loss)
    adjoint: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    for node in reversed(order):
        out_adj = adjoint.get(node)
        if out_adj is None or node._vjp is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(out_adj)):
            if contrib is None or not parent.requires_grad:
                continue
            prev = adjoint.get(parent)
            adjoint[parent] = contrib if prev is None else prev + contrib
    return adjoint


def _suffix_check(op: str, a: Tensor, b: Tensor) -> bool:
    """True if b broadcasts as a trailing suffix of a; raises otherwise."""
    if a.shape == b.shape:
        return False
    if b.ndim < a.ndim and a.shape[a.ndim - b.ndim:] == b.shape:
        return True
    raise ShapeError(f"{op}: cannot combine shapes {a.shape} and {b.shape}")


def _sum_to_suffix(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    lead = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(lead))) if lead else grad


def add(a: Tensor, b: Tensor) -> Tensor:
    broadcast = _suffix_check("add", a, b)
    out = a.data + b.data

    def vjp(g):
        return g, _sum_to_suffix(g, b.shape) if broadcast else g

    return _track(out, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    broadcast = _suffix_check("mul", a, b)
    out = a.data * b.data

    def vjp(g):
        ga = g * b.data
        gb = g * a.data
        return ga, _sum_to_suffix(gb, b.shape) if broadcast else gb

    return _track(out, (a, b), vjp, "mul")


def scale(a: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or ndarray; the constant gets no gradient."""
    c = np.asarray(c, dtype=np.float64)
    out = a.data * c
    if out.shape != a.shape:
        raise ShapeError(f"scale: constant of shape {c.shape} does not preserve {a.shape}")

    def vjp(g):
        return (g * c,)

    return _track(out, (a,), vjp, "scale")


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0.0)

    def vjp(g):
        return (g * (a.data > 0.0),)

    return _track(out, (a,), vjp, "relu")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Contract the last axis of a with the second-to-last of b.

    Supported: 2-D b shared across a's leading dims, or fully batched
    operands with identical leading dims.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        if b.ndim == 2:
            k = a.shape[-1]
            n = b.shape[-1]
            gb = np.matmul(a.data.reshape(-1, k).T, g.reshape(-1, n))
        else:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return ga, gb

    return _track(out, (a, b), vjp, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return _track(out, (a,), vjp, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out = a.data.transpose(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return _track(out, (a,), vjp, "transpose")


def reduce_sum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a.shape).copy(),)

    return _track(out, (a,), vjp, "sum")


LAYER_NORM_VAR_FLOOR = 1e-12


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis; constant rows map to zeros (variance floored)."""
    dim = a.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm: affine shapes {gain.shape}/{bias.shape} do not match last dim {dim}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    active = var > LAYER_NORM_VAR_FLOOR
    std = np.sqrt(np.maximum(var, LAYER_NORM_VAR_FLOOR))
    y = centered / std
    out = y * gain.data + bias.data

    def vjp(g):
        dgain = (g * y).reshape(-1, dim).sum(axis=0)
        dbias = g.reshape(-1, dim).sum(axis=0)
        dy = g * gain.data
        mean_dy = dy.mean(axis=-1, keepdims=True)
        mean_dyy = (dy * y).mean(axis=-1, keepdims=True)
        da = (dy - mean_dy - np.where(active, y * mean_dyy, 0.0)) / std
        return da, dgain, dbias

    return _track(out, (a, gain, bias), vjp, "layer_norm")


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - inner),)

    return _track(y, (a,), vjp, "softmax")


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an N x D table; gradient scatter-adds back by id."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding_lookup: ids must be integers")
    n = table.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(
            f"embedding_lookup: token id out of range [0, {n}): "
            f"min={ids.min()}, max={ids.max()}"
        )
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids, g)
        return (gt,)

    return _track(out, (table,), vjp, "embedding_lookup")


def mask_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Keep entries where the boolean mask is true, fill the rest with value.

    The mask is a plain ndarray broadcastable to a's shape; filled
    positions get zero gradient.
    """
    mask = np.asarray(mask, dtype=bool)
    try:
        out = np.where(mask, a.data, value)
    except ValueError as exc:
        raise ShapeError(f"mask_fill: mask {mask.shape} does not broadcast to {a.shape}") from exc
    if out.shape != a.shape:
        raise ShapeError(f"mask_fill: mask {mask.shape} does not broadcast to {a.shape}")

    def vjp(g):
        return (np.where(mask, g, 0.0),)

    return _track(out, (a,), vjp, "mask_fill")


def cross_entropy_loss(logits: Tensor, labels: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean negative log-softmax of the true class.

    ``logits`` is batch x classes with int labels per example, or
    batch x length x classes with per-token labels plus a padding mask;
    masked positions are excluded from both the mean and the gradient.
    """
    labels = np.asarray(labels)
    classes = logits.shape[-1]
    flat_logits = logits.data.reshape(-1, classes)
    flat_labels = labels.reshape(-1)
    if flat_labels.shape[0] != flat_logits.shape[0]:
        raise ShapeError(
            f"cross_entropy_loss: {labels.shape} labels do not match logits {logits.shape}"
        )
    if mask is None:
        keep = np.ones(flat_labels.shape[0], dtype=bool)
    else:
        keep = np.asarray(mask, dtype=bool).reshape(-1)
    checked = flat_labels[keep]
    if checked.size == 0:
        raise ShapeError("cross_entropy_loss: no unmasked positions")
    if checked.min() < 0 or checked.max() >= classes:
        raise IndexError(
            f"cross_entropy_loss: label out of range [0, {classes}): "
            f"min={checked.min()}, max={checked.max()}"
        )

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - lse
    rows = np.arange(flat_labels.shape[0])
    safe_labels = np.where(keep, flat_labels, 0)
    nll = -logp[rows, safe_labels]
    count = float(keep.sum())
    out = np.asarray((nll * keep).sum() / count)

    def vjp(g):
        probs = np.exp(logp)
        probs[rows, safe_labels] -= 1.0
        probs *= (keep / count)[:, None]
        return (probs.reshape(logits.shape) * g,)

    return _track(out, (logits,), vjp, "cross_entropy_loss")

