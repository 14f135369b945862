"""Dense float64 tensors with reverse-mode automatic differentiation.

The tape is dynamic: every op that sees a tracked input records a
``Node`` that links back to its inputs through a vjp closure, and
``backward`` replays the graph once in reverse topological order. The
graph holds no values: each vjp keeps only the arrays it reads, so an op
output that no vjp reads is freed as soon as no name holds it. Graphs
are rebuilt on every forward pass, which is what the adversarial inner
loop needs (the same parameters are re-evaluated K times per batch with
mutated inputs).

Three ops fuse what the transformer would otherwise record as chains,
so each inner step replays fewer, fatter nodes. Each evaluates the same
numpy expressions in the same order as the chain it replaces, so its
results are bitwise those of the chain:

- ``matmul(a, b, bias)`` adds ``bias`` to the product (a linear layer);
- ``attention(q, k, v, key_mask, heads, fill)`` splits heads, scales
  q·kᵀ, fills masked keys, takes the softmax and merges the context;
- ``layer_norm(a, gain, bias, residual)`` normalizes ``a + residual``.

Broadcasting is deliberately narrow: the second operand of ``add``
and the ``bias`` of ``matmul`` may be a trailing-shape suffix of the
first operand or product (bias over leading batch dims); anything else
is a shape error. ``scale`` multiplies by a constant (scalar or plain
ndarray) that never receives a gradient.

``matmul``'s weight product and bias sum and ``layer_norm``'s gain and
bias sums, which nothing reads before ``backward`` returns, come back as
``Deferred`` products that ``backward`` may run on a second thread.
"""
from __future__ import annotations

import math
import os
import queue
import threading

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not conform to an op's contract."""


class GraphError(RuntimeError):
    """Backward called on something that is not a differentiable scalar."""


class Node:
    """One recorded op: its parents' vertices (``None`` for an untracked
    input), its vjp and its name. It holds no data; the vjp closes over the
    arrays and shapes it reads, never over a ``Tensor``.
    """

    __slots__ = ("_parents", "_vjp", "_op")

    # bench/tracing.py sums ``.grad`` over ``topo_order`` as
    # ``tensor.backward.grad_bytes`` until that metric leaves the benchmark
    grad = None

    def __init__(self, parents, vjp, op):
        self._parents, self._vjp, self._op = parents, vjp, op


class Tensor:
    """A dense float64 array plus its place in the tape.

    Intermediate results produced from tracked inputs are themselves
    tracked, through the ``Node`` that recorded them; a tracked leaf
    (parameter, perturbation, input) is its own vertex. A tensor holds
    no gradient: ``backward`` returns them all in one map.
    """

    __slots__ = ("data", "requires_grad", "_node")

    # Read-only: no slot backs it, so assigning ``.grad`` raises AttributeError.
    grad = None

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._node: Node | None = None

    @property
    def _parents(self) -> tuple:
        return () if self._node is None else self._node._parents

    @property
    def _vjp(self):
        return None if self._node is None else self._node._vjp

    @property
    def _op(self) -> str | None:
        return None if self._node is None else self._node._op

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
    """Wrap an op result, recording its node if any input is tracked."""
    out = Tensor(out_data)
    vertices = tuple([(p._node or p) if p.requires_grad else None for p in parents])
    if any(vertices):       # a vertex, Node or Tensor, is never falsy
        out.requires_grad = True
        out._node = Node(vertices, vjp, op)
    return out


def topo_order(root: Tensor) -> list[Node | Tensor]:
    """Vertices reachable from ``root``, each after all of its parents.

    A vertex is a ``Node`` or a tracked leaf ``Tensor``.
    """
    order: list[Node | Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Node | Tensor, bool]] = [(root._node or root, False)]
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
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


# A product pays for its hand-over to the worker thread from this many
# multiply-adds. At most this many of one backward's jobs wait at once: each
# holds an output gradient that the inline order would have freed.
DEFER_MIN_MADDS, DEFER_MAX_PENDING = 1 << 20, 4


class Deferred:
    """A leaf's gradient contribution ``fn()``, costing ``size`` multiply-adds."""

    __slots__ = ("fn", "size", "out", "done")

    def __init__(self, fn, size: int):
        self.fn, self.size = fn, size


def _serve(jobs: queue.SimpleQueue) -> None:
    while True:
        job = jobs.get()
        try:
            job.out = job.fn()
        except BaseException as exc:    # raised again in the caller of backward
            job.out = exc
        job.fn = None       # drops the tape's arrays before the caller goes on
        job.done.release()


_jobs: queue.SimpleQueue | None = None      # the worker's, made at the first deferral
os.register_at_fork(after_in_child=lambda: globals().update(_jobs=None))    # no thread there


def _submit(job: Deferred) -> Deferred:
    global _jobs
    if _jobs is None:
        _jobs = queue.SimpleQueue()
        threading.Thread(target=_serve, args=(_jobs,), daemon=True).start()
    job.done = threading.Lock()
    job.done.acquire()
    _jobs.put(job)
    return job


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Propagate d(loss)/d(tensor) to every tracked leaf under ``loss``.

    Returns the gradient map keyed by tensor identity. Its keys are the
    tracked leaves, the tensors without a vjp (parameters, perturbations,
    inputs); an interior adjoint is dropped once its node's vjp has read
    it, so the map holds no link into the tape and the tape is freed when
    the caller lets go of ``loss``. The map is the only output: no tensor
    is written to, so repeated calls return equal maps.

    A leaf's ``Deferred`` of ``DEFER_MIN_MADDS`` or more runs on the worker
    thread; the rest run in place. Each leaf's terms are added up left to
    right, in the vjps' order, once every job is done and none has raised.
    """
    if loss.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._node is None:
        raise GraphError("backward on a tensor with no recorded operations")

    order = topo_order(loss)
    adjoint: dict[Node | Tensor, np.ndarray] = {loss._node: np.ones_like(loss.data)}
    jobs: list[Deferred] = []   # in the worker's order
    for node in reversed(order):
        if node._vjp is None:
            continue
        out_adj = adjoint.pop(node, None)
        if out_adj is None:
            continue
        for parent, contrib in zip(node._parents, node._vjp(out_adj)):
            if parent is None or contrib is None:
                continue
            if type(contrib) is Deferred:
                if contrib.size < DEFER_MIN_MADDS or type(parent) is not Tensor:
                    contrib = contrib.fn()
                else:
                    if len(jobs) >= DEFER_MAX_PENDING:
                        jobs[-DEFER_MAX_PENDING].done.acquire()
                    jobs.append(_submit(contrib))
            if type(parent) is Tensor:      # a leaf: its terms are added up below
                adjoint.setdefault(parent, []).append(contrib)
            else:
                prev = adjoint.get(parent)
                adjoint[parent] = contrib if prev is None else prev + contrib
    if jobs:
        jobs[-1].done.acquire()
        for job in jobs:
            if isinstance(job.out, BaseException):
                raise job.out
    for leaf, terms in adjoint.items():
        terms = [t.out if type(t) is Deferred else t for t in terms]
        adjoint[leaf] = sum(terms[1:], terms[0])    # ((t0 + t1) + t2) ...
    return adjoint


def _suffix_check(op: str, a, b) -> None:
    """Raise unless b's shape equals a's or is a trailing suffix of it."""
    if a.shape == b.shape or (b.ndim < a.ndim and a.shape[a.ndim - b.ndim:] == b.shape):
        return
    raise ShapeError(f"{op}: cannot combine shapes {a.shape} and {b.shape}")


def _sum_to_suffix(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    lead = grad.ndim - len(shape)
    return grad.sum(axis=tuple(range(lead))) if lead else grad


def add(a: Tensor, b: Tensor) -> Tensor:
    _suffix_check("add", a, b)
    out = a.data + b.data
    b_shape = b.shape

    def vjp(g):
        return g, _sum_to_suffix(g, b_shape)

    return _track(out, (a, b), vjp, "add")


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
        # out > 0 exactly where a > 0, NaN and -0.0 included
        return (g * (out > 0.0),)

    return _track(out, (a,), vjp, "relu")


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Contract the last axis of a with the second-to-last of b, then add bias.

    Supported: 2-D b shared across a's leading dims, or fully batched
    operands with identical leading dims. ``bias`` follows ``add``'s
    suffix rule against the product; with it the node is a linear layer.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul: leading dims differ, {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)
    parents = (a, b)
    bias_shape = None
    if bias is not None:
        _suffix_check("matmul", out, bias)
        out += bias.data
        parents = (a, b, bias)
        bias_shape = bias.shape

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
        n = b_data.shape[-1]
        if b_data.ndim == 2:
            k = a_data.shape[-1]
            gb = Deferred(lambda: np.matmul(a_data.reshape(-1, k).T, g.reshape(-1, n)),
                          a_data.size * n)
        else:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
        if bias_shape is None:
            return ga, gb
        return ga, gb, Deferred(lambda: _sum_to_suffix(g, bias_shape), a_data.size * n)

    return _track(out, parents, vjp, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    out = a.data.reshape(shape)
    a_shape = a.shape

    def vjp(g):
        return (g.reshape(a_shape),)

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
    a_shape = a.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, a_shape).copy(),)
        expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, a_shape).copy(),)

    return _track(out, (a,), vjp, "sum")


LAYER_NORM_VAR_FLOOR = 1e-12


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, residual: Tensor | None = None) -> Tensor:
    """Normalize the last axis of ``a + residual`` (or of ``a`` alone).

    Constant rows map to zeros (variance floored). Both summands get the
    same gradient.
    """
    dim = a.shape[-1]
    if gain.shape != (dim,) or bias.shape != (dim,):
        raise ShapeError(
            f"layer_norm: affine shapes {gain.shape}/{bias.shape} do not match last dim {dim}"
        )
    x = a.data
    parents = (a, gain, bias)
    if residual is not None:
        if residual.shape != a.shape:
            raise ShapeError(f"layer_norm: residual {residual.shape} does not match {a.shape}")
        x = a.data + residual.data
        parents = (a, gain, bias, residual)
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    active = var > LAYER_NORM_VAR_FLOOR
    std = np.sqrt(np.maximum(var, LAYER_NORM_VAR_FLOOR))
    y = centered / std
    gain_data = gain.data
    out = y * gain_data + bias.data
    arity = len(parents)

    def vjp(g):
        size = g.size * dim     # priced as a rows x dim x dim product
        dgain = Deferred(lambda: (g * y).reshape(-1, dim).sum(axis=0), size)
        dbias = Deferred(lambda: g.reshape(-1, dim).sum(axis=0), size)
        dy = g * gain_data
        mean_dy = dy.mean(axis=-1, keepdims=True)
        mean_dyy = (dy * y).mean(axis=-1, keepdims=True)
        da = (dy - mean_dy - np.where(active, y * mean_dyy, 0.0)) / std
        return (da, dgain, dbias, da)[:arity]

    return _track(out, parents, vjp, "layer_norm")


def _softmax(x: np.ndarray) -> np.ndarray:
    # The row max over the leading axis of a contiguous transposed copy: numpy
    # reduces narrow last-axis rows one at a time, and a max rounds nothing.
    # The sign of a zero maximum can differ, but exp maps both shifts to 1.0.
    peak = np.ascontiguousarray(np.moveaxis(x, -1, 0)).max(axis=0)
    shifted = x - peak[..., None]
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    inner = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - inner)


def softmax(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis."""
    y = _softmax(a.data)

    def vjp(g):
        return (_softmax_vjp(y, g),)

    return _track(y, (a,), vjp, "softmax")


def attention(q: Tensor, k: Tensor, v: Tensor, key_mask: np.ndarray, heads: int,
              fill: float) -> Tensor:
    """Scaled dot-product attention over ``heads`` heads, as one node.

    q, k and v are (batch, length, dim); ``key_mask`` is (batch, length)
    and keys where it is false get score ``fill`` before the softmax.
    Each head sees a dim // heads slice; the heads' contexts are merged
    back to (batch, length, dim). The arithmetic is that of the taped
    chain reshape, transpose, matmul, scale, mask_fill, softmax, matmul,
    transpose, reshape.
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape:
        raise ShapeError(f"attention: q, k, v must share a 3-D shape, got "
                         f"{q.shape}, {k.shape}, {v.shape}")
    bsz, length, dim = q.shape
    if dim % heads:
        raise ShapeError(f"attention: dim {dim} not divisible by {heads} heads")
    keep = np.asarray(key_mask, dtype=bool)
    if keep.shape != (bsz, length):
        raise ShapeError(f"attention: key mask {keep.shape} does not match {(bsz, length)}")
    keep = keep[:, None, None, :]
    dk = dim // heads
    scale_by = 1.0 / math.sqrt(dk)

    def split(t: np.ndarray, axes) -> np.ndarray:
        # contiguous, as a taped transpose would leave it, so matmul runs the same kernel
        return np.ascontiguousarray(t.reshape(bsz, length, heads, dk).transpose(axes))

    def merge(t: np.ndarray, axes) -> np.ndarray:
        return t.transpose(axes).reshape(bsz, length, dim)

    qh = split(q.data, (0, 2, 1, 3))
    kt = split(k.data, (0, 2, 3, 1))
    vh = split(v.data, (0, 2, 1, 3))
    y = _softmax(np.where(keep, np.matmul(qh, kt) * scale_by, fill))
    out = merge(np.matmul(y, vh), (0, 2, 1, 3))

    def vjp(g):
        gctx = g.reshape(bsz, length, heads, dk).transpose(0, 2, 1, 3)
        gy = np.matmul(gctx, np.swapaxes(vh, -1, -2))
        gvh = np.matmul(np.swapaxes(y, -1, -2), gctx)
        gs = np.where(keep, _softmax_vjp(y, gy), 0.0) * scale_by
        gqh = np.matmul(gs, np.swapaxes(kt, -1, -2))
        gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
        return merge(gqh, (0, 2, 1, 3)), merge(gkt, (0, 3, 1, 2)), merge(gvh, (0, 2, 1, 3))

    return _track(out, (q, k, v), vjp, "attention")


class RowGradient:
    """Gradient of a table that is zero outside the rows a lookup touched.

    ``rows`` is sorted and unique, and ``values[i]`` is the gradient of
    row ``rows[i]``; every other row is ``+0.0``. It has only the
    arithmetic that ``backward`` and a K-step sum do with a gradient:
    ``w * g`` for a finite ``w >= 0``, ``0.0 + g``, and ``g + g`` over the
    union of rows. Each evaluates the dense expression's arithmetic on the
    rows it keeps, so the rows it leaves out are the dense result's
    ``+0.0``. The optimizers read ``rows`` and ``values`` as they are.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, ...]):
        self.rows, self.values, self.shape = rows, values, shape

    def _on(self, rows: np.ndarray) -> np.ndarray:
        """The gradient on ``rows``, a sorted superset of its own."""
        out = np.zeros((rows.size,) + self.shape[1:])
        out[np.searchsorted(rows, self.rows)] = self.values
        return out

    def __rmul__(self, w):
        # off the rows w * 0.0 must stay +0.0: no negative, infinite or NaN w
        if not (isinstance(w, (int, float)) and 0 <= w < math.inf):
            return NotImplemented
        return RowGradient(self.rows, w * self.values, self.shape)

    def __radd__(self, c):
        if not (isinstance(c, (int, float)) and c == 0):
            return NotImplemented
        return RowGradient(self.rows, c + self.values, self.shape)

    def __add__(self, other):
        if not isinstance(other, RowGradient) or other.shape != self.shape:
            return NotImplemented
        if other.rows is self.rows:     # as a lookup's replays share theirs
            return RowGradient(self.rows, self.values + other.values, self.shape)
        rows = np.union1d(self.rows, other.rows)
        return RowGradient(rows, self._on(rows) + other._on(rows), self.shape)


class Packed(dict):
    """Arrays by name, each a view of its own consecutive run of one flat
    float64 buffer, ``flat``, in the order of ``layout``, its (name, shape)
    pairs; so one ufunc call over ``flat`` does the work of one per name.
    A packed name keeps its view, so values go in through it, in place;
    names added later are the caller's own, outside the buffer.
    """

    def __init__(self, layout, flat: np.ndarray | None = None):
        super().__init__()
        self.layout = tuple(layout)
        sizes = [math.prod(shape) for _, shape in self.layout]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        start = 0
        for (name, shape), size in zip(self.layout, sizes):
            super().__setitem__(name, self.flat[start:start + size].reshape(shape))
            start += size
        self._packed = frozenset(self)

    def __setitem__(self, name, value):
        # ``packed[name] += x`` stores the view it wrote to back under its name
        if name in self._packed and value is not self[name]:
            raise ValueError(f"{name} is packed: assign into its view, not over it")
        super().__setitem__(name, value)


def _check_ids(what: str, ids: np.ndarray, n: int) -> None:
    """Raise IndexError unless every id names one of a table's ``n`` rows."""
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise IndexError(f"{what}: token id out of range [0, {n}): min={ids.min()}, max={ids.max()}")


def row_summer(slot: np.ndarray, slots: int, dim: int):
    """A function that sums ``dim``-wide rows into ``slots`` rows by ``slot``:
    each cell's terms in order from +0.0, as adding the rows one at a time
    would, for ``np.bincount`` walks its weights in order."""
    cells = (slot.reshape(-1, 1) * dim + np.arange(dim)).reshape(-1)
    return lambda values: np.bincount(cells, values.reshape(-1), slots * dim).reshape(slots, dim)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of an N x D table; the gradient sums back by id as a RowGradient."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding_lookup: ids must be integers")
    _check_ids("embedding_lookup", ids, table.shape[0])
    out = table.data[ids]
    shape = table.shape
    rows = sum_rows = None

    def vjp(g):
        nonlocal rows, sum_rows
        if rows is None:
            # found by the first backward and kept for the later replays;
            # a forward that nothing differentiates never sorts the ids
            rows, slot = np.unique(ids, return_inverse=True)
            sum_rows = row_summer(slot, rows.size, shape[1])
        return (RowGradient(rows, sum_rows(g), shape),)

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
    shape = logits.shape

    def vjp(g):
        probs = np.exp(logp)
        probs[rows, safe_labels] -= 1.0
        probs *= (keep / count)[:, None]
        return (probs.reshape(shape) * g,)

    return _track(out, (logits,), vjp, "cross_entropy_loss")

