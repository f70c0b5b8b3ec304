"""Reverse-mode automatic differentiation on dense numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar loss walks the graph once in reverse topological
order and accumulates gradients into every tensor that requires them.
Only the operations the encoder actually needs are implemented, each with
a hand-written vector-Jacobian product; ``op`` adds a node whose product is
written elsewhere, as the encoder does for each layer.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """Array node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_backward_done")

    def __init__(self, data, requires_grad: bool = False, parents=(), vjp=None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents = parents
        self._vjp = vjp
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, grad={'set' if self.grad is not None else 'none'})"


def op(data, parents, vjp) -> Tensor:
    """The graph node for ``data`` computed from ``parents``: ``vjp(g)``
    returns one gradient (or None) per parent, in order."""
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires, parents=tuple(parents), vjp=vjp if requires else None)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(tensor: Tensor, grad: np.ndarray, node: Tensor, grads: tuple) -> None:
    """Add ``grad``, one of ``node``'s VJP outputs ``grads``, into ``tensor``.

    A first gradient is later added to in place, so it is stored without a
    copy only when no other array can see its memory: a fresh array that is
    neither ``node``'s own gradient nor handed to another parent too (``add``,
    ``reshape`` and ``transpose`` return ``node.grad`` or views of it).
    """
    if tensor.grad is not None:
        tensor.grad += grad
    elif (
        isinstance(grad, np.ndarray)
        and grad.base is None
        and grad is not node.grad
        and (len(grads) == 1 or sum(g is grad for g in grads) == 1)
    ):
        tensor.grad = grad
    else:
        tensor.grad = np.array(grad)


def backward(loss: Tensor) -> None:
    """Populate gradients of everything reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already ran on this loss; rebuild the graph first")
    loss._backward_done = True

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None or node.grad is None:
            continue
        grads = node._vjp(node.grad)
        for parent, g in zip(node._parents, grads):
            if g is None or not parent.requires_grad:
                continue
            _accumulate(parent, g, node, grads)


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}") from exc

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return op(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}") from exc

    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return op(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    return op(a.data * s, (a,), lambda g: (g * s,))


def neg(a: Tensor) -> Tensor:
    return op(-a.data, (a,), lambda g: (-g,))


def log(a: Tensor) -> Tensor:
    return op(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return op(np.where(mask, a.data, 0.0), (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))
    return op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return op(out, tuple(tensors), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} vs {b.data.shape}") from exc

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return op(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# normalization and activations


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return op(s, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return op(out, (a,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = xhat * gamma.data + beta.data
    d = x.data.shape[-1]

    def vjp(g):
        g_gamma = _unbroadcast(g * xhat, gamma.data.shape)
        g_beta = _unbroadcast(g, beta.data.shape)
        gx_hat = g * gamma.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
        )
        return gx, g_gamma, g_beta

    return op(out, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# lookup / gather


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"token id out of range: ids span [{ids.min()}, {ids.max()}] "
            f"but the table has {table.data.shape[0]} rows"
        )
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return op(out, (table,), vjp)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along axis 0."""
    idx = np.asarray(idx, dtype=np.int64)
    out = x.data[idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return op(out, (x,), vjp)


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row-wise selection from a 2-D tensor: out[i] = x[i, idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return (gx,)

    return op(out, (x,), vjp)


# ---------------------------------------------------------------------------
# pooling and reductions


def mean_pool(x: Tensor, axis: int) -> Tensor:
    n = x.data.shape[axis]

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return op(x.data.mean(axis=axis), (x,), vjp)


def max_pool(x: Tensor, axis: int) -> Tensor:
    am = np.argmax(x.data, axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(am, axis), axis=axis).squeeze(axis)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(am, axis), np.expand_dims(g, axis), axis=axis)
        return (gx,)

    return op(out, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def vjp(g):
        return (np.full_like(x.data, float(g) / n),)

    return op(x.data.mean(), (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return op(x.data.sum(), (x,), vjp)


# ---------------------------------------------------------------------------
# regularization


def dropout_mask(shape: tuple[int, ...], dtype, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask for inverted dropout: False with probability ``rate``.
    One ``rng.random(shape, dtype)`` draw, so the stream does not depend on
    how the mask is stored."""
    return rng.random(shape, dtype=dtype) >= rate


def dropout_scale(dtype, rate: float):
    """The ``1 / (1 - rate)`` that kept entries are multiplied by, in ``dtype``.
    Applied after the keep-mask, as its own multiply: ``x·1·s`` rounds
    exactly like ``x·s`` and ``x·0·s`` is ``x·0``, so the result is that of
    one multiply by a mask of 0s and scales."""
    dtype = np.dtype(dtype).type
    return dtype(1.0) / dtype(1.0 - rate)


def apply_dropout(x: np.ndarray, keep: np.ndarray, scale) -> np.ndarray:
    """``x`` times the keep-mask, then the scale, as a new array."""
    out = x * keep
    out *= scale
    return out


def dropout(x: Tensor, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout; identity at eval time or rate 0."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    keep = dropout_mask(x.data.shape, x.data.dtype, rate, rng)
    scale = dropout_scale(x.data.dtype, rate)

    def vjp(g):
        return (apply_dropout(g, keep, scale),)

    return op(apply_dropout(x.data, keep, scale), (x,), vjp)
