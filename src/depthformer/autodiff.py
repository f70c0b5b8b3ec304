"""Reverse-mode automatic differentiation on dense numpy arrays.

A ``Tensor`` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar loss walks the graph once in reverse topological
order and accumulates gradients into every tensor that requires them.
There are no per-operation nodes: ``op`` adds a node whose forward and
hand-written vector-Jacobian product live with the model. The encoder makes
one for the embedding, one per layer, one per permutation of the rows and
one for each task loss, each forward being the inference code and each
VJP's closure holding what it reads.
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


def _accumulate(tensor: Tensor, grad: np.ndarray, node: Tensor, grads: tuple) -> None:
    """Add ``grad``, one of ``node``'s VJP outputs ``grads``, into ``tensor``.

    A first gradient is later added to in place, so it is stored without a
    copy only when no other array can see its memory: a fresh array that is
    neither ``node``'s own gradient nor handed to another parent too (a VJP
    may pass ``node.grad`` on, or a view of it, or one array to two parents).
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
    """Populate gradients of everything reachable from a scalar loss,
    dropping each node's VJP, and all its closure holds, once it has run."""
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
        if node._parents and node.requires_grad and node._vjp is None:
            raise RuntimeError("backward already ran through this graph; rebuild the graph first")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is not None and node.grad is not None:
            grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is not None and parent.requires_grad:
                    _accumulate(parent, g, node, grads)
        node._vjp = None

