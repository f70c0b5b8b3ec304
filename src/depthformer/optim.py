"""Parameter store with Adam updates behind global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor

# elements per block of the clip and Adam update: a block's arrays stay in
# cache through its 14 elementwise passes, where whole-array passes stream
# each one through memory
ADAM_BLOCK = 1 << 16
# Adam's moment decays and the denominator's guard
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class ParamStore:
    """Named trainable tensors over four flat arrays, allocated once.

    ``data`` holds the values, ``grad`` the gradients and ``m``/``v`` the
    Adam moments, each parameter at the same offset in all four. Every
    tensor's ``.data`` and ``.grad`` are views of ``data`` and ``grad``,
    bound here and never replaced: training and loading write in place.
    Two scratch blocks of ``ADAM_BLOCK`` elements hold the update's
    temporaries, so a step allocates no memory in proportion to the
    parameter count.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype=np.float64):
        self.dtype = np.dtype(dtype)
        total = sum(math.prod(shape) for shape in shapes.values())
        self.data, self.grad, self.m, self.v = (np.zeros(total, dtype=self.dtype) for _ in range(4))
        self._scratch = tuple(np.empty(min(total, ADAM_BLOCK), self.dtype) for _ in range(2))
        self.params: dict[str, Tensor] = {}
        self._spans: list[slice] = []
        offset = 0
        for name, shape in shapes.items():
            span = slice(offset, offset + math.prod(shape))
            self._spans.append(span)
            self.params[name] = t = Tensor(self.data[span].reshape(shape), requires_grad=True)
            t.grad = self.grad[span].reshape(shape)
            offset = span.stop
        self.step_count = 0

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def global_grad_norm(self) -> float:
        # per-tensor float64 sums in tensor order: one flat sum rounds
        # differently. Each tensor is squared on its own, so the float64
        # temporary is one tensor's, not the whole store's.
        total = 0.0
        for span in self._spans:
            total += float(np.add.reduce(np.square(self.grad[span], dtype=np.float64)))
        return float(np.sqrt(total))

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Live views of the parameter values; copy them for a snapshot."""
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        unknown = [name for name in arrays if name not in self.params]
        if unknown:
            raise ValueError(f"checkpoint has unknown parameters: {', '.join(unknown)}")
        for name, data in arrays.items():
            if data.shape != self.params[name].shape:
                raise ValueError(f"{name}: shape {data.shape} != expected {self.params[name].shape}")
        missing = [name for name in self.params if name not in arrays]
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {', '.join(missing)}")
        for name, data in arrays.items():
            self.params[name].data[...] = data


def adam_step(store: ParamStore, lr: float, clip: float = 5.0) -> float:
    """One Adam update with bias correction, after the gradients are scaled
    to a global norm of at most ``clip``. Returns the pre-clip norm.
    Non-finite gradients abort before anything is written rather than
    poisoning the moment buffers.

    Clipping and the update run block by block over the flat arrays, each
    step elementwise and in the order of the whole-array form, so every
    bit is that form's.
    """
    norm = store.global_grad_norm()
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm: {norm}")
    factor = clip / norm if norm > clip else None
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for start in range(0, store.data.size, ADAM_BLOCK):
        span = slice(start, start + ADAM_BLOCK)
        g, m, v = store.grad[span], store.m[span], store.v[span]
        a, b = (x[: g.size] for x in store._scratch)
        if factor is not None:
            g *= factor
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=a)
        v += np.multiply(a, g, out=a)
        # data -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(m, bc1, out=b)
        b *= lr
        b /= a
        store.data[span] -= b
    return norm
