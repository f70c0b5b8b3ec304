"""Parameter store with Adam updates behind global-norm gradient clipping."""

from __future__ import annotations

import math

import numpy as np

from .autodiff import Tensor


class ParamStore:
    """Named trainable tensors over four flat arrays, allocated once.

    ``data`` holds the values, ``grad`` the gradients and ``m``/``v`` the
    Adam moments, each parameter at the same offset in all four. Every
    tensor's ``.data`` and ``.grad`` are views of ``data`` and ``grad``,
    bound here and never replaced: training and loading write in place.
    """

    def __init__(self, shapes: dict[str, tuple[int, ...]], dtype=np.float64):
        self.dtype = np.dtype(dtype)
        total = sum(math.prod(shape) for shape in shapes.values())
        self.data, self.grad, self.m, self.v = (np.zeros(total, dtype=self.dtype) for _ in range(4))
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
        # per-tensor float64 sums in tensor order: one flat sum rounds differently
        squares = np.square(self.grad, dtype=np.float64)
        total = 0.0
        for span in self._spans:
            total += float(np.add.reduce(squares[span]))
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


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Rescale all gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip norm. Non-finite gradients abort immediately
    rather than poisoning the moment buffers.
    """
    norm = store.global_grad_norm()
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm: {norm}")
    if norm > max_norm:
        store.grad *= max_norm / norm
    return norm


def adam_step(
    store: ParamStore,
    lr: float,
    clip: float = 5.0,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> float:
    """One Adam update with bias correction, after global-norm clipping."""
    norm = clip_gradients(store, clip)
    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    g, m, v = store.grad, store.m, store.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    # data -= lr * (m / bc1) / (sqrt(v / bc2) + eps), step by step in two
    # temporaries: the one-line form makes more and is slower in f64
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += eps
    step = m / bc1
    step *= lr
    step /= denom
    store.data -= step
    return norm
