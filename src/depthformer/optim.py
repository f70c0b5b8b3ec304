"""Parameter store with Adam updates behind global-norm gradient clipping."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor


class ParamStore:
    """Named trainable tensors plus the Adam moment buffers for each."""

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self.params: dict[str, Tensor] = {}
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.step_count = 0

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(data, dtype=self.dtype), requires_grad=True)
        self.params[name] = t
        self.m[name] = np.zeros_like(t.data)
        self.v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = np.zeros_like(p.data)

    def global_grad_norm(self) -> float:
        total = 0.0
        for p in self.params.values():
            if p.grad is not None:
                total += float(np.sum(p.grad.astype(np.float64) ** 2))
        return float(np.sqrt(total))

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data for name, p in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for name, data in arrays.items():
            if name not in self.params:
                raise KeyError(f"unknown parameter {name!r}")
            p = self.params[name]
            if p.data.shape != data.shape:
                raise ValueError(f"{name}: shape {data.shape} != expected {p.data.shape}")
            p.data = np.asarray(data, dtype=self.dtype)
        missing = [name for name in self.params if name not in arrays]
        if missing:
            raise ValueError(f"checkpoint is missing parameters: {', '.join(missing)}")


def clip_gradients(store: ParamStore, max_norm: float) -> float:
    """Rescale all gradients so their global norm is at most ``max_norm``.

    Returns the pre-clip norm. Non-finite gradients abort immediately
    rather than poisoning the moment buffers.
    """
    norm = store.global_grad_norm()
    if not np.isfinite(norm):
        raise FloatingPointError(f"non-finite gradient norm: {norm}")
    if norm > max_norm:
        factor = max_norm / norm
        for p in store.params.values():
            if p.grad is not None:
                p.grad *= factor
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
    for name, p in store.params.items():
        g = p.grad
        if g is None:
            continue
        m = store.m[name]
        v = store.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p.data = p.data - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return norm
