"""The training step loop both tasks share, classifier training, and
batching helpers.

Batches only ever contain same-length sentences (documents are grouped by
token count), so no padding or masking is needed anywhere in the model.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .corpus import Corpus
from .encoder import HEAD_CLASSIFIER, AdaptiveEncoder, EncoderConfig
from .optim import adam_step

DEFAULT_CLIP = 5.0


@dataclass(frozen=True)
class StepRecord:
    """What one ``fit`` step did; ``write_trace`` writes one per line."""

    step: int
    loss: float
    grad_norm: float  # before clipping
    lr: float
    cpu_ms: float  # process CPU time of the loss, backward and update


def check_depth_alignment(corpus: Corpus, depth_maps: list[np.ndarray]) -> None:
    """Depth files must match the corpus sentence-for-sentence."""
    if len(depth_maps) != len(corpus.documents):
        raise ValueError(
            f"depth file has {len(depth_maps)} sentences, corpus has {len(corpus.documents)}"
        )
    for i, (doc, depths) in enumerate(zip(corpus.documents, depth_maps)):
        if len(depths) != len(doc.tokens):
            raise ValueError(
                f"sentence {i}: depth map length {len(depths)} != token count {len(doc.tokens)}"
            )


def check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


def check_fit_settings(steps: int, lr: float, batch_size: int, clip: float, warmup: int) -> None:
    """Reject settings ``fit`` cannot train with, before any work is done."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not lr > 0:  # also rejects NaN
        raise ValueError(f"lr must be > 0, got {lr}")
    check_batch_size(batch_size)
    if not clip > 0:
        raise ValueError(f"clip must be > 0, got {clip}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")


def length_buckets(lengths: list[int], batch_size: int, rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Index batches grouped by sentence length, optionally shuffled."""
    check_batch_size(batch_size)
    groups: dict[int, list[int]] = defaultdict(list)
    for i, n in enumerate(lengths):
        groups[n].append(i)
    batches: list[np.ndarray] = []
    for n in sorted(groups):
        idx = np.asarray(groups[n], dtype=np.int64)
        if rng is not None:
            rng.shuffle(idx)
        for start in range(0, len(idx), batch_size):
            batches.append(idx[start : start + batch_size])
    if rng is not None:
        order = rng.permutation(len(batches))
        batches = [batches[i] for i in order]
    return batches


def gather_batch(
    corpus: Corpus, idx: np.ndarray, depth_maps: list[np.ndarray] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Token ids, gold labels and (when maps are given) depths of one batch."""
    docs = [corpus.documents[i] for i in idx]
    ids = np.stack([d.tokens for d in docs])
    gold = np.asarray([d.label for d in docs], dtype=np.int64)
    depths = None
    if depth_maps is not None:
        depths = np.stack([depth_maps[i] for i in idx])
    return ids, gold, depths


def train_classifier(
    corpus: Corpus,
    config: EncoderConfig,
    steps: int,
    lr: float = 1e-3,
    batch_size: int = 16,
    seed: int = 0,
    depth_maps: list[np.ndarray] | None = None,
    clip: float = DEFAULT_CLIP,
    warmup: int = 0,
    on_step: Callable[[StepRecord], None] | None = None,
) -> tuple[AdaptiveEncoder, list[tuple[int, float]]]:
    """Train the pooled softmax classifier; fixed depth when no maps given.

    ``warmup`` linearly ramps the learning rate over the first steps,
    which deep post-norm stacks need when trained from scratch.
    Reproducible for a given seed: model init, dropout, shuffling and the
    step schedule all derive from it. ``on_step`` gets each step's record.
    """
    if depth_maps is not None:
        check_depth_alignment(corpus, depth_maps)
    model_seed, data_seed = np.random.SeedSequence(seed).spawn(2)
    encoder = AdaptiveEncoder(config, HEAD_CLASSIFIER, seed=int(model_seed.generate_state(1)[0]))
    data_rng = np.random.default_rng(data_seed)

    def batch_loss(idx: np.ndarray) -> ad.Tensor:
        ids, gold, depths = gather_batch(corpus, idx, depth_maps)
        layers, _ = encoder.forward_graph(ids, depths, train=True)
        return encoder.classifier_loss_graph(layers[-1], gold)

    lengths = [len(d.tokens) for d in corpus.documents]
    log = fit(encoder, batch_loss, lengths, steps, lr, batch_size, data_rng, clip, warmup, on_step)
    return encoder, log


def fit(
    encoder: AdaptiveEncoder,
    batch_loss: Callable[[np.ndarray], ad.Tensor],
    lengths: list[int],
    steps: int,
    lr: float,
    batch_size: int,
    data_rng: np.random.Generator,
    clip: float,
    warmup: int,
    on_step: Callable[[StepRecord], None] | None = None,
) -> list[tuple[int, float]]:
    """The training step loop shared by both tasks: ``steps`` Adam steps on
    ``batch_loss(idx)`` over shuffled length buckets, with the learning
    rate ramped linearly over the first ``warmup`` steps. ``on_step(record)``
    runs after each step. Returns the (step, loss) log."""
    check_fit_settings(steps, lr, batch_size, clip, warmup)
    log: list[tuple[int, float]] = []
    step = 0
    while step < steps:
        for idx in length_buckets(lengths, batch_size, data_rng):
            if step >= steps:
                break
            started = time.process_time_ns()
            loss = batch_loss(idx)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"training diverged at step {step}: loss={loss.data}")
            encoder.store.zero_grad()
            ad.backward(loss)
            cur_lr = lr * min(1.0, (step + 1) / warmup) if warmup else lr
            grad_norm = adam_step(encoder.store, lr=cur_lr, clip=clip)
            cpu_ms = (time.process_time_ns() - started) / 1e6
            step += 1
            value = float(loss.data)
            log.append((step, value))
            if on_step is not None:
                on_step(StepRecord(step, value, grad_norm, cur_lr, cpu_ms))
    return log


def write_train_log(path, log: list[tuple[int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for step, loss in log:
            fh.write(f"{step}\t{loss:.8f}\n")


def write_trace(path, records: list[StepRecord]) -> None:
    """One JSON line per step: step, loss, pre-clip gradient norm, lr and
    process CPU ms."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record)) + "\n")
