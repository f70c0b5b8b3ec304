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
from .encoder import HEAD_CLASSIFIER, AdaptiveEncoder, EncoderConfig, LayerCounts
from .optim import adam_step

DEFAULT_CLIP = 5.0


@dataclass(frozen=True)
class StepRecord:
    """What one ``fit`` step did; ``write_step_files`` writes one per line."""

    step: int
    loss: float
    grad_norm: float  # before clipping
    lr: float
    cpu_ms: float  # process CPU time of the loss, backward and update
    tokens: int  # B·T of the batch
    active_fraction: float  # layer applications / (n_layers · tokens)


@dataclass(frozen=True)
class FitSettings:
    """The optimiser settings of one ``fit``, checked when made, so a bad
    one fails before any file is read: ``steps`` Adam steps over batches
    of ``batch_size``, the learning rate ramped linearly to ``lr`` over
    the first ``warmup`` steps, and the gradient clipped to global norm
    ``clip``."""

    steps: int
    lr: float
    batch_size: int
    clip: float = DEFAULT_CLIP
    warmup: int = 0

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if not self.lr > 0:  # also rejects NaN
            raise ValueError(f"lr must be > 0, got {self.lr}")
        check_batch_size(self.batch_size)
        if not self.clip > 0:
            raise ValueError(f"clip must be > 0, got {self.clip}")
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")


def check_depth_maps(maps: list[np.ndarray], lengths: list[int], n_layers: int, path=None) -> None:
    """Depth maps checked against the sentences they route and the model's
    depth before any of them is used: one map per sentence, one depth per
    token, each in ``[1, n_layers]``. A failure names ``path`` and the line
    when the maps were read from that file, else the sentence (from 0)."""
    def where(i: int) -> str:
        return f"sentence {i}" if path is None else f"{path}:{i + 1}"

    if len(maps) != len(lengths):
        what = "depth maps have" if path is None else f"{path}: depth file has"
        raise ValueError(f"{what} {len(maps)} sentences, expected {len(lengths)}")
    counts = np.fromiter(map(len, maps), np.int64, count=len(maps))
    misfit = np.flatnonzero(counts != lengths)
    if misfit.size:
        i = int(misfit[0])
        raise ValueError(f"{where(i)}: {counts[i]} depths for {lengths[i]} tokens")
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *maps])
    bad = np.flatnonzero((flat < 1) | (flat > n_layers))
    if bad.size:
        i = int(np.searchsorted(np.cumsum(counts), bad[0], side="right"))
        raise ValueError(f"{where(i)}: depth {flat[bad[0]]} outside [1, {n_layers}]")


def check_batch_size(batch_size: int) -> None:
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")


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
    settings: FitSettings,
    seed: int = 0,
    depth_maps: list[np.ndarray] | None = None,
) -> tuple[AdaptiveEncoder, list[StepRecord]]:
    """Train the pooled softmax classifier; fixed depth when no maps given.

    Deep post-norm stacks trained from scratch need ``settings.warmup``.
    Reproducible for a given seed: model init, dropout, shuffling and the
    step schedule all derive from it. Returns one record per step.
    """
    lengths = [len(d.tokens) for d in corpus.documents]
    if depth_maps is not None:
        check_depth_maps(depth_maps, lengths, config.n_layers)
    model_seed, data_seed = np.random.SeedSequence(seed).spawn(2)
    encoder = AdaptiveEncoder(config, HEAD_CLASSIFIER, seed=int(model_seed.generate_state(1)[0]))
    data_rng = np.random.default_rng(data_seed)

    def batch_loss(idx: np.ndarray) -> tuple[ad.Tensor, LayerCounts]:
        ids, gold, depths = gather_batch(corpus, idx, depth_maps)
        layers, counts = encoder.forward_graph(ids, depths, train=True)
        return encoder.classifier_loss_graph(layers[-1], gold), counts

    return encoder, fit(encoder, batch_loss, lengths, settings, data_rng)


def fit(
    encoder: AdaptiveEncoder,
    batch_loss: Callable[[np.ndarray], tuple[ad.Tensor, LayerCounts]],
    lengths: list[int],
    settings: FitSettings,
    data_rng: np.random.Generator,
    after_step: Callable[[int], None] | None = None,
) -> list[StepRecord]:
    """The training step loop shared by both tasks: ``settings.steps`` Adam
    steps on ``batch_loss(idx)``, which returns the loss and the forward's
    work counts, over shuffled length buckets. ``after_step(step)`` runs
    after each step. Returns one record per step."""
    if settings.steps > 0 and not lengths:
        raise ValueError(f"no documents to train on ({settings.steps} steps asked)")
    n_layers = encoder.config.n_layers
    records: list[StepRecord] = []
    while len(records) < settings.steps:
        for idx in length_buckets(lengths, settings.batch_size, data_rng):
            step = len(records)
            if step >= settings.steps:
                break
            started = time.process_time_ns()
            loss, counts = batch_loss(idx)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"training diverged at step {step}: loss={loss.data}")
            encoder.store.zero_grad()
            ad.backward(loss)
            lr = settings.lr * min(1.0, (step + 1) / settings.warmup) if settings.warmup else settings.lr
            grad_norm = adam_step(encoder.store, lr=lr, clip=settings.clip)
            cpu_ms = (time.process_time_ns() - started) / 1e6
            tokens = counts.n_tokens
            active = counts.ffn_applications / (n_layers * tokens)
            records.append(StepRecord(step + 1, float(loss.data), grad_norm, lr, cpu_ms, tokens, active))
            if after_step is not None:
                after_step(step + 1)
    return records


def write_step_files(ckpt, records: list[StepRecord]) -> None:
    """``<ckpt>.log``: ``step<TAB>loss`` lines; ``<ckpt>.trace.jsonl``: one
    JSON line per step with step, loss, pre-clip gradient norm, lr,
    process CPU ms, the batch's tokens and its active fraction."""
    with open(f"{ckpt}.log", "w", encoding="utf-8") as log, \
            open(f"{ckpt}.trace.jsonl", "w", encoding="utf-8") as trace:
        for record in records:
            log.write(f"{record.step}\t{record.loss:.8f}\n")
            trace.write(json.dumps(asdict(record)) + "\n")
