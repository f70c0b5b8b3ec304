"""Classifier training loop and shared batching helpers.

Batches only ever contain same-length sentences (documents are grouped by
token count), so no padding or masking is needed anywhere in the model.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from . import autodiff as ad
from .corpus import Corpus
from .encoder import HEAD_CLASSIFIER, AdaptiveEncoder, EncoderConfig
from .optim import adam_step


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


def length_buckets(lengths: list[int], batch_size: int, rng: np.random.Generator | None = None) -> list[np.ndarray]:
    """Index batches grouped by sentence length, optionally shuffled."""
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
    clip: float = 5.0,
    warmup: int = 0,
) -> tuple[AdaptiveEncoder, list[tuple[int, float]]]:
    """Train the pooled softmax classifier; fixed depth when no maps given.

    ``warmup`` linearly ramps the learning rate over the first steps,
    which deep post-norm stacks need when trained from scratch.
    Reproducible for a given seed: model init, dropout, shuffling and the
    step schedule all derive from it.
    """
    if depth_maps is not None:
        check_depth_alignment(corpus, depth_maps)
    model_seed, data_seed = np.random.SeedSequence(seed).spawn(2)
    encoder = AdaptiveEncoder(config, HEAD_CLASSIFIER, seed=int(model_seed.generate_state(1)[0]))
    data_rng = np.random.default_rng(data_seed)

    lengths = [len(d.tokens) for d in corpus.documents]
    log: list[tuple[int, float]] = []
    step = 0
    while step < steps:
        for idx in length_buckets(lengths, batch_size, data_rng):
            if step >= steps:
                break
            ids, gold, depths = gather_batch(corpus, idx, depth_maps)
            layers, _ = encoder.forward_graph(ids, depths, train=True)
            probs = encoder.classify_graph(layers[-1])
            loss = encoder.task_loss_graph(probs, gold)
            if not np.isfinite(loss.data):
                raise FloatingPointError(f"training diverged at step {step}: loss={loss.data}")
            encoder.store.zero_grad()
            ad.backward(loss)
            cur_lr = lr * min(1.0, (step + 1) / warmup) if warmup else lr
            adam_step(encoder.store, lr=cur_lr, clip=clip)
            step += 1
            log.append((step, float(loss.data)))
    return encoder, log


def write_train_log(path, log: list[tuple[int, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for step, loss in log:
            fh.write(f"{step}\t{loss:.8f}\n")
