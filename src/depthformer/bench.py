"""Accuracy evaluation and wall-clock benchmarks over exact compute counts.

Layer-application counts are the primary speed metric: they are integers
accumulated inside the forward pass into ``LayerCounts``, reproducible
anywhere. Wall-clock numbers are secondary and always reported as
min/median over repeated runs.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - present in normal installs
    threadpool_limits = None

from .corpus import Corpus
from .encoder import AdaptiveEncoder, LayerCounts
from .train import check_depth_alignment, gather_batch, length_buckets


def single_worker():
    """Pin BLAS to one thread while timing; counts are unaffected."""
    return threadpool_limits(limits=1) if threadpool_limits is not None else nullcontext()


def upper_median(values: list[int]) -> int:
    """The upper of the two middle values for an even count."""
    return sorted(values)[len(values) // 2]


def evaluate_classifier(
    encoder: AdaptiveEncoder,
    corpus: Corpus,
    depth_maps: list[np.ndarray] | None = None,
    batch_size: int = 1,
) -> tuple[float, LayerCounts]:
    """Accuracy plus exact counts merged over the split's batches, with one
    wall-clock entry per batch; batches share a length."""
    if depth_maps is not None:
        check_depth_alignment(corpus, depth_maps)
    total = LayerCounts()
    correct = 0
    lengths = [len(d.tokens) for d in corpus.documents]
    for idx in length_buckets(lengths, batch_size):
        ids, gold, depths = gather_batch(corpus, idx, depth_maps)
        start = time.perf_counter_ns()
        pred, _, counts = encoder.predict(ids, depths)
        counts.wall_ns.append(time.perf_counter_ns() - start)
        correct += int((pred == gold).sum())
        total.merge(counts)
    return correct / len(corpus.documents), total


# ---------------------------------------------------------------------------
# wall-clock benchmarking on synthetic input


def make_bench_depths(
    n_sentences: int,
    seq_len: int,
    n_layers: int,
    target_avg: float,
    seed: int = 0,
    deep_sentence_frac: float = 0.25,
    shallow_cap: int | None = None,
) -> list[np.ndarray]:
    """Random per-token depths whose overall token average is exactly
    ``target_avg`` (up to integer rounding of the grand total).

    Sentences are heterogeneous the way estimated depth files are: most
    stop at ``shallow_cap`` or earlier, a minority contains full-depth
    tokens. Batching such sentences together raises the batch-wide stop
    layer, which is the effect the batch-size benchmark exists to measure.
    """
    if not 1 <= target_avg <= n_layers:
        raise ValueError(f"target average {target_avg} outside [1, {n_layers}]")
    rng = np.random.default_rng(seed)
    shallow_hi = shallow_cap or max(2, min(n_layers, int(round(target_avg)) + 1))
    caps = np.where(
        rng.random(n_sentences) < deep_sentence_frac,
        n_layers,
        rng.integers(2, shallow_hi + 1, size=n_sentences),
    ).astype(np.int64)
    depths = np.stack(
        [rng.integers(1, cap + 1, size=seq_len).astype(np.int64) for cap in caps]
    )
    cap_grid = np.repeat(caps[:, None], seq_len, axis=1)
    target_total = int(round(target_avg * depths.size))
    flat, flat_caps = depths.ravel(), cap_grid.ravel()
    if target_total > int(flat_caps.sum()):
        raise ValueError(
            f"target average {target_avg} unreachable with deep_sentence_frac {deep_sentence_frac}"
        )
    delta = target_total - int(depths.sum())
    while delta != 0:
        i = int(rng.integers(0, flat.size))
        if delta > 0 and flat[i] < flat_caps[i]:
            flat[i] += 1
            delta -= 1
        elif delta < 0 and flat[i] > 1:
            flat[i] -= 1
            delta += 1
    return [row for row in flat.reshape(n_sentences, seq_len)]


@dataclass
class BenchRow:
    """Fixed and adaptive counts over the same sentences at one batch size;
    each holds the counts of one pass and the wall clock of every rep."""

    batch_size: int
    fixed: LayerCounts
    adaptive: LayerCounts

    @property
    def wall_speedup(self) -> float:
        # min-of-reps is the least noisy estimate of the true cost
        return min(self.fixed.wall_ns) / min(self.adaptive.wall_ns)

    @property
    def count_ratio(self) -> float:
        return self.adaptive.ffn_applications / self.fixed.ffn_applications

    HEADER = "batch_size\tfixed_min_ns\tfixed_median_ns\tadaptive_min_ns\tadaptive_median_ns\twall_speedup\tffn_fixed\tffn_adaptive\tcount_ratio\tkv_adaptive"

    def as_tsv(self) -> str:
        fixed, adaptive = self.fixed, self.adaptive
        return (
            f"{self.batch_size}\t{min(fixed.wall_ns)}\t{upper_median(fixed.wall_ns)}"
            f"\t{min(adaptive.wall_ns)}\t{upper_median(adaptive.wall_ns)}\t{self.wall_speedup:.3f}"
            f"\t{fixed.ffn_applications}\t{adaptive.ffn_applications}\t{self.count_ratio:.4f}"
            f"\t{adaptive.kv_projections}"
        )


def _timed_pass(
    encoder: AdaptiveEncoder,
    ids: np.ndarray,
    depth_rows: list[np.ndarray] | None,
    batch_size: int,
) -> LayerCounts:
    """One pass over every sentence at the given batch size (the last batch
    may be partial); its wall clock is the one ``wall_ns`` entry."""
    total = LayerCounts()
    start = time.perf_counter_ns()
    for lo in range(0, ids.shape[0], batch_size):
        chunk = ids[lo : lo + batch_size]
        depths = np.stack(depth_rows[lo : lo + batch_size]) if depth_rows is not None else None
        _, counts = encoder.forward_infer(chunk, depths)
        total.merge(counts)
    total.wall_ns.append(time.perf_counter_ns() - start)
    return total


def bench_compare(
    encoder: AdaptiveEncoder,
    ids: np.ndarray,
    depth_rows: list[np.ndarray],
    batch_sizes: list[int],
    reps: int = 5,
) -> list[BenchRow]:
    """Fixed-depth vs adaptive wall clock over the same sentences.

    All configurations are measured in interleaved rounds (one timed pass
    each per round) after an untimed warmup, so slow drift in machine
    load hits every configuration equally. Counts come from the measured
    passes themselves.
    """
    with single_worker():
        return _bench_compare(encoder, ids, depth_rows, batch_sizes, reps)


def _bench_compare(encoder, ids, depth_rows, batch_sizes, reps):
    configs = [(b, rows) for b in batch_sizes for rows in (None, depth_rows)]
    for batch_size, rows in configs:  # warmup
        _timed_pass(encoder, ids, rows, batch_size)
    # every rep does the same work, so the first rep's counts stand for all
    measured: dict[tuple[int, bool], LayerCounts] = {}
    for _ in range(reps):
        for batch_size, rows in configs:
            counts = _timed_pass(encoder, ids, rows, batch_size)
            key = (batch_size, rows is not None)
            if key in measured:
                measured[key].wall_ns.extend(counts.wall_ns)
            else:
                measured[key] = counts
    return [BenchRow(b, fixed=measured[b, False], adaptive=measured[b, True]) for b in batch_sizes]
