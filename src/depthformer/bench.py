"""Exact compute accounting, accuracy evaluation, and wall-clock benchmarks.

Layer-application counts are the primary speed metric: they are integers
accumulated inside the forward pass, reproducible anywhere. Wall-clock
numbers are secondary and always reported as min/median over repeated
runs.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover - present in normal installs
    threadpool_limits = None

from .corpus import Corpus
from .encoder import AdaptiveEncoder, LayerCounts
from .train import check_depth_alignment, length_buckets


def single_worker():
    """Pin BLAS to one thread while timing; counts are unaffected."""
    return threadpool_limits(limits=1) if threadpool_limits is not None else nullcontext()


@dataclass
class ComputeReport:
    """Work done by a sequence of forward passes."""

    n_layers: int
    batch_size: int
    ffn_applications: int = 0
    kv_projections: int = 0
    n_tokens: int = 0
    n_sentences: int = 0
    wall_clock_ns: list[int] = field(default_factory=list)

    def add_batch(self, counts: LayerCounts, n_tokens: int, n_sentences: int, elapsed_ns: int) -> None:
        self.ffn_applications += counts.ffn_applications
        self.kv_projections += counts.kv_projections
        self.n_tokens += n_tokens
        self.n_sentences += n_sentences
        self.wall_clock_ns.append(elapsed_ns)

    @property
    def fixed_ffn_applications(self) -> int:
        """What a fixed-depth pass over the same tokens would execute."""
        return self.n_layers * self.n_tokens

    @property
    def count_ratio(self) -> float:
        return self.ffn_applications / self.fixed_ffn_applications

    @property
    def total_wall_ns(self) -> int:
        return int(sum(self.wall_clock_ns))

    def wall_summary_ns(self) -> tuple[int, int]:
        times = sorted(self.wall_clock_ns)
        return times[0], times[len(times) // 2]


@dataclass
class RunSummary:
    """Accuracy spread over independently seeded runs."""

    accuracies: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies))

    @property
    def variance(self) -> float:
        return float(np.var(self.accuracies))


def evaluate_classifier(
    encoder: AdaptiveEncoder,
    corpus: Corpus,
    depth_maps: list[np.ndarray] | None = None,
    batch_size: int = 1,
) -> tuple[float, ComputeReport]:
    """Accuracy plus exact counts over a split; batches share a length."""
    if depth_maps is not None:
        check_depth_alignment(corpus, depth_maps)
    report = ComputeReport(n_layers=encoder.config.n_layers, batch_size=batch_size)
    correct = 0
    lengths = [len(d.tokens) for d in corpus.documents]
    for idx in length_buckets(lengths, batch_size):
        ids = np.stack([corpus.documents[i].tokens for i in idx])
        depths = np.stack([depth_maps[i] for i in idx]) if depth_maps is not None else None
        gold = np.asarray([corpus.documents[i].label for i in idx])
        start = time.perf_counter_ns()
        pred, _, counts = encoder.predict(ids, depths)
        elapsed = time.perf_counter_ns() - start
        correct += int((pred == gold).sum())
        report.add_batch(counts, ids.size, len(idx), elapsed)
    return correct / len(corpus.documents), report


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
    batch_size: int
    fixed_min_ns: int
    fixed_median_ns: int
    adaptive_min_ns: int
    adaptive_median_ns: int
    ffn_fixed: int
    ffn_adaptive: int
    kv_adaptive: int

    @property
    def wall_speedup(self) -> float:
        # min-of-reps is the least noisy estimate of the true cost
        return self.fixed_min_ns / self.adaptive_min_ns

    @property
    def count_ratio(self) -> float:
        return self.ffn_adaptive / self.ffn_fixed

    HEADER = "batch_size\tfixed_min_ns\tfixed_median_ns\tadaptive_min_ns\tadaptive_median_ns\twall_speedup\tffn_fixed\tffn_adaptive\tcount_ratio\tkv_adaptive"

    def as_tsv(self) -> str:
        return (
            f"{self.batch_size}\t{self.fixed_min_ns}\t{self.fixed_median_ns}"
            f"\t{self.adaptive_min_ns}\t{self.adaptive_median_ns}\t{self.wall_speedup:.3f}"
            f"\t{self.ffn_fixed}\t{self.ffn_adaptive}\t{self.count_ratio:.4f}\t{self.kv_adaptive}"
        )


def _timed_pass(
    encoder: AdaptiveEncoder,
    ids: np.ndarray,
    depth_rows: list[np.ndarray] | None,
    batch_size: int,
) -> tuple[int, LayerCounts]:
    """One full pass over the sentences at the given batch size."""
    total = LayerCounts()
    n = (ids.shape[0] // batch_size) * batch_size
    start = time.perf_counter_ns()
    for lo in range(0, n, batch_size):
        chunk = ids[lo : lo + batch_size]
        depths = np.stack(depth_rows[lo : lo + batch_size]) if depth_rows is not None else None
        _, counts = encoder.forward_infer(chunk, depths)
        total.merge(counts)
    elapsed = time.perf_counter_ns() - start
    return elapsed, total


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
    times: dict[int, dict[bool, list[int]]] = {b: {False: [], True: []} for b in batch_sizes}
    counts: dict[int, dict[bool, LayerCounts]] = {b: {} for b in batch_sizes}
    for batch_size, rows in configs:  # warmup
        _timed_pass(encoder, ids, rows, batch_size)
    for _ in range(reps):
        for batch_size, rows in configs:
            t, c = _timed_pass(encoder, ids, rows, batch_size)
            adaptive = rows is not None
            times[batch_size][adaptive].append(t)
            counts[batch_size][adaptive] = c

    out = []
    for batch_size in batch_sizes:
        fixed_times = sorted(times[batch_size][False])
        adaptive_times = sorted(times[batch_size][True])
        out.append(
            BenchRow(
                batch_size=batch_size,
                fixed_min_ns=fixed_times[0],
                fixed_median_ns=fixed_times[len(fixed_times) // 2],
                adaptive_min_ns=adaptive_times[0],
                adaptive_median_ns=adaptive_times[len(adaptive_times) // 2],
                ffn_fixed=counts[batch_size][False].ffn_applications,
                ffn_adaptive=counts[batch_size][True].ffn_applications,
                kv_adaptive=counts[batch_size][True].kv_projections,
            )
        )
    return out
