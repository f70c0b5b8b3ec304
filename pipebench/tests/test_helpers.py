"""Tests for the benchmark's own helpers: run with
``python -m pytest pipebench/tests`` from the repository root."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from pipebench.spans import Span, Target, Tracer, covered_ns, patched, self_times_ns  # noqa: E402
from pipebench.stats import expected_kv_projections, nearest_rank, tail_percentile  # noqa: E402

# ---------------------------------------------------------------------------
# percentile rule


@pytest.mark.parametrize(
    "n, pct",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, pct):
    values = [float(v) for v in range(1, n + 1)]
    tail = tail_percentile(values[::-1])  # order of the input does not matter
    if pct is None:
        assert tail is None
        return
    got_pct, value = tail
    assert got_pct == pct
    assert sum(v > value for v in values) >= 10
    assert value == nearest_rank(values, pct)


def test_p90_of_hundred_samples_leaves_exactly_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert tail_percentile(values) == (90.0, 90.0)


def test_nearest_rank_edges():
    assert nearest_rank([5.0], 50.0) == 5.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
    with pytest.raises(ValueError):
        nearest_rank([], 50.0)


# ---------------------------------------------------------------------------
# span self time


def _span(name, start, end, parent=None):
    return Span(name, start, end, parent, "run")


def test_self_time_subtracts_direct_children_once():
    spans = [
        _span("root", 0, 100),
        _span("child", 10, 60, parent=0),
        _span("grandchild", 20, 30, parent=1),
        _span("child2", 70, 80, parent=0),
    ]
    assert self_times_ns(spans) == [100 - 50 - 10, 50 - 10, 10, 10]
    assert sum(self_times_ns(spans)) == spans[0].duration_ns


def test_covered_merges_overlaps_and_clips_to_parent():
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 40 + 10
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(50, 60, [(0, 10), (70, 80)]) == 0


def test_tracer_nests_and_patched_restores_every_binding():
    base = types.ModuleType("fakepkg.base")
    user = types.ModuleType("fakepkg.user")

    def inner(x):
        return x + 1

    def outer(x):
        return base.inner(x) * 2

    base.inner, base.outer = inner, outer
    user.inner = inner  # bound by name, as ``from .base import inner`` does
    sys.modules.update({"fakepkg.base": base, "fakepkg.user": user})
    try:
        tracer = Tracer("run-1")
        seen = []
        targets = [
            Target(base, "outer", "base.outer"),
            Target(base, "inner", "base.inner", lambda a, k, r, s: seen.append((a, r))),
        ]
        with patched(tracer, targets, package="fakepkg"):
            assert base.outer(1) == 4
            assert user.inner(5) == 6
        assert base.inner is inner and user.inner is inner and base.outer is outer
        names = [(s.name, s.parent) for s in tracer.spans]
        assert names == [("base.outer", None), ("base.inner", 0), ("base.inner", None)]
        assert {s.run_id for s in tracer.spans} == {"run-1"}
        assert all(s.end_ns >= s.start_ns for s in tracer.spans)
        assert seen == [((1,), 2), ((5,), 6)]
    finally:
        del sys.modules["fakepkg.base"], sys.modules["fakepkg.user"]


def test_patched_restores_after_an_exception():
    class Owner:
        def method(self):
            raise KeyError("boom")

    original = Owner.__dict__["method"]
    tracer = Tracer("run-2")
    with pytest.raises(KeyError):
        with patched(tracer, [Target(Owner, "method", "owner.method")]):
            Owner().method()
    assert Owner.__dict__["method"] is original
    assert tracer.spans[0].end_ns >= tracer.spans[0].start_ns


def test_tracer_reads_span_times_from_its_clock():
    ticks = iter(range(0, 100, 10))
    tracer = Tracer("run-3", clock=lambda: next(ticks))
    outer = tracer.wrap(lambda: inner(), "outer")
    inner = tracer.wrap(lambda: None, "inner")
    outer()
    assert [(s.name, s.start_ns, s.end_ns) for s in tracer.spans] == [("outer", 0, 30), ("inner", 10, 20)]
    assert self_times_ns(tracer.spans) == [20, 10]


# ---------------------------------------------------------------------------
# batch-coupling formula


def test_kv_formula_by_hand():
    # lengths 2, 2, 3 at batch 2: [d0, d1] then [d2]
    maps = [[1, 4], [2, 2], [3, 1, 1]]
    assert expected_kv_projections(maps, 2) == 4 * 2 * 2 + 3 * 1 * 3
    assert expected_kv_projections(maps, 1) == 4 * 2 + 2 * 2 + 3 * 3


def test_kv_formula_matches_layer_counts_on_tiny_encoder(tmp_path):
    from depthformer.bench import evaluate_classifier
    from depthformer.corpus import load_tsv
    from depthformer.encoder import AdaptiveEncoder, EncoderConfig, LayerCounts

    rng = np.random.default_rng(0)
    words = [f"w{i}" for i in range(12)]
    lengths = [3, 5, 3, 5, 5, 3, 7, 3, 5]
    rows = [f"{'ab'[i % 2]}\t{' '.join(rng.choice(words, size=n))}" for i, n in enumerate(lengths)]
    (tmp_path / "docs.tsv").write_text("\n".join(rows) + "\n")
    corpus = load_tsv(tmp_path / "docs.tsv")
    config = EncoderConfig(vocab_size=len(corpus.vocab), n_labels=2, n_layers=4, d_model=8, n_heads=2,
                           d_ff=16, max_len=8)
    encoder = AdaptiveEncoder(config, "cls", seed=0)
    depth_maps = [rng.integers(1, 5, size=n) for n in lengths]

    for batch_size in (1, 2, 3):
        want = expected_kv_projections([m.tolist() for m in depth_maps], batch_size)
        _, report = evaluate_classifier(encoder, corpus, depth_maps, batch_size=batch_size)
        assert report.kv_projections == want
        # the same sum from LayerCounts of forward passes batched by hand
        total = LayerCounts()
        for n in sorted(set(lengths)):
            idx = [i for i, m in enumerate(lengths) if m == n]
            for lo in range(0, len(idx), batch_size):
                chunk = idx[lo : lo + batch_size]
                ids = np.stack([corpus.documents[i].tokens for i in chunk])
                _, counts = encoder.forward_infer(ids, np.stack([depth_maps[i] for i in chunk]))
                total.merge(counts)
        assert total.kv_projections == want
        assert total.ffn_applications == sum(int(m.sum()) for m in depth_maps)
