"""Acceptance suite: one test per release criterion, budgets included.

The terminal summary (see conftest) prints one PASS/FAIL line per
criterion. Wall-clock-sensitive tests run with BLAS pinned to a single
thread, which the conftest arranges before numpy loads.
"""

import time

import numpy as np
import pytest

from depthformer import autodiff as ad
from depthformer import bench, mi, recon
from depthformer.corpus import collect_stats, load_tsv
from depthformer.encoder import AdaptiveEncoder, EncoderConfig
from depthformer.train import FitSettings, train_classifier

from oracles import oracle_mi, random_corpus_lines

N_LAYERS = 12


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def mi_artifacts(synth_train, synth_test):
    table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, N_LAYERS)
    return {
        "table": table,
        "train_maps": mi.corpus_depth_maps(table, synth_train),
        "test_maps": mi.corpus_depth_maps(table, synth_test),
    }


MLM_BUDGET = FitSettings(steps=500, lr=1e-3, batch_size=16)


@pytest.fixture(scope="module")
def mlm_run(synth_train):
    config = EncoderConfig(
        vocab_size=len(synth_train.vocab),
        n_labels=synth_train.n_labels,
        n_layers=N_LAYERS,
        d_model=48,
        n_heads=4,
        d_ff=128,
        dropout=0.1,
        max_len=32,
        precision="f32",
    )
    start = time.perf_counter()
    result = recon.train_mlm(synth_train, config, MLM_BUDGET, seed=0, eval_every=50)
    elapsed = time.perf_counter() - start
    return {"config": config, "result": result, "train_seconds": elapsed}


CLS_BUDGET = FitSettings(steps=250, lr=5e-4, batch_size=16, warmup=50)


@pytest.fixture(scope="module")
def parity_runs(synth_train, synth_test, mi_artifacts):
    config = EncoderConfig(
        vocab_size=len(synth_train.vocab),
        n_labels=synth_train.n_labels,
        n_layers=N_LAYERS,
        d_model=64,
        n_heads=4,
        d_ff=256,
        dropout=0.1,
        max_len=32,
        precision="f32",
    )
    start = time.perf_counter()
    adaptive_acc, fixed_acc = [], []
    reports = []
    for seed in (0, 1, 2):
        enc_a, _ = train_classifier(synth_train, config, CLS_BUDGET, seed=seed, depth_maps=mi_artifacts["train_maps"])
        acc_a, report = bench.evaluate_classifier(
            enc_a, synth_test, mi_artifacts["test_maps"], batch_size=8
        )
        enc_f, _ = train_classifier(synth_train, config, CLS_BUDGET, seed=seed)
        acc_f, _ = bench.evaluate_classifier(enc_f, synth_test, batch_size=8)
        adaptive_acc.append(acc_a)
        fixed_acc.append(acc_f)
        reports.append(report)
    elapsed = time.perf_counter() - start
    return {
        "adaptive": adaptive_acc,
        "fixed": fixed_acc,
        "reports": reports,
        "seconds": elapsed,
    }


def bench_encoder(seq_len):
    config = EncoderConfig(
        vocab_size=1000,
        n_labels=2,
        n_layers=N_LAYERS,
        d_model=128,
        n_heads=4,
        d_ff=512,
        dropout=0.1,
        max_len=seq_len,
        precision="f32",
    )
    return AdaptiveEncoder(config, head="cls", seed=0)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_mi_oracle_equivalence(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_checked = 0
    for trial in range(50):
        path = tmp_path / f"c{trial}.tsv"
        path.write_text("\n".join(random_corpus_lines(rng)) + "\n", encoding="utf-8")
        corpus = load_tsv(path)
        table = mi.build_mi_table(collect_stats(corpus), corpus.vocab, N_LAYERS, smoothing=0.1)
        docs = [
            ({corpus.vocab.id_to_word[i] for i in d.tokens}, d.label)
            for d in corpus.documents
        ]
        for wid, got in zip(table.word_ids, table.mi):
            word = corpus.vocab.id_to_word[int(wid)]
            want = oracle_mi(docs, word, range(corpus.n_labels), 0.1)
            assert abs(got - want) < 1e-12, (trial, word)
            n_checked += 1
    elapsed = time.perf_counter() - start
    assert n_checked > 500
    assert elapsed < 5.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_02_full_depth_equivalence():
    start = time.perf_counter()
    config = EncoderConfig(
        vocab_size=64, n_labels=2, n_layers=4, d_model=32, n_heads=4,
        d_ff=64, dropout=0.1, max_len=24, precision="f64",
    )
    enc = AdaptiveEncoder(config, head="cls", seed=5)
    rng = np.random.default_rng(0)
    for _ in range(100):
        ids = rng.integers(3, 64, size=(1, int(rng.integers(2, 24))))
        plain, c_plain = enc.forward_infer(ids, None)
        adaptive, c_ad = enc.forward_infer(ids, np.full(ids.shape, 4))
        assert np.array_equal(plain, adaptive)
        assert np.array_equal(enc.classify_infer(plain), enc.classify_infer(adaptive))
        assert c_plain.ffn_applications == c_ad.ffn_applications
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_03_copy_invariance():
    start = time.perf_counter()
    config = EncoderConfig(
        vocab_size=64, n_labels=2, n_layers=6, d_model=32, n_heads=4,
        d_ff=64, dropout=0.1, max_len=16, precision="f64",
    )
    enc = AdaptiveEncoder(config, head="cls", seed=6)
    rng = np.random.default_rng(1)
    for _ in range(30):
        batch = int(rng.integers(1, 4))
        time_steps = int(rng.integers(2, 16))
        ids = rng.integers(3, 64, size=(batch, time_steps))
        depths = rng.integers(1, 7, size=ids.shape)
        layers, _ = enc.forward_infer(ids, depths, collect_layers=True)
        for b in range(batch):
            for t in range(time_steps):
                stop = int(depths[b, t])
                for n in range(stop, len(layers)):
                    assert np.array_equal(layers[n][b, t], layers[stop - 1][b, t])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion budget exceeded: {elapsed:.1f}s"


def _sampled_gradient_check(enc, loss_fn, eps=1e-4, per_tensor=8):
    enc.store.zero_grad()
    ad.backward(loss_fn())
    worst = 0.0
    sampler = np.random.default_rng(0)
    for p in enc.store.params.values():
        flat = p.data.ravel()
        for i in sampler.choice(flat.size, min(per_tensor, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(loss_fn().data)
            flat[i] = orig - eps
            down = float(loss_fn().data)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            a = p.grad.ravel()[i]
            worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-3))
    return worst


def test_criterion_04_gradient_check():
    start = time.perf_counter()
    config = EncoderConfig(
        vocab_size=16, n_labels=2, n_layers=2, d_model=8, n_heads=2,
        d_ff=16, dropout=0.0, max_len=8, precision="f64",
    )
    rng = np.random.default_rng(3)
    ids = rng.integers(3, 16, size=(2, 5))
    depths = np.array([[1, 2, 1, 2, 1], [2, 1, 2, 1, 2]])
    gold = np.array([0, 1])

    cls = AdaptiveEncoder(config, head="cls", seed=4)

    def cls_loss():
        layers, _ = cls.forward_graph(ids, depths, train=False)
        return cls.classifier_loss_graph(layers[-1], gold)

    worst_cls = _sampled_gradient_check(cls, cls_loss)

    mlm = AdaptiveEncoder(config, head="mlm", seed=4)
    masked_idx = np.array([1, 4, 7])
    true_ids = np.array([5, 9, 3])

    def mlm_loss():
        loss, _ = mlm.mlm_anytime_loss_graph(ids, masked_idx, true_ids, train=False)
        return loss

    worst_mlm = _sampled_gradient_check(mlm, mlm_loss)

    elapsed = time.perf_counter() - start
    assert worst_cls < 1e-4, f"classifier-loss gradient error {worst_cls:.2e}"
    assert worst_mlm < 1e-4, f"anytime-loss gradient error {worst_mlm:.2e}"
    assert elapsed < 60.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_05_exact_compute_savings():
    seq_len, n_sentences = 256, 4
    enc = bench_encoder(seq_len)
    ids = np.random.default_rng(0).integers(3, 1000, size=(n_sentences, seq_len))
    depth_rows = bench.make_bench_depths(n_sentences, seq_len, N_LAYERS, N_LAYERS / 4, seed=0)
    avg = float(np.concatenate(depth_rows).mean())
    assert avg == pytest.approx(N_LAYERS / 4, abs=1e-9)

    rows = bench.bench_compare(enc, ids, depth_rows, [1], reps=5)
    row = rows[0]
    assert row.fixed.ffn_applications == N_LAYERS * n_sentences * seq_len
    assert row.adaptive.ffn_applications == sum(int(r.sum()) for r in depth_rows)
    assert row.count_ratio <= 0.30
    assert row.wall_speedup >= 2.0, f"wall-clock speedup only {row.wall_speedup:.2f}x"


def test_criterion_06_lambda_sweep_monotonic(mlm_run, synth_test):
    start = time.perf_counter()
    profiles = recon.corpus_profiles(mlm_run["result"].encoder, synth_test)
    avgs = [
        recon.average_depth(recon.depths_from_profiles(profiles, lam))
        for lam in (0.0, 0.05, 0.1, 0.15, 0.2)
    ]
    elapsed = time.perf_counter() - start + mlm_run["train_seconds"]
    assert all(b <= a for a, b in zip(avgs, avgs[1:])), avgs
    assert any(b < a for a, b in zip(avgs, avgs[1:])), avgs
    assert elapsed < 600.0, f"criterion budget exceeded: {elapsed:.1f}s"


def test_criterion_07_batch_size_effect():
    seq_len, n_sentences = 128, 30
    enc = bench_encoder(seq_len)
    ids = np.random.default_rng(0).integers(3, 1000, size=(n_sentences, seq_len))
    depth_rows = bench.make_bench_depths(
        n_sentences, seq_len, N_LAYERS, 2.2, seed=0, deep_sentence_frac=0.25, shallow_cap=2
    )
    # both batches of 15 must contain a full-depth sentence, otherwise the
    # coupling effect under test cannot show up in the second batch
    n_max = np.asarray([r.max() for r in depth_rows])
    assert n_max[:15].max() == N_LAYERS and n_max[15:].max() == N_LAYERS
    rows = bench.bench_compare(enc, ids, depth_rows, [1, 15], reps=9)
    by_batch = {r.batch_size: r for r in rows}
    assert by_batch[15].wall_speedup <= by_batch[1].wall_speedup, (
        f"batch 15 speedup {by_batch[15].wall_speedup:.2f} "
        f"vs batch 1 {by_batch[1].wall_speedup:.2f}"
    )


def test_criterion_08_accuracy_parity(parity_runs):
    adaptive, fixed = np.mean(parity_runs["adaptive"]), np.mean(parity_runs["fixed"])
    gap = abs(adaptive - fixed)
    assert gap <= 0.02, f"adaptive mean {adaptive:.4f} vs fixed mean {fixed:.4f} (gap {gap:.4f})"
    for counts in parity_runs["reports"]:
        ratio = counts.ffn_applications / (N_LAYERS * counts.n_tokens)
        assert ratio <= 0.30, f"count ratio {ratio:.3f}"
    assert parity_runs["seconds"] < 1800.0, f"criterion budget exceeded: {parity_runs['seconds']:.0f}s"


def test_criterion_09_mlm_training_sanity(mlm_run):
    result = mlm_run["result"]
    heldout = dict(result.heldout_log)
    assert heldout[500] < heldout[50], heldout
    early = np.mean([r.loss for r in result.log if 41 <= r.step <= 50])
    late = np.mean([r.loss for r in result.log if 491 <= r.step <= 500])
    assert late < early, (early, late)


def test_criterion_10_determinism(synth_train, mi_artifacts, mlm_run):
    # criterion 1 path: identical MI tables from identical statistics
    rebuilt = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, N_LAYERS)
    table = mi_artifacts["table"]
    assert np.array_equal(rebuilt.mi, table.mi)
    assert np.array_equal(rebuilt.mi_log, table.mi_log)
    assert np.array_equal(rebuilt.depth, table.depth)

    # criteria 2-3 path: bit-identical forward passes, fixed and adaptive
    config = EncoderConfig(
        vocab_size=64, n_labels=2, n_layers=4, d_model=32, n_heads=4,
        d_ff=64, dropout=0.1, max_len=16, precision="f64",
    )
    enc = AdaptiveEncoder(config, head="cls", seed=5)
    ids = np.random.default_rng(2).integers(3, 64, size=(3, 11))
    depths = np.random.default_rng(3).integers(1, 5, size=ids.shape)
    for d in (None, depths):
        first, c1 = enc.forward_infer(ids, d)
        second, c2 = enc.forward_infer(ids, d)
        assert np.array_equal(first, second)
        assert (c1.ffn_applications, c1.kv_projections) == (c2.ffn_applications, c2.kv_projections)

    # criterion 4 path: gradients are reproducible bit for bit
    def loss_fn():
        layers, _ = enc.forward_graph(ids, depths, train=False)
        return enc.classifier_loss_graph(layers[-1], np.array([0, 1, 0]))

    grads = []
    for _ in range(2):
        enc.store.zero_grad()
        ad.backward(loss_fn())
        grads.append({n: p.grad.copy() for n, p in enc.store.params.items()})
    assert all(np.array_equal(grads[0][n], grads[1][n]) for n in grads[0])

    # criterion 5 path: depth files and exact counts reproduce
    a = bench.make_bench_depths(4, 64, N_LAYERS, 3.0, seed=9)
    b = bench.make_bench_depths(4, 64, N_LAYERS, 3.0, seed=9)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))

    # criterion 6 path: retraining the MLM with the same seed reproduces
    # the checkpoint bit for bit, hence the whole sweep
    rerun = recon.train_mlm(synth_train, mlm_run["config"], MLM_BUDGET, seed=0, eval_every=50)
    for name, p in rerun.encoder.store.params.items():
        assert np.array_equal(p.data, mlm_run["result"].encoder.store.params[name].data), name
