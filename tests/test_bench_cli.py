"""End-to-end CLI runs on a tiny synthetic dataset, plus bench helpers."""

import numpy as np
import pytest

from depthformer import bench, mi
from depthformer.bench import make_bench_depths
from depthformer.cli import main
from depthformer.corpus import load_tsv
from depthformer.encoder import AdaptiveEncoder


TINY_NET = ["--n-layers", "2", "--d-model", "16", "--n-heads", "2", "--d-ff", "32"]
TINY_MODEL = [*TINY_NET, "--max-len", "32"]


def batch_coupled_kv(depth_rows, batch_size):
    """Σ n_max·B·T over consecutive batches: every position of a batch
    projects keys/values until the batch's deepest token stops."""
    total = 0
    for lo in range(0, len(depth_rows), batch_size):
        chunk = np.stack(depth_rows[lo : lo + batch_size])
        total += int(chunk.max()) * chunk.size
    return total


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset, MI depth files, and a tiny trained classifier + MLM."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["gen-data", "--out-dir", str(data), "--n-train", "60", "--n-test", "20", "--seed", "0"]) == 0

    depths = root / "mi"
    assert main([
        "depths", "--mode", "mi", "--train-tsv", str(data / "train.tsv"),
        "--test-tsv", str(data / "test.tsv"), "--out-dir", str(depths), "--n-bins", "2",
    ]) == 0

    cls_ckpt = root / "cls.ckpt"
    assert main([
        "train", "--task", "cls", "--train-tsv", str(data / "train.tsv"),
        "--out", str(cls_ckpt), "--steps", "4", "--batch-size", "8", "--seed", "0", *TINY_MODEL,
    ]) == 0

    mlm_ckpt = root / "mlm.ckpt"
    assert main([
        "train", "--task", "mlm", "--train-tsv", str(data / "train.tsv"),
        "--out", str(mlm_ckpt), "--steps", "4", "--batch-size", "8", "--seed", "0", *TINY_MODEL,
    ]) == 0
    return root


class TestGenData:
    def test_files_exist_with_requested_sizes(self, workdir):
        train = (workdir / "data" / "train.tsv").read_text().splitlines()
        test = (workdir / "data" / "test.tsv").read_text().splitlines()
        assert len(train) == 60 and len(test) == 20
        assert all("\t" in line for line in train)


class TestDepthsMi:
    def test_outputs_written(self, workdir):
        out = workdir / "mi"
        for name in ("vocab.tsv", "mi_table.tsv", "train.depths", "test.depths", "mi_hist.tsv"):
            assert (out / name).exists(), name

    def test_depth_files_align_with_corpora(self, workdir):
        corpus = load_tsv(workdir / "data" / "train.tsv")
        maps = mi.read_depth_file(workdir / "mi" / "train.depths")
        assert len(maps) == len(corpus.documents)
        assert all(len(m) == len(d.tokens) for m, d in zip(maps, corpus.documents))

    def test_corpus_config_keeps_flags_it_does_not_set(self, workdir, tmp_path):
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text("lowercase = false\n", encoding="utf-8")
        assert main([
            "depths", "--mode", "mi", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--out-dir", str(tmp_path / "out"),
            "--max-len", "5", "--corpus-config", str(cfg),
        ]) == 0
        maps = mi.read_depth_file(tmp_path / "out" / "train.depths")
        assert maps and all(len(m) == 5 for m in maps)


class TestTrainAndEval:
    def test_checkpoint_sidecars_written(self, workdir):
        assert (workdir / "cls.ckpt").exists()
        assert (workdir / "cls.ckpt.meta").exists()
        assert (workdir / "cls.ckpt.vocab.tsv").exists()
        log = (workdir / "cls.ckpt.log").read_text().splitlines()
        assert len(log) == 4
        step, loss = log[0].split("\t")
        assert step == "1" and float(loss) > 0

    def test_eval_reports_counts(self, workdir, capsys):
        assert main([
            "eval", "--ckpt", str(workdir / "cls.ckpt"),
            "--data-tsv", str(workdir / "data" / "test.tsv"),
            "--batch-size", "4", "--reps", "1",
        ]) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
        assert 0.0 <= float(lines["accuracy"]) <= 1.0
        assert int(lines["ffn_applications"]) == int(lines["fixed_ffn_applications"])
        assert float(lines["count_ratio"]) == 1.0

    def test_constant_full_depth_file_equals_no_file(self, workdir, tmp_path, capsys):
        corpus = load_tsv(workdir / "data" / "test.tsv")
        full = [np.full(len(d.tokens), 2, dtype=np.int64) for d in corpus.documents]
        depth_file = tmp_path / "full.depths"
        mi.write_depth_file(depth_file, full)

        def run(extra):
            assert main([
                "eval", "--ckpt", str(workdir / "cls.ckpt"),
                "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1", *extra,
            ]) == 0
            return dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())

        base = run([])
        with_file = run(["--depths", str(depth_file)])
        assert base["accuracy"] == with_file["accuracy"]
        assert base["ffn_applications"] == with_file["ffn_applications"]

    def test_eval_precision_override(self, workdir, capsys):
        def run(extra):
            assert main([
                "eval", "--ckpt", str(workdir / "cls.ckpt"),
                "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1", *extra,
            ]) == 0
            return dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())

        base = run([])
        double = run(["--precision", "f64"])
        assert base["accuracy"] == double["accuracy"]
        assert base["ffn_applications"] == double["ffn_applications"]

    def test_adaptive_training_runs(self, workdir, tmp_path):
        out = tmp_path / "ad.ckpt"
        assert main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--depths", str(workdir / "mi" / "train.depths"),
            "--out", str(out), "--steps", "3", "--batch-size", "8", "--seed", "1", *TINY_MODEL,
        ]) == 0
        assert out.exists()

    def test_eval_rejects_checkpoint_missing_a_tensor(self, workdir, tmp_path, capsys):
        import shutil

        from depthformer.checkpoint import load_checkpoint, save_checkpoint

        arrays, meta = load_checkpoint(workdir / "cls.ckpt")
        del arrays["layer1.ffn.w2"]
        save_checkpoint(tmp_path / "cut.ckpt", arrays, meta)
        shutil.copy(workdir / "cls.ckpt.vocab.tsv", tmp_path / "cut.ckpt.vocab.tsv")
        code = main([
            "eval", "--ckpt", str(tmp_path / "cut.ckpt"),
            "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1",
        ])
        assert code == 2
        assert "error: checkpoint is missing parameters: layer1.ffn.w2" in capsys.readouterr().err

    def test_eval_rejects_checkpoint_with_an_extra_tensor(self, workdir, tmp_path, capsys):
        import shutil

        from depthformer.checkpoint import load_checkpoint, save_checkpoint

        arrays, meta = load_checkpoint(workdir / "cls.ckpt")
        arrays["layer99.extra"] = np.zeros(3, dtype=np.float32)
        save_checkpoint(tmp_path / "extra.ckpt", arrays, meta)
        shutil.copy(workdir / "cls.ckpt.vocab.tsv", tmp_path / "extra.ckpt.vocab.tsv")
        code = main([
            "eval", "--ckpt", str(tmp_path / "extra.ckpt"),
            "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1",
        ])
        assert code == 2
        assert "error: checkpoint has unknown parameters: layer99.extra" in capsys.readouterr().err

    def test_eval_tokenizes_at_the_trained_max_len(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "corpus.cfg"
        cfg.write_text("max_len = 8\n", encoding="utf-8")
        ckpt = tmp_path / "short.ckpt"
        assert main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(ckpt), "--steps", "1", "--batch-size", "8", "--seed", "0",
            *TINY_MODEL, "--corpus-config", str(cfg),
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--ckpt", str(ckpt), "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1",
        ]) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
        assert int(lines["n_tokens"]) == 20 * 8  # twelve-token documents cut at 8

    def test_misaligned_depth_file_is_an_error(self, workdir, tmp_path, capsys):
        mi.write_depth_file(tmp_path / "bad.depths", [np.array([1, 2])])
        code = main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--depths", str(tmp_path / "bad.depths"),
            "--out", str(tmp_path / "x.ckpt"), "--steps", "1", *TINY_MODEL,
        ])
        assert code == 2
        assert "depth file" in capsys.readouterr().err

    def test_constant_full_depth_training_equals_fixed_baseline(self, workdir):
        # an all-max depth file never takes the copy branch, so training
        # reduces to the fixed-depth baseline bit for bit
        from depthformer.encoder import EncoderConfig
        from depthformer.train import train_classifier

        corpus = load_tsv(workdir / "data" / "train.tsv")
        config = EncoderConfig(
            vocab_size=len(corpus.vocab), n_labels=corpus.n_labels, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=32, precision="f32",
        )
        full = [np.full(len(d.tokens), 2, dtype=np.int64) for d in corpus.documents]
        enc_maps, _ = train_classifier(corpus, config, steps=3, batch_size=8, seed=5, depth_maps=full)
        enc_none, _ = train_classifier(corpus, config, steps=3, batch_size=8, seed=5)
        for name, p in enc_maps.store.params.items():
            assert np.array_equal(p.data, enc_none.store.params[name].data), name

    def test_same_seed_reproduces_checkpoint(self, workdir, tmp_path):
        args = [
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--steps", "3", "--batch-size", "8", "--seed", "7", *TINY_MODEL,
        ]
        assert main(args + ["--out", str(tmp_path / "a.ckpt")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.ckpt")]) == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


class TestDepthsRecon:
    def test_missing_checkpoint_is_an_error(self, workdir, tmp_path, capsys):
        code = main([
            "depths", "--mode", "recon", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            "--out-dir", str(tmp_path), "--mlm-ckpt", str(tmp_path / "nope.ckpt"),
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_writes_depths_and_summary(self, workdir, tmp_path):
        out = tmp_path / "recon"
        assert main([
            "depths", "--mode", "recon", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            "--out-dir", str(out), "--mlm-ckpt", str(workdir / "mlm.ckpt"), "--penalty", "0.1",
        ]) == 0
        for name in ("train.depths", "test.depths", "summary.tsv", "depth_hist_test.tsv"):
            assert (out / name).exists(), name
        lam, avg, n = (out / "summary.tsv").read_text().split()
        assert float(lam) == 0.1 and 1.0 <= float(avg) <= 2.0 and int(n) == 20


class TestSweepLambda:
    def test_table_schema_and_monotone_depth(self, workdir, tmp_path, capsys):
        out = tmp_path / "sweep.tsv"
        assert main([
            "sweep-lambda", "--mlm-ckpt", str(workdir / "mlm.ckpt"),
            "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            "--lambdas", "0,0.1,0.2", "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "lambda\taccuracy\tspeed\tavg_depth"
        rows = [line.split("\t") for line in lines[1:]]
        assert len(rows) == 3
        depths = [float(r[3]) for r in rows]
        assert all(b <= a for a, b in zip(depths, depths[1:]))
        assert all(r[1] == "-" for r in rows)  # accuracy column off by default


class TestBenchCommand:
    def test_rows_and_exact_counts(self, workdir, tmp_path, capsys):
        out = tmp_path / "bench.tsv"
        assert main([
            "bench", "--seq-len", "16", "--n-sentences", "4", "--batch-sizes", "1,2",
            "--target-avg-depth", "1.5", "--reps", "2", "--seed", "3",
            "--out", str(out), *TINY_NET,
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == bench.BenchRow.HEADER
        depth_rows = make_bench_depths(4, 16, 2, 1.5, seed=3)  # as the command draws them
        for line in lines[1:]:
            cols = line.split("\t")
            ffn_fixed, ffn_adaptive = int(cols[6]), int(cols[7])
            assert ffn_fixed == 2 * 4 * 16
            assert ffn_adaptive == int(round(1.5 * 4 * 16))
            assert cols[8] == f"{ffn_adaptive / ffn_fixed:.4f}"
            assert int(cols[9]) == batch_coupled_kv(depth_rows, int(cols[0]))

    def test_batch_sizes_that_do_not_divide_the_sentences(self, tmp_path):
        out = tmp_path / "bench.tsv"
        assert main([
            "bench", "--seq-len", "16", "--n-sentences", "5", "--batch-sizes", "2,15",
            "--target-avg-depth", "1.5", "--reps", "1", "--seed", "3", "--out", str(out), *TINY_NET,
        ]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == [2, 15]
        depth_rows = make_bench_depths(5, 16, 2, 1.5, seed=3)
        for cols in rows:
            assert int(cols[6]) == 2 * 5 * 16
            assert int(cols[7]) == sum(int(r.sum()) for r in depth_rows)
            assert int(cols[9]) == batch_coupled_kv(depth_rows, int(cols[0]))


class TestExportHist:
    def test_histogram_from_saved_table(self, workdir, tmp_path):
        out = tmp_path / "hist.tsv"
        assert main([
            "export-hist", "--mi-table", str(workdir / "mi" / "mi_table.tsv"),
            "--vocab", str(workdir / "mi" / "vocab.tsv"),
            "--field", "mi_log", "--bins", "5", "--out", str(out),
        ]) == 0
        rows = [line.split("\t") for line in out.read_text().splitlines()]
        assert len(rows) == 5
        table = mi.MiTable.read(workdir / "mi" / "mi_table.tsv",
                                vocab=__import__("depthformer.corpus", fromlist=["Vocab"]).Vocab.read(workdir / "mi" / "vocab.tsv"),
                                n_bins=2)
        assert sum(int(r[2]) for r in rows) == table.mi_log.size


class TestBenchHelpers:
    def test_make_bench_depths_hits_exact_average(self):
        rows = make_bench_depths(10, 32, 12, 3.0, seed=0)
        flat = np.concatenate(rows)
        assert flat.mean() == pytest.approx(3.0, abs=1 / flat.size)
        assert flat.min() >= 1 and flat.max() <= 12

    def test_make_bench_depths_deterministic(self):
        a = make_bench_depths(5, 16, 12, 2.5, seed=4)
        b = make_bench_depths(5, 16, 12, 2.5, seed=4)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_unreachable_target_rejected(self):
        with pytest.raises(ValueError, match="unreachable"):
            make_bench_depths(4, 8, 12, 11.5, seed=0, deep_sentence_frac=0.0, shallow_cap=2)


class TestVariableLengthCorpora:
    @pytest.fixture()
    def varlen(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for i in range(40):
            n = int(rng.integers(3, 9))
            words = " ".join(f"w{int(rng.integers(0, 30))}" for _ in range(n))
            lines.append(f"{'pos' if i % 2 else 'neg'}\t{words}")
        path = tmp_path / "v.tsv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_tsv(path)

    def test_training_buckets_by_length(self, varlen):
        from depthformer.encoder import EncoderConfig
        from depthformer.train import train_classifier

        config = EncoderConfig(
            vocab_size=len(varlen.vocab), n_labels=2, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=16, precision="f32",
        )
        encoder, log = train_classifier(varlen, config, steps=5, batch_size=8, seed=0)
        assert len(log) == 5 and all(np.isfinite(l) for _, l in log)

    def test_eval_covers_every_document_once(self, varlen):
        from depthformer.encoder import AdaptiveEncoder, EncoderConfig
        from depthformer.train import length_buckets

        config = EncoderConfig(
            vocab_size=len(varlen.vocab), n_labels=2, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=16, precision="f32",
        )
        encoder = AdaptiveEncoder(config, head="cls", seed=0)
        maps = [np.full(len(d.tokens), 1, dtype=np.int64) for d in varlen.documents]
        acc, report = bench.evaluate_classifier(encoder, varlen, maps, batch_size=4)
        lengths = [len(d.tokens) for d in varlen.documents]
        assert len(report.wall_ns) == len(length_buckets(lengths, 4))  # one entry per batch
        assert report.n_tokens == sum(len(d.tokens) for d in varlen.documents)
        assert report.ffn_applications == report.n_tokens  # depth 1 everywhere


class TestEvaluateClassifier:
    def test_counts_follow_depth_files(self, workdir):
        encoder, meta = AdaptiveEncoder.load(workdir / "cls.ckpt")
        from depthformer.cli import _load_eval_corpus
        corpus = _load_eval_corpus(workdir / "cls.ckpt", workdir / "data" / "test.tsv", meta)
        maps = mi.read_depth_file(workdir / "mi" / "test.depths")
        acc, report = bench.evaluate_classifier(encoder, corpus, maps, batch_size=2)
        assert report.ffn_applications == sum(int(m.sum()) for m in maps)
        assert report.n_tokens == sum(len(m) for m in maps)
        assert report.ffn_applications <= encoder.config.n_layers * report.n_tokens
        assert 0.0 <= acc <= 1.0
