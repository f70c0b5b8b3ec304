"""End-to-end CLI runs on a tiny synthetic dataset, plus bench helpers."""

from pathlib import Path

import numpy as np
import pytest

from depthformer import bench, cli, mi, recon
from depthformer.bench import make_bench_depths
from depthformer.cli import main
from depthformer.corpus import load_tsv
from depthformer.encoder import AdaptiveEncoder


TINY_WIDTH = ["--d-model", "16", "--n-heads", "2", "--d-ff", "32"]
TINY_NET = ["--n-layers", "2", *TINY_WIDTH]
TINY_MODEL = [*TINY_NET, "--max-len", "32"]


def batch_coupled_kv(depth_rows, batch_size):
    """Σ n_max·B·T over consecutive batches: every position of a batch
    projects keys/values until the batch's deepest token stops."""
    total = 0
    for lo in range(0, len(depth_rows), batch_size):
        chunk = np.stack(depth_rows[lo : lo + batch_size])
        total += int(chunk.max()) * chunk.size
    return total


def first_tensor_layout(blob: bytes) -> tuple[str, int]:
    """Name and payload offset of a checkpoint's first tensor: version
    byte, u32 count, u16 name length, name, dtype and rank bytes, u32 dims."""
    name_len = int.from_bytes(blob[5:7], "little")
    ndim = blob[7 + name_len + 1]
    return blob[7 : 7 + name_len].decode("utf-8"), 7 + name_len + 2 + 4 * ndim


def never_called(*args, **kwargs):
    raise AssertionError("profiles computed before the settings were checked")


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

    @pytest.mark.parametrize(
        "flag, value, named",
        # they were accepted and ignored; --lambda is --penalty's other name
        [("--penalty", "0.1", "--penalty"), ("--lambda", "0.1", "--penalty"), ("--mlm-ckpt", "mlm.ckpt", "--mlm-ckpt")],
    )
    def test_recon_flag_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value, named):
        monkeypatch.setattr(cli, "load_tsv", never_called)
        out = tmp_path / "out"
        code = main([
            "depths", "--mode", "mi", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--out-dir", str(out), flag, value,
        ])
        assert code == 2
        assert f"error: {named} applies only to --mode recon" in capsys.readouterr().err
        assert not out.exists()


class TestTrainAndEval:
    def test_checkpoint_sidecars_written(self, workdir):
        assert (workdir / "cls.ckpt").exists()
        assert (workdir / "cls.ckpt.meta").exists()
        assert (workdir / "cls.ckpt.vocab.tsv").exists()
        log = (workdir / "cls.ckpt.log").read_text().splitlines()
        assert len(log) == 4
        step, loss = log[0].split("\t")
        assert step == "1" and float(loss) > 0

    @pytest.mark.parametrize("task", ["cls", "mlm"])
    def test_trace_has_one_json_line_per_step(self, workdir, task):
        import json

        log = [line.split("\t") for line in (workdir / f"{task}.ckpt.log").read_text().splitlines()]
        trace = [json.loads(line) for line in (workdir / f"{task}.ckpt.trace.jsonl").read_text().splitlines()]
        assert [r["step"] for r in trace] == [int(step) for step, _ in log] == [1, 2, 3, 4]
        for record, (_, loss) in zip(trace, log):
            assert set(record) == {"step", "loss", "grad_norm", "lr", "cpu_ms"}
            assert f"{record['loss']:.8f}" == loss
            assert record["lr"] == 1e-3
            assert np.isfinite(record["grad_norm"]) and record["grad_norm"] > 0
            assert record["cpu_ms"] > 0

    def test_trace_keeps_the_pre_clip_norm_and_warmup_lr(self, workdir, monkeypatch):
        from depthformer import train
        from depthformer.encoder import EncoderConfig

        norms = []
        adam_step = train.adam_step

        def recording(store, lr, clip):
            norms.append(adam_step(store, lr=lr, clip=clip))
            return norms[-1]

        monkeypatch.setattr(train, "adam_step", recording)
        corpus = load_tsv(workdir / "data" / "train.tsv")
        config = EncoderConfig(
            vocab_size=len(corpus.vocab), n_labels=2, n_layers=2, d_model=16, n_heads=2, d_ff=32, max_len=32,
        )
        # a clip below every norm, so clipping changes the gradients the norm was taken from
        settings = train.FitSettings(steps=3, lr=1e-3, batch_size=8, clip=1e-3, warmup=2)
        _, records = train.train_classifier(corpus, config, settings)
        assert [r.grad_norm for r in records] == norms and min(norms) > 1e-3
        assert [r.lr for r in records] == [5e-4, 1e-3, 1e-3]

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

    @pytest.mark.parametrize(
        "env, shown",
        [
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "OPENBLAS_NUM_THREADS=1"),
            ({"OMP_NUM_THREADS": "2"}, "OMP_NUM_THREADS=2"),
            ({}, "unset"),
        ],
        ids=["openblas", "omp", "unset"],
    )
    def test_eval_prints_the_blas_thread_setting(self, workdir, capsys, monkeypatch, env, shown):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert main([
            "eval", "--ckpt", str(workdir / "cls.ckpt"),
            "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1",
        ]) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
        assert lines["blas_threads"] == shown

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

    @pytest.mark.parametrize(
        "damage, message",
        [
            pytest.param(lambda blob, at: blob[: at - 2], "checkpoint is truncated: {name} shape needs", id="cut-in-header"),
            pytest.param(lambda blob, at: blob[: at + 2], "checkpoint is truncated: {name} payload needs", id="cut-in-payload"),
            pytest.param(lambda blob, at: blob + b"junk", "4 trailing bytes after the last tensor", id="trailing-bytes"),
        ],
    )
    def test_eval_rejects_damaged_checkpoint(self, workdir, tmp_path, capsys, damage, message):
        import shutil

        blob = (workdir / "cls.ckpt").read_bytes()
        name, payload_at = first_tensor_layout(blob)
        ckpt = tmp_path / "damaged.ckpt"
        ckpt.write_bytes(damage(blob, payload_at))
        for suffix in (".meta", ".vocab.tsv"):
            shutil.copy(str(workdir / "cls.ckpt") + suffix, str(ckpt) + suffix)
        code = main(["eval", "--ckpt", str(ckpt), "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1"])
        assert code == 2
        assert f"error: {ckpt}: {message.format(name=name)}" in capsys.readouterr().err

    def test_eval_tokenizes_at_the_trained_max_len(self, workdir, tmp_path, capsys):
        ckpt = tmp_path / "short.ckpt"
        assert main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(ckpt), "--steps", "1", "--batch-size", "8", "--seed", "0", *TINY_NET, "--max-len", "8",
        ]) == 0
        capsys.readouterr()
        assert main([
            "eval", "--ckpt", str(ckpt), "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1",
        ]) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
        assert int(lines["n_tokens"]) == 20 * 8  # twelve-token documents cut at 8

    def test_eval_reads_a_tokenizer_max_len_of_its_own(self, workdir, tmp_path, capsys):
        # checkpoints trained with a tokenizer max_len apart from the
        # encoder's (an option since removed) carry it in the meta
        import shutil

        ckpt = tmp_path / "legacy.ckpt"
        for suffix in ("", ".vocab.tsv"):
            shutil.copy(str(workdir / "cls.ckpt") + suffix, str(ckpt) + suffix)
        meta = (workdir / "cls.ckpt.meta").read_text(encoding="utf-8")
        assert "max_len = 32\n" in meta
        Path(str(ckpt) + ".meta").write_text(meta + "tokenizer_max_len = 8\n", encoding="utf-8")
        assert main(["eval", "--ckpt", str(ckpt), "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1"]) == 0
        lines = dict(l.split("\t") for l in capsys.readouterr().out.strip().splitlines())
        assert int(lines["n_tokens"]) == 20 * 8

    @pytest.mark.parametrize("batch_size", ["0", "-2"])
    def test_eval_rejects_non_positive_batch_size(self, workdir, capsys, batch_size):
        code = main([
            "eval", "--ckpt", str(workdir / "cls.ckpt"), "--data-tsv", str(workdir / "data" / "test.tsv"),
            "--batch-size", batch_size, "--reps", "1",
        ])
        assert code == 2
        assert f"error: batch_size must be >= 1, got {batch_size}" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-4"])
    def test_eval_rejects_reps_below_one(self, workdir, capsys, reps):
        code = main([
            "eval", "--ckpt", str(workdir / "cls.ckpt"), "--data-tsv", str(workdir / "data" / "test.tsv"),
            "--reps", reps,
        ])
        assert code == 2
        assert f"error: reps must be >= 1, got {reps}" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["cls", "mlm"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--steps", "-3", "steps must be >= 0, got -3", id="steps-neg"),
            pytest.param("--lr", "0", "lr must be > 0, got 0.0", id="lr-0"),
            pytest.param("--lr", "-0.001", "lr must be > 0, got -0.001", id="lr-neg"),
            # a negative clip factor would flip every gradient
            pytest.param("--clip", "-1", "clip must be > 0, got -1.0", id="clip-neg"),
            pytest.param("--clip", "0", "clip must be > 0, got 0.0", id="clip-0"),
            # a negative warmup would make the learning rate negative
            pytest.param("--warmup", "-1", "warmup must be >= 0, got -1", id="warmup-neg"),
            # encoder sizes: unchecked, a zero fails deep in a reshape or a division
            pytest.param("--n-heads", "0", "n_heads must be >= 1, got 0", id="n-heads-0"),
            pytest.param("--d-model", "0", "d_model must be >= 1, got 0", id="d-model-0"),
            pytest.param("--d-ff", "0", "d_ff must be >= 1, got 0", id="d-ff-0"),
            pytest.param("--max-len", "0", "max_len must be >= 1, got 0", id="max-len-0"),
            pytest.param("--dropout", "1", "dropout must be in [0, 1), got 1.0", id="dropout-1"),
            pytest.param("--dropout", "-0.1", "dropout must be in [0, 1), got -0.1", id="dropout-neg"),
        ],
    )
    def test_invalid_setting_is_an_error(self, workdir, tmp_path, capsys, task, flag, value, message):
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "--task", task, "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(out), "--steps", "2", "--batch-size", "8", *TINY_MODEL, flag, value,
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            # all but the last were accepted: 1.5 then failed as "corpus too
            # small", 0 and -0.5 held out one document, NaN failed in int()
            pytest.param("--heldout-fraction", "1.5", "heldout_fraction must be in (0, 1), got 1.5", id="fraction-1.5"),
            pytest.param("--heldout-fraction", "1", "heldout_fraction must be in (0, 1), got 1.0", id="fraction-1"),
            pytest.param("--heldout-fraction", "0", "heldout_fraction must be in (0, 1), got 0.0", id="fraction-0"),
            pytest.param("--heldout-fraction", "-0.5", "heldout_fraction must be in (0, 1), got -0.5", id="fraction-neg"),
            pytest.param("--heldout-fraction", "nan", "heldout_fraction must be in (0, 1), got nan", id="fraction-nan"),
            # evaluated every 3 steps
            pytest.param("--eval-every", "-3", "eval_every must be >= 0, got -3", id="eval-every-neg"),
        ],
    )
    def test_invalid_heldout_setting_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value, message):
        def encoder_built(*args, **kwargs):
            raise AssertionError("encoder built before the held-out settings were checked")

        monkeypatch.setattr(recon, "AdaptiveEncoder", encoder_built)
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "--task", "mlm", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(out), "--steps", "2", "--batch-size", "8", *TINY_MODEL, flag, value,
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_depth_file_with_mlm_task_is_an_error(self, workdir, tmp_path, capsys, monkeypatch):
        # it was ignored, even when missing; now refused before the corpus is read
        monkeypatch.setattr(cli, "load_tsv", never_called)
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "--task", "mlm", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--depths", str(tmp_path / "missing.depths"), "--out", str(out), "--steps", "1", *TINY_MODEL,
        ])
        assert code == 2
        assert "error: --depths applies only to --task cls" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        # they were accepted and ignored, out of range or not; the default
        # value counts as given too
        [("--mask-rate", "7"), ("--heldout-fraction", "5"), ("--eval-every", "0")],
    )
    def test_mlm_flag_with_cls_task_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(cli, "load_tsv", never_called)
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(out), "--steps", "1", *TINY_MODEL, flag, value,
        ])
        assert code == 2
        assert f"error: {flag} applies only to --task mlm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["cls", "mlm"])
    def test_fit_settings_checked_before_the_corpus_is_read(self, workdir, tmp_path, capsys, monkeypatch, task):
        # they were checked after the corpus was read and the encoder configured
        monkeypatch.setattr(cli, "load_tsv", never_called)
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "--task", task, "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(out), "--steps", "2", *TINY_MODEL, "--lr", "0",
        ])
        assert code == 2
        assert "error: lr must be > 0, got 0.0" in capsys.readouterr().err
        assert not out.exists()

    def test_mlm_fit_settings_checked_before_the_heldout_slice_is_scored(self, workdir, tmp_path, capsys, monkeypatch):
        # it scored the held-out slice once, then failed in fit
        def encoder_built(*args, **kwargs):
            raise AssertionError("encoder built before the fit settings were checked")

        scored = []
        monkeypatch.setattr(recon, "anytime_loss_on_docs", lambda *args, **kwargs: scored.append(1) or 1.0)
        monkeypatch.setattr(recon, "AdaptiveEncoder", encoder_built)
        out = tmp_path / "x.ckpt"
        code = main([
            "train", "--task", "mlm", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--out", str(out), "--steps", "2", *TINY_MODEL, "--lr", "0",
        ])
        assert code == 2
        assert "error: lr must be > 0, got 0.0" in capsys.readouterr().err
        assert scored == [] and not out.exists()

    def test_misaligned_depth_file_is_an_error(self, workdir, tmp_path, capsys):
        mi.write_depth_file(tmp_path / "bad.depths", [np.array([1, 2])])
        code = main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--depths", str(tmp_path / "bad.depths"),
            "--out", str(tmp_path / "x.ckpt"), "--steps", "1", *TINY_MODEL,
        ])
        assert code == 2
        assert "depth file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_non_integer_depth_file_names_file_and_line(self, workdir, tmp_path, capsys, command):
        lines = (workdir / "mi" / "test.depths").read_text().splitlines()
        lines[2] = lines[2].replace(" ", " 2.5 ", 1)
        bad = tmp_path / "bad.depths"
        bad.write_text("\n".join(lines) + "\n")
        if command == "train":
            args = ["train", "--task", "cls", "--train-tsv", str(workdir / "data" / "test.tsv"),
                    "--out", str(tmp_path / "x.ckpt"), "--steps", "1", *TINY_MODEL]
        else:
            args = ["eval", "--ckpt", str(workdir / "cls.ckpt"), "--data-tsv", str(workdir / "data" / "test.tsv"),
                    "--reps", "1"]
        assert main([*args, "--depths", str(bad)]) == 2
        assert f"error: {bad}:3: depth must be an integer, got '2.5'" in capsys.readouterr().err

    def test_constant_full_depth_training_equals_fixed_baseline(self, workdir):
        # an all-max depth file never takes the copy branch, so training
        # reduces to the fixed-depth baseline bit for bit
        from depthformer.encoder import EncoderConfig
        from depthformer.train import FitSettings, train_classifier

        corpus = load_tsv(workdir / "data" / "train.tsv")
        config = EncoderConfig(
            vocab_size=len(corpus.vocab), n_labels=corpus.n_labels, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=32, precision="f32",
        )
        full = [np.full(len(d.tokens), 2, dtype=np.int64) for d in corpus.documents]
        settings = FitSettings(steps=3, lr=1e-3, batch_size=8)
        enc_maps, _ = train_classifier(corpus, config, settings, seed=5, depth_maps=full)
        enc_none, _ = train_classifier(corpus, config, settings, seed=5)
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


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--penalty", "-0.5", "penalty must be >= 0, got -0.5", id="penalty-neg"),
            pytest.param(
                "--mlm-ckpt", "missing.ckpt", "reconstruction mode needs a trained MLM checkpoint",
                id="missing-ckpt",
            ),
        ],
    )
    def test_invalid_setting_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value, message):
        out = tmp_path / "recon"
        if flag == "--mlm-ckpt":
            value = str(tmp_path / value)
        # every bad setting fails before the output directory or any profile
        monkeypatch.setattr(recon, "sentence_profiles", never_called)
        code = main([
            "depths", "--mode", "recon", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            "--out-dir", str(out), "--mlm-ckpt", str(workdir / "mlm.ckpt"), flag, value,
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        # they were accepted and ignored: the MLM checkpoint's meta sets the
        # tokenizer, and the recon depths need no MI binning
        [("--max-len", "8"), ("--min-freq", "2"), ("--no-lowercase", None), ("--n-bins", "4"), ("--smoothing", "0.5"),
         ("--hist-bins", "10")],
    )
    def test_mi_flag_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value):
        monkeypatch.setattr(AdaptiveEncoder, "load", never_called)
        out = tmp_path / "recon"
        code = main([
            "depths", "--mode", "recon", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--out-dir", str(out),
            "--mlm-ckpt", str(workdir / "mlm.ckpt"), flag, *([value] if value else []),
        ])
        assert code == 2
        assert f"error: {flag} applies only to --mode mi" in capsys.readouterr().err
        assert not out.exists()

    def test_summary_writes_the_default_penalty(self, workdir, tmp_path):
        out = tmp_path / "recon"
        assert main([
            "depths", "--mode", "recon", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            "--out-dir", str(out), "--mlm-ckpt", str(workdir / "mlm.ckpt"),
        ]) == 0
        assert (out / "summary.tsv").read_text().split("\t")[0] == "0.1"


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


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--lambdas", "0.1,-0.5", "penalty must be >= 0, got -0.5", id="lambda-neg"),
        ],
    )
    def test_invalid_setting_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value, message):
        # a bad penalty fails before either split is profiled
        monkeypatch.setattr(recon, "sentence_profiles", never_called)
        code = main([
            "sweep-lambda", "--mlm-ckpt", str(workdir / "mlm.ckpt"),
            "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            flag, value, "--out", str(tmp_path / "sweep.tsv"),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--lr", "0", "lr must be > 0, got 0.0", id="lr-0"),
            pytest.param("--warmup", "-1", "warmup must be >= 0, got -1", id="warmup-neg"),
            pytest.param("--batch-size", "0", "batch_size must be >= 1, got 0", id="batch-size-0"),
        ],
    )
    def test_invalid_classifier_setting_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value, message):
        # a bad classifier setting fails before either split is profiled
        monkeypatch.setattr(recon, "corpus_profiles", never_called)
        code = main([
            "sweep-lambda", "--mlm-ckpt", str(workdir / "mlm.ckpt"),
            "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--lambdas", "0.1",
            "--cls-steps", "1", *TINY_WIDTH, flag, value, "--out", str(tmp_path / "sweep.tsv"),
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.tsv").exists()

    def test_n_layers_is_not_an_option(self, workdir, tmp_path, capsys):
        # the classifiers must take the MLM's depth, which the depth maps index
        with pytest.raises(SystemExit) as exit_info:
            main([
                "sweep-lambda", "--mlm-ckpt", str(workdir / "mlm.ckpt"),
                "--train-tsv", str(workdir / "data" / "train.tsv"),
                "--test-tsv", str(workdir / "data" / "test.tsv"), "--lambdas", "0.1",
                "--cls-steps", "2", "--n-layers", "7", "--out", str(tmp_path / "sweep.tsv"),
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --n-layers 7" in capsys.readouterr().err
        assert not (tmp_path / "sweep.tsv").exists()


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
        # the thread setting goes to stdout only; the TSV keeps its schema
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == f"blas_threads\t{bench.blas_threads()}"
        assert printed[1:] == lines
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


    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--reps", "0", "reps must be >= 1, got 0", id="reps-0"),
            pytest.param("--batch-sizes", "1,0", "batch_sizes must all be >= 1, got [1, 0]", id="batch-sizes-0"),
        ],
    )
    def test_non_positive_size_is_an_error(self, capsys, flag, value, message):
        args = ["bench", "--seq-len", "8", "--n-sentences", "2", "--target-avg-depth", "1.5", *TINY_NET]
        assert main([*args, "--reps", "1", flag, value]) == 2
        assert f"error: {message}" in capsys.readouterr().err


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


    def test_table_from_another_vocabulary_is_an_error(self, workdir, tmp_path, capsys):
        other = tmp_path / "vocab.tsv"
        other.write_text("<PAD>\t0\t0\n<UNK>\t1\t0\n<MASK>\t2\t0\nelsewhere\t3\t1\n")
        code = main([
            "export-hist", "--mi-table", str(workdir / "mi" / "mi_table.tsv"),
            "--vocab", str(other), "--out", str(tmp_path / "hist.tsv"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {workdir / 'mi' / 'mi_table.tsv'}:1: word ")
        assert "is not in the vocabulary" in err


class TestMalformedTableFields:
    """A non-numeric field of a vocabulary or MI table fails with the file
    and line that hold it, and exit code 2."""

    @staticmethod
    def with_bad_vocab(ckpt, tmp_path, field, value):
        import shutil

        out = tmp_path / ckpt.name
        for suffix in ("", ".meta"):
            shutil.copy(str(ckpt) + suffix, str(out) + suffix)
        lines = Path(str(ckpt) + ".vocab.tsv").read_text(encoding="utf-8").splitlines()
        fields = lines[4].split("\t")
        fields[field] = value
        lines[4] = "\t".join(fields)
        vocab = Path(str(out) + ".vocab.tsv")
        vocab.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return out, vocab

    def test_eval(self, workdir, tmp_path, capsys):
        ckpt, vocab = self.with_bad_vocab(workdir / "cls.ckpt", tmp_path, 1, "x")
        code = main(["eval", "--ckpt", str(ckpt), "--data-tsv", str(workdir / "data" / "test.tsv"), "--reps", "1"])
        assert code == 2
        assert f"error: {vocab}:5: id must be an integer, got 'x'" in capsys.readouterr().err

    def test_depths_recon(self, workdir, tmp_path, capsys):
        ckpt, vocab = self.with_bad_vocab(workdir / "mlm.ckpt", tmp_path, 2, "many")
        code = main([
            "depths", "--mode", "recon", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"),
            "--out-dir", str(tmp_path / "recon"), "--mlm-ckpt", str(ckpt),
        ])
        assert code == 2
        assert f"error: {vocab}:5: doc_freq must be an integer, got 'many'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, message",
        [
            pytest.param(1, "abc", "MI must be a number, got 'abc'", id="mi"),
            pytest.param(3, "deep", "depth must be an integer, got 'deep'", id="depth"),
        ],
    )
    def test_export_hist(self, workdir, tmp_path, capsys, field, value, message):
        lines = (workdir / "mi" / "mi_table.tsv").read_text(encoding="utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[field] = value
        lines[2] = "\t".join(fields)
        table = tmp_path / "mi_table.tsv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main([
            "export-hist", "--mi-table", str(table), "--vocab", str(workdir / "mi" / "vocab.tsv"),
            "--out", str(tmp_path / "hist.tsv"),
        ])
        assert code == 2
        assert f"error: {table}:3: {message}" in capsys.readouterr().err


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
        from depthformer.train import FitSettings, train_classifier

        config = EncoderConfig(
            vocab_size=len(varlen.vocab), n_labels=2, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=16, precision="f32",
        )
        encoder, log = train_classifier(varlen, config, FitSettings(steps=5, lr=1e-3, batch_size=8), seed=0)
        assert len(log) == 5 and all(np.isfinite(record.loss) for record in log)

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
