"""End-to-end CLI runs on a tiny synthetic dataset, plus bench helpers."""

import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def within(seconds, fn):
    """``fn()``, run in a daemon thread so that a call which blocks fails
    the test after ``seconds`` instead of hanging it."""
    outcome = []

    def run():
        try:
            outcome.append((True, fn()))
        except BaseException as exc:  # re-raised in the calling thread
            outcome.append((False, exc))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    if not outcome:
        pytest.fail(f"still blocked after {seconds} s")
    ok, value = outcome[0]
    if not ok:
        raise value
    return value


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

    @pytest.mark.parametrize(
        "flags, message",
        [
            # a negative count wrote two empty files and reported "-3 docs"
            pytest.param(["--n-train", "-3", "--n-test", "0"], "n_docs must be >= 1, got -3", id="n-train-neg"),
            pytest.param(["--n-train", "0"], "n_docs must be >= 1, got 0", id="n-train-0"),
            pytest.param(["--n-test", "0"], "n_docs must be >= 1, got 0", id="n-test-0"),
            # rejected, but only after --out-dir was made
            pytest.param(["--doc-len", "2"], "doc_len must be >= 4, got 2", id="doc-len-2"),
        ],
    )
    def test_invalid_size_is_an_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert main(["gen-data", "--out-dir", str(out), *flags]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            pytest.param("--n-bins", "0", "n-bins must be >= 1, got 0", id="n-bins-0"),
            pytest.param("--hist-bins", "0", "hist-bins must be >= 1, got 0", id="hist-bins-0"),
            pytest.param("--smoothing", "0", "smoothing must be > 0, got 0.0", id="smoothing-0"),
            # a negative length cut every document short by that many tokens
            pytest.param("--max-len", "-2", "max_len must be >= 1, got -2", id="max-len-neg"),
            pytest.param("--max-len", "0", "max_len must be >= 1, got 0", id="max-len-0"),
            pytest.param("--min-freq", "0", "min_freq must be >= 1, got 0", id="min-freq-0"),
        ],
    )
    def test_invalid_setting_is_an_error(self, workdir, tmp_path, capsys, monkeypatch, flag, value, message):
        # every bad setting fails before the corpus is read or --out-dir made
        monkeypatch.setattr(cli, "load_tsv", never_called)
        out = tmp_path / "out"
        code = main([
            "depths", "--mode", "mi", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--out-dir", str(out), flag, value,
        ])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
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
            assert set(record) == {"step", "loss", "grad_norm", "lr", "cpu_ms", "tokens", "active_fraction"}
            assert f"{record['loss']:.8f}" == loss
            assert record["tokens"] > 0 and record["active_fraction"] == 1.0  # full depth
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

    @pytest.mark.parametrize("eval_every, steps", [(2, [2, 4]), (5, [5]), (6, [])])
    def test_eval_every_prints_each_score_it_asked_for(self, workdir, tmp_path, capsys, monkeypatch, eval_every, steps):
        # the scores were computed and thrown away; without the flag the
        # output is unchanged
        results = []
        monkeypatch.setattr(cli, "train_mlm", lambda *a, **k: results.append(recon.train_mlm(*a, **k)) or results[-1])
        args = ["train", "--task", "mlm", "--train-tsv", str(workdir / "data" / "train.tsv"), "--out",
                str(tmp_path / "m.ckpt"), "--steps", "5", "--batch-size", "8", "--seed", "0", *TINY_MODEL]
        assert main(args) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main([*args, "--eval-every", str(eval_every)]) == 0
        lines = capsys.readouterr().out.splitlines()
        scores = dict(results[1].heldout_log)
        want = [f"heldout_anytime_loss_at_step\t{step}\t{scores[step]:.4f}" for step in steps]
        assert lines == [plain[0], *want, *plain[1:]]
        assert plain[0].split("\t")[0] == "heldout_anytime_loss"

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

    def test_adaptive_trace_counts_one_epoch(self, workdir, tmp_path):
        import json

        from depthformer.train import length_buckets

        # as many steps as one epoch has batches: each document is seen once
        corpus = load_tsv(workdir / "data" / "train.tsv")
        depth_maps = mi.read_depth_file(workdir / "mi" / "train.depths")
        steps = len(length_buckets([len(d.tokens) for d in corpus.documents], 8))
        out = tmp_path / "epoch.ckpt"
        assert main([
            "train", "--task", "cls", "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--depths", str(workdir / "mi" / "train.depths"),
            "--out", str(out), "--steps", str(steps), "--batch-size", "8", "--seed", "1", *TINY_MODEL,
        ]) == 0
        trace = [json.loads(line) for line in Path(f"{out}.trace.jsonl").read_text().splitlines()]
        assert len(trace) == steps
        assert sum(r["tokens"] for r in trace) == sum(len(d.tokens) for d in corpus.documents)
        n_layers = 2
        applied = sum(r["active_fraction"] * r["tokens"] * n_layers for r in trace)
        assert applied == pytest.approx(sum(int(m.sum()) for m in depth_maps), abs=1e-6)
        assert any(r["active_fraction"] < 1.0 for r in trace)

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
            pytest.param("--max-len", "-2", "max_len must be >= 1, got -2", id="max-len-neg"),
            pytest.param("--min-freq", "0", "min_freq must be >= 1, got 0", id="min-freq-0"),
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


class TestFailuresNameTheirFile:
    """A bad input file fails with ``error: <file>…`` and exit 2, never a
    traceback."""

    @staticmethod
    def copy_checkpoint(workdir, tmp_path, edit_meta):
        """A copy of the trained classifier whose ``.meta`` text is
        ``edit_meta`` of the original's."""
        import shutil

        ckpt = tmp_path / "c.ckpt"
        for suffix in ("", ".vocab.tsv"):
            shutil.copy(str(workdir / "cls.ckpt") + suffix, str(ckpt) + suffix)
        meta = (workdir / "cls.ckpt.meta").read_text(encoding="utf-8")
        Path(f"{ckpt}.meta").write_text(edit_meta(meta), encoding="utf-8")
        return ckpt

    def eval_args(self, workdir, ckpt=None, data=None):
        return ["eval", "--ckpt", str(ckpt or workdir / "cls.ckpt"),
                "--data-tsv", str(data or workdir / "data" / "test.tsv"), "--reps", "1"]

    @pytest.mark.parametrize("big", ["99999999999999999999", "-99999999999999999999"])
    def test_depth_too_large_for_int64_names_file_and_line(self, workdir, tmp_path, capsys, big):
        lines = (workdir / "mi" / "test.depths").read_text().splitlines()
        lines[2] = lines[2].replace(" ", f" {big} ", 1)
        bad = tmp_path / "big.depths"
        bad.write_text("\n".join(lines) + "\n")
        assert main([*self.eval_args(workdir), "--depths", str(bad)]) == 2
        assert f"error: {bad}:3: depth {big} does not fit in 64 bits" in capsys.readouterr().err

    def test_directory_for_a_corpus_is_an_error(self, workdir, tmp_path, capsys):
        assert main(self.eval_args(workdir, data=tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_meta_without_a_key_names_file_and_key(self, workdir, tmp_path, capsys):
        def drop_width(text):
            return "".join(line for line in text.splitlines(True) if not line.startswith("d_model "))

        ckpt = self.copy_checkpoint(workdir, tmp_path, drop_width)
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta: no key 'd_model'" in capsys.readouterr().err

    def test_meta_value_that_does_not_parse_names_file_and_key(self, workdir, tmp_path, capsys):
        # it failed with int()'s message alone
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text.replace("n_heads = 2\n", "n_heads = two\n"))
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta: n_heads: invalid literal for int() with base 10: 'two'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["true", "1", ""])
    def test_meta_lowercase_must_be_true_or_false(self, workdir, tmp_path, capsys, monkeypatch, value):
        # anything but "True" was read as False, and eval ran without lowercasing
        monkeypatch.setattr(bench, "evaluate_classifier", never_called)
        edit = lambda text: text.replace("lowercase = True\n", f"lowercase = {value}\n")  # noqa: E731
        ckpt = self.copy_checkpoint(workdir, tmp_path, edit)
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta: lowercase: expected True or False, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_heads = 0", "n_heads must be >= 1, got 0"),
            ("dropout = nan", "dropout must be in [0, 1), got nan"),
            ("d_model = 15", "d_model 15 not divisible by n_heads 2"),
            ("precision = f16", "precision must be one of ['f32', 'f64']"),
        ],
        ids=["n_heads", "dropout", "d_model", "precision"],
    )
    def test_meta_value_the_config_rejects_names_file(self, workdir, tmp_path, capsys, line, message):
        # each parsed, and the config's message came without the file
        key = line.split(" = ")[0]
        edit = lambda text: re.sub(rf"^{key} = .*$", line, text, count=1, flags=re.M)  # noqa: E731
        ckpt = self.copy_checkpoint(workdir, tmp_path, edit)
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta: {message}\n" == capsys.readouterr().err

    def test_meta_head_the_encoder_rejects_names_file_and_key(self, workdir, tmp_path, capsys):
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text.replace("head = cls\n", "head = xyz\n"))
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta: head: unknown head 'xyz'\n" == capsys.readouterr().err

    def test_vocabulary_with_a_repeated_word_names_file_and_line(self, workdir, tmp_path, capsys):
        # it printed "duplicate words in vocabulary" alone
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text)
        vocab = Path(f"{ckpt}.vocab.tsv")
        lines = vocab.read_text(encoding="utf-8").splitlines(True)
        word = lines[3].split("\t")[0]
        lines[5] = lines[5].replace(lines[5].split("\t")[0], word, 1)
        vocab.write_text("".join(lines), encoding="utf-8")
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {vocab}:6: duplicate word {word!r}, first on line 4\n" == capsys.readouterr().err

    def test_meta_line_without_a_separator_names_file_and_line(self, workdir, tmp_path, capsys):
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: "vocab_size 12\n" + text)
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta:1: expected 'key = value', got 'vocab_size 12'" in capsys.readouterr().err

    def test_corpus_not_utf8_names_file_and_line(self, workdir, tmp_path, capsys):
        lines = (workdir / "data" / "test.tsv").read_bytes().split(b"\n")
        lines[3] = lines[3][:4] + b"\xff" + lines[3][4:]
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"\n".join(lines))
        assert main(self.eval_args(workdir, data=bad)) == 2
        assert f"error: {bad}:4: not UTF-8 text (byte 0xff)" in capsys.readouterr().err

    def test_meta_not_utf8_names_file_and_line(self, workdir, tmp_path, capsys):
        # it printed the codec's message alone
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text)
        lines = Path(f"{ckpt}.meta").read_bytes().split(b"\n")
        lines[2] += b"\xff"
        Path(f"{ckpt}.meta").write_bytes(b"\n".join(lines))
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {ckpt}.meta:3: not UTF-8 text (byte 0xff)\n" == capsys.readouterr().err

    @staticmethod
    def edit_vocab(ckpt, edit):
        """Rewrite ``ckpt``'s vocabulary as ``edit`` of its words, with the
        ids renumbered from 0; returns the vocabulary's path."""
        vocab = Path(f"{ckpt}.vocab.tsv")
        rows = [line.split("\t") for line in vocab.read_text(encoding="utf-8").split("\n")[:-1]]
        rows = edit(rows)
        vocab.write_text("".join(f"{word}\t{i}\t{freq}\n" for i, (word, _, freq) in enumerate(rows)), encoding="utf-8")
        return vocab

    @pytest.mark.parametrize(
        "edit, message",
        [
            # a KeyError: '<UNK>' traceback
            pytest.param(lambda rows: rows[:1] + rows[2:], ":2: expected '<UNK>', got '<MASK>'", id="no-unk"),
            # read without a word: <UNK> became id 0, the embedding row of <PAD>
            pytest.param(lambda rows: [rows[1], rows[0], *rows[2:]], ":1: expected '<PAD>', got '<UNK>'", id="swapped"),
            pytest.param(lambda rows: rows[:2], ":3: expected '<MASK>', got end of file", id="short"),
        ],
    )
    def test_vocabulary_must_start_with_the_special_tokens(self, workdir, tmp_path, capsys, monkeypatch, edit, message):
        monkeypatch.setattr(bench, "evaluate_classifier", never_called)
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text)
        vocab = self.edit_vocab(ckpt, edit)
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {vocab}{message}\n" == capsys.readouterr().err

    def test_vocabulary_of_another_size_than_the_checkpoint(self, workdir, tmp_path, capsys, monkeypatch):
        # it failed only in a batch that held the extra word, naming no file
        monkeypatch.setattr(bench, "evaluate_classifier", never_called)
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text)
        vocab = self.edit_vocab(ckpt, lambda rows: [*rows, ["extra", "", "1"]])
        n = len(vocab.read_text(encoding="utf-8").split("\n")) - 2
        assert main(self.eval_args(workdir, ckpt)) == 2
        assert f"error: {vocab}: {n + 1} words, but {ckpt}.meta has vocab_size = {n}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("labels", ["neg,pos,zzz", "neg"])
    def test_label_count_other_than_n_labels_names_meta(self, workdir, tmp_path, capsys, monkeypatch, labels):
        # "neg,pos,zzz" evaluated and exited 0
        monkeypatch.setattr(bench, "evaluate_classifier", never_called)
        ckpt = self.copy_checkpoint(workdir, tmp_path, lambda text: text.replace("labels = neg,pos\n", f"labels = {labels}\n"))
        out = tmp_path / "report.tsv"
        assert main([*self.eval_args(workdir, ckpt), "--report", str(out)]) == 2
        n = labels.count(",") + 1
        assert f"error: {ckpt}.meta: labels: {n} labels, but n_labels = 2\n" == capsys.readouterr().err
        assert not out.exists()


class TestLabelsSurviveTheMeta:
    """``train`` writes the label list to the ``.meta`` joined by ","; ``eval``
    reads it back through ``read_lines``, so every label ``train`` accepts
    comes back the same, and one the list cannot hold is refused."""

    @staticmethod
    def train_and_eval(root: Path, labels: list[str]):
        """``train`` on one document per label, then ``eval`` on the same
        file; returns both exit codes and the labels ``eval`` used."""
        from unittest import mock

        tsv = root / "labels.tsv"
        tsv.write_text("".join(f"{label}\tgood plot {i}\n" for i, label in enumerate(labels)), encoding="utf-8")
        ckpt = root / "labels.ckpt"
        trained = main(["train", "--task", "cls", "--train-tsv", str(tsv), "--out", str(ckpt),
                        "--steps", "0", *TINY_MODEL])
        if trained:
            return trained, None, None
        with mock.patch.object(bench, "evaluate_classifier", wraps=bench.evaluate_classifier) as spy:
            evaluated = main(["eval", "--ckpt", str(ckpt), "--data-tsv", str(tsv), "--reps", "1"])
        return trained, evaluated, spy.call_args.args[1].labels if spy.called else None

    def test_label_with_a_line_separator(self, tmp_path):
        # eval failed: "odd.ckpt.meta:12: expected 'key = value', got 'g,pos'"
        assert self.train_and_eval(tmp_path, ["ne\u2028g", "pos"]) == (0, 0, ["ne\u2028g", "pos"])

    def test_label_with_a_comma_names_tsv_and_line(self, tmp_path, capsys, monkeypatch):
        # train wrote "labels = n,eg,pos"; eval then read three labels
        monkeypatch.setattr(cli, "train_classifier", never_called)
        tsv = tmp_path / "comma.tsv"
        tsv.write_text("pos\tgood plot\nn,eg\tbad plot\npos\tfine plot\n", encoding="utf-8")
        out = tmp_path / "comma.ckpt"
        assert main(["train", "--task", "cls", "--train-tsv", str(tsv), "--out", str(out), *TINY_MODEL]) == 2
        assert f"error: {tsv}:2: label 'n,eg' holds a ',', which separates the checkpoint's labels\n" == (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == [tsv]

    # the breaks str.splitlines knows and "=", the .meta's separator, beside
    # any character a TSV label field may hold
    LABEL_TEXT = st.text(
        st.sampled_from(["a", "B", " ", "=", "\x85", "\u2028", "\u2029", "\x1c", "\x0b", "é", "#"])
        | st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r,"),
        min_size=1,
        max_size=6,
    ).filter(str.strip)

    @settings(max_examples=30, deadline=None)
    @given(labels=st.lists(LABEL_TEXT, min_size=1, max_size=3))
    @example(labels=["n\x85eg", " a = b ", "x\u2028y z"])
    def test_every_accepted_label_comes_back_from_eval(self, labels):
        import tempfile

        with tempfile.TemporaryDirectory() as root:
            assert self.train_and_eval(Path(root), labels) == (0, 0, sorted({label.strip() for label in labels}))


class TestDepthFilesCheckedOnRead:
    """``train``, ``eval`` and ``bench`` check a depth file against the
    model's depth and the sentences it routes before any step runs or any
    output is written. A bad depth failed only when a batch holding it was
    formed, and no failure named the file."""

    DEFECTS = ["too-deep", "zero", "short-line", "missing-line"]

    @staticmethod
    def write_defect(rows, defect, path):
        """``rows`` with ``defect`` written to ``path``; returns the error
        text after the file's name."""
        if defect == "too-deep":
            rows[2][1] = "13"
            message = ":3: depth 13 outside [1, 2]"
        elif defect == "zero":
            rows[-1][-1] = "0"
            message = f":{len(rows)}: depth 0 outside [1, 2]"
        elif defect == "short-line":
            n = len(rows[3])
            rows[3].pop()
            message = f":4: {n - 1} depths for {n} tokens"
        else:
            n = len(rows)
            rows.pop()
            message = f": depth file has {n - 1} sentences, expected {n}"
        path.write_text("".join(" ".join(row) + "\n" for row in rows), encoding="utf-8")
        return message

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("defect", DEFECTS)
    def test_train_and_eval(self, workdir, tmp_path, capsys, monkeypatch, command, defect):
        rows = [line.split() for line in (workdir / "mi" / "test.depths").read_text().splitlines()]
        bad = tmp_path / "bad.depths"
        message = self.write_defect(rows, defect, bad)
        monkeypatch.setattr(cli, "train_classifier", never_called)
        monkeypatch.setattr(bench, "evaluate_classifier", never_called)
        out = tmp_path / "out"
        if command == "train":
            args = ["train", "--task", "cls", "--train-tsv", str(workdir / "data" / "test.tsv"),
                    "--out", str(out), "--steps", "1", *TINY_MODEL]
        else:
            args = ["eval", "--ckpt", str(workdir / "cls.ckpt"), "--data-tsv", str(workdir / "data" / "test.tsv"),
                    "--reps", "1", "--report", str(out)]
        assert main([*args, "--depths", str(bad)]) == 2
        assert f"error: {bad}{message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_bench(self, tmp_path, capsys, monkeypatch, defect):
        bad = tmp_path / "bad.depths"
        message = self.write_defect([["1", "2", "2", "1", "2", "1"] for _ in range(5)], defect, bad)
        monkeypatch.setattr(bench, "bench_compare", never_called)
        out = tmp_path / "bench.tsv"
        args = ["bench", "--seq-len", "6", "--n-sentences", "5", "--reps", "1", "--out", str(out), *TINY_NET]
        assert main([*args, "--depths", str(bad)]) == 2
        assert f"error: {bad}{message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", ["train_classifier", "evaluate_classifier"])
    def test_library_entry_points_name_the_sentence(self, workdir, monkeypatch, entry):
        # a depth of 13 failed only when the batch that held it ran
        from depthformer import train

        encoder, meta = AdaptiveEncoder.load(workdir / "cls.ckpt")
        corpus = load_tsv(workdir / "data" / "test.tsv")
        maps = [np.ones(len(d.tokens), dtype=np.int64) for d in corpus.documents]
        maps[3][1] = 13
        monkeypatch.setattr(train, "fit", never_called)
        monkeypatch.setattr(encoder, "predict", never_called)
        with pytest.raises(ValueError, match=r"^sentence 3: depth 13 outside \[1, 2\]$"):
            if entry == "train_classifier":
                settings = train.FitSettings(steps=1, lr=1e-3, batch_size=1)
                train.train_classifier(corpus, encoder.config, settings, depth_maps=maps)
            else:
                bench.evaluate_classifier(encoder, corpus, maps)


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

    def test_stdout_closed_after_the_first_line_exits_quietly(self, workdir, tmp_path):
        """As ``depthformer ... | head -1``: the reader closes the pipe after
        the first line. The test split is a FIFO, which the command reads
        after printing the train line, and it is fed only once the pipe is
        closed, so the test line is always written to a closed pipe. The
        child runs unbuffered (``-u``), so the train line reaches the pipe
        before the child blocks on the FIFO."""
        fifo = tmp_path / "test.tsv"
        os.mkfifo(fifo)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "depthformer.cli", "depths", "--mode", "recon",
             "--train-tsv", str(workdir / "data" / "test.tsv"), "--test-tsv", str(fifo),
             "--out-dir", str(tmp_path / "recon"), "--mlm-ckpt", str(workdir / "mlm.ckpt")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = within(120, proc.stdout.readline)
            proc.stdout.close()
            assert first.startswith(b"train\tavg_depth\t")
            within(120, lambda: fifo.write_bytes((workdir / "data" / "test.tsv").read_bytes()))
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()  # ends a blocked readline with end of file
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))  # lets a blocked FIFO writer go on
        assert proc.returncode == 1 and err == b""


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

    def test_negative_cls_steps_is_an_error(self, workdir, tmp_path, capsys, monkeypatch):
        # it trained no classifier and printed accuracy "-"
        monkeypatch.setattr(AdaptiveEncoder, "load", never_called)
        code = main([
            "sweep-lambda", "--mlm-ckpt", str(workdir / "mlm.ckpt"),
            "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--lambdas", "0.1",
            "--cls-steps", "-5", "--out", str(tmp_path / "sweep.tsv"),
        ])
        assert code == 2
        assert "error: cls-steps must be >= 0, got -5" in capsys.readouterr().err
        assert not (tmp_path / "sweep.tsv").exists()

    @pytest.mark.parametrize("cls_steps, profiled", [("0", [20]), ("1", [60, 20])])
    def test_train_split_profiled_only_for_the_classifiers(self, workdir, tmp_path, monkeypatch, cls_steps, profiled):
        sizes = []
        corpus_profiles = recon.corpus_profiles

        def recording(encoder, corpus):
            sizes.append(len(corpus.documents))
            return corpus_profiles(encoder, corpus)

        monkeypatch.setattr(recon, "corpus_profiles", recording)
        assert main([
            "sweep-lambda", "--mlm-ckpt", str(workdir / "mlm.ckpt"),
            "--train-tsv", str(workdir / "data" / "train.tsv"),
            "--test-tsv", str(workdir / "data" / "test.tsv"), "--lambdas", "0.1",
            "--cls-steps", cls_steps, *TINY_WIDTH, "--out", str(tmp_path / "sweep.tsv"),
        ]) == 0
        assert sizes == profiled

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
        corpus = _load_eval_corpus(workdir / "cls.ckpt", workdir / "data" / "test.tsv", meta, encoder.config)
        maps = mi.read_depth_file(workdir / "mi" / "test.depths")
        acc, report = bench.evaluate_classifier(encoder, corpus, maps, batch_size=2)
        assert report.ffn_applications == sum(int(m.sum()) for m in maps)
        assert report.n_tokens == sum(len(m) for m in maps)
        assert report.ffn_applications <= encoder.config.n_layers * report.n_tokens
        assert 0.0 <= acc <= 1.0
