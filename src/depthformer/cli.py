"""Command-line driver: estimate depths, train, evaluate, benchmark."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, mi, recon, synth
from .checkpoint import meta_path, meta_value, parse_bool
from .corpus import TokenizerConfig, Vocab, collect_stats, load_tsv
from .encoder import AdaptiveEncoder, EncoderConfig
from .recon import train_mlm
from .train import DEFAULT_CLIP, FitSettings, check_depth_maps, train_classifier, write_step_files


def _add_model_flags(p: argparse.ArgumentParser, n_layers: bool = True) -> None:
    if n_layers:
        p.add_argument("--n-layers", type=int, default=12)
    p.add_argument("--d-model", type=int, default=128)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=512)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--precision", choices=["f32", "f64"], default="f32")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-len", type=int, default=TokenizerConfig.max_len)
    p.add_argument("--min-freq", type=int, default=TokenizerConfig.min_freq)
    p.add_argument("--no-lowercase", action="store_true")


def _tokenizer_config(args) -> TokenizerConfig:
    return TokenizerConfig(max_len=args.max_len, lowercase=not args.no_lowercase, min_freq=args.min_freq)


def _encoder_config(args, vocab_size: int, n_labels: int, max_len: int, n_layers: int | None = None) -> EncoderConfig:
    """An encoder built from the model flags (``_add_model_flags``)."""
    return EncoderConfig(
        vocab_size=vocab_size,
        n_labels=n_labels,
        n_layers=args.n_layers if n_layers is None else n_layers,
        d_model=args.d_model,
        n_heads=args.n_heads,
        d_ff=args.d_ff,
        dropout=args.dropout,
        max_len=max_len,
        precision=args.precision,
    )


def _vocab_path(ckpt: str | Path) -> Path:
    return Path(str(ckpt) + ".vocab.tsv")


def _corpus_meta(corpus, path: Path) -> dict[str, str]:
    """The corpus's entries in a checkpoint's ``.meta``. A label holding the
    list's separator "," fails naming the first line of ``path`` with it."""
    for lineno, doc in enumerate(corpus.documents, 1):  # one document per line
        if "," in (label := corpus.labels[doc.label]):
            raise ValueError(f"{path}:{lineno}: label {label!r} holds a ',', which separates the checkpoint's labels")
    # the tokenizer's max_len is the encoder's, already in the meta
    return {
        "labels": ",".join(corpus.labels),
        "lowercase": str(corpus.config.lowercase),
        "min_freq": str(corpus.config.min_freq),
    }


def _config_from_meta(meta: dict[str, str]) -> TokenizerConfig:
    # checkpoints trained with a tokenizer max_len of its own carry it
    max_len = "tokenizer_max_len" if "tokenizer_max_len" in meta else "max_len"
    return TokenizerConfig(
        max_len=meta_value(meta, max_len, int),
        lowercase=meta_value(meta, "lowercase", parse_bool, default="True"),
        min_freq=meta_value(meta, "min_freq", int, default="1"),
    )


def _load_eval_corpus(ckpt_path: str | Path, data_tsv: Path, meta: dict[str, str], config: EncoderConfig):
    """A split tokenized as the checkpoint's training corpus was, once the
    checkpoint's vocabulary and label list are checked against ``config``,
    its encoder's."""
    vocab_path = _vocab_path(ckpt_path)
    vocab = Vocab.read(vocab_path)
    if len(vocab) != config.vocab_size:
        raise ValueError(
            f"{vocab_path}: {len(vocab)} words, but {meta_path(ckpt_path)} has vocab_size = {config.vocab_size}"
        )
    labels = meta["labels"].split(",")
    if len(labels) != config.n_labels:
        raise ValueError(f"{meta_path(ckpt_path)}: labels: {len(labels)} labels, but n_labels = {config.n_labels}")
    return load_tsv(data_tsv, _config_from_meta(meta), vocab=vocab, labels=labels)


def _emit(lines: list[str], path: Path | None) -> None:
    """Print ``lines`` and, when ``path`` is set, write the same text there."""
    text = "".join(line + "\n" for line in lines)
    print(text, end="")
    if path:
        Path(path).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    train_path, test_path = synth.make_dataset(
        args.out_dir, n_train=args.n_train, n_test=args.n_test, seed=args.seed, doc_len=args.doc_len
    )
    print(f"wrote {train_path} ({args.n_train} docs) and {test_path} ({args.n_test} docs)")
    return 0


# the flags each depths mode reads, with their defaults; they parse to None,
# so a flag given to the other mode is caught
_DEPTHS_FLAGS = {
    "mi": {"max_len": TokenizerConfig.max_len, "min_freq": TokenizerConfig.min_freq, "no_lowercase": False,
           "n_bins": 12, "smoothing": mi.DEFAULT_SMOOTHING, "hist_bins": 30},
    "recon": {"penalty": 0.1, "mlm_ckpt": None},
}


def cmd_depths(args) -> int:
    for mode, defaults in _DEPTHS_FLAGS.items():
        for name, default in defaults.items():
            if mode == args.mode and getattr(args, name) is None:
                setattr(args, name, default)
            elif mode != args.mode and getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')} applies only to --mode {mode}")
    if args.mode == "recon":
        recon.check_penalty(args.penalty)
        if not args.mlm_ckpt or not Path(args.mlm_ckpt).exists():
            raise FileNotFoundError(f"reconstruction mode needs a trained MLM checkpoint, got {args.mlm_ckpt!r}")
    else:
        config = _tokenizer_config(args)
        for name in ("n_bins", "hist_bins"):
            if getattr(args, name) < 1:
                raise ValueError(f"{name.replace('_', '-')} must be >= 1, got {getattr(args, name)}")
        if not args.smoothing > 0:  # also rejects NaN
            raise ValueError(f"smoothing must be > 0, got {args.smoothing}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mode == "mi":
        train = load_tsv(args.train_tsv, config)
        test = load_tsv(args.test_tsv, config, vocab=train.vocab, labels=train.labels)
        stats = collect_stats(train)
        table = mi.build_mi_table(stats, train.vocab, n_bins=args.n_bins, smoothing=args.smoothing)
        train.vocab.write(out_dir / "vocab.tsv")
        table.write(out_dir / "mi_table.tsv", train.vocab)
        mi.write_histogram(out_dir / "mi_hist.tsv", table.mi, n_bins=args.hist_bins)
        for split, corpus in (("train", train), ("test", test)):
            maps = mi.corpus_depth_maps(table, corpus)
            mi.write_depth_file(out_dir / f"{split}.depths", maps)
            print(f"{split}\tavg_depth\t{recon.average_depth(maps):.4f}\tn_sentences\t{len(maps)}")
        return 0

    # reconstruction mode
    encoder, meta = AdaptiveEncoder.load(args.mlm_ckpt)
    for split, path in (("train", args.train_tsv), ("test", args.test_tsv)):
        corpus = _load_eval_corpus(args.mlm_ckpt, path, meta, encoder.config)
        profiles = recon.corpus_profiles(encoder, corpus)
        maps = recon.depths_from_profiles(profiles, args.penalty)
        avg = recon.average_depth(maps)
        mi.write_depth_file(out_dir / f"{split}.depths", maps)
        mi.write_histogram(
            out_dir / f"depth_hist_{split}.tsv",
            np.concatenate(maps).astype(np.float64),
            n_bins=encoder.config.n_layers,
        )
        print(f"{split}\tavg_depth\t{avg:.4f}\tn_sentences\t{len(maps)}")
    # the loop ends on the test split, whose values the summary holds
    with open(out_dir / "summary.tsv", "w", encoding="utf-8") as fh:
        fh.write(f"{args.penalty}\t{avg:.6f}\t{len(maps)}\n")
    return 0


_MLM_ONLY = ("mask_rate", "heldout_fraction", "eval_every")


def cmd_train(args) -> int:
    if args.depths and args.task != "cls":
        raise ValueError("--depths applies only to --task cls")
    # given only when set; train_mlm's defaults fill the rest
    mlm_settings = {name: getattr(args, name) for name in _MLM_ONLY if getattr(args, name) is not None}
    if mlm_settings and args.task != "mlm":
        raise ValueError(f"--{next(iter(mlm_settings)).replace('_', '-')} applies only to --task mlm")
    settings = FitSettings(args.steps, args.lr, args.batch_size, args.clip, args.warmup)
    corpus = load_tsv(args.train_tsv, _tokenizer_config(args))
    corpus_meta = _corpus_meta(corpus, args.train_tsv)  # made first: it checks the labels
    enc_config = _encoder_config(args, len(corpus.vocab), corpus.n_labels, args.max_len)

    if args.task == "cls":
        depth_maps = None
        if args.depths:
            depth_maps = mi.read_depth_file(args.depths)
            check_depth_maps(depth_maps, [len(d.tokens) for d in corpus.documents], enc_config.n_layers, args.depths)
        encoder, log = train_classifier(corpus, enc_config, settings, seed=args.seed, depth_maps=depth_maps)
    else:
        result = train_mlm(corpus, enc_config, settings, seed=args.seed, **mlm_settings)
        encoder, log = result.encoder, result.log
        print(f"heldout_anytime_loss\tinitial\t{result.heldout_log[0][1]:.4f}\tfinal\t{result.heldout_log[-1][1]:.4f}")
        every = mlm_settings.get("eval_every", 0)
        for step, loss in result.heldout_log[1:]:
            if every and step % every == 0:  # the scores --eval-every asked for, not the final one
                print(f"heldout_anytime_loss_at_step\t{step}\t{loss:.4f}")

    encoder.save(args.out, extra_meta=corpus_meta)
    corpus.vocab.write(_vocab_path(args.out))
    write_step_files(args.out, log)
    if log:
        print(f"trained {args.task} for {len(log)} steps; final loss {log[-1].loss:.4f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.reps < 1:
        raise ValueError(f"reps must be >= 1, got {args.reps}")
    encoder, meta = AdaptiveEncoder.load(args.ckpt)
    if args.precision and args.precision != encoder.config.precision:
        config = replace(encoder.config, precision=args.precision)
        encoder = AdaptiveEncoder.from_arrays(config, encoder.head, encoder.store.state_arrays())
    corpus = _load_eval_corpus(args.ckpt, args.data_tsv, meta, encoder.config)
    depth_maps = None
    if args.depths:
        depth_maps = mi.read_depth_file(args.depths)
        check_depth_maps(depth_maps, [len(d.tokens) for d in corpus.documents], encoder.config.n_layers, args.depths)

    runs = [bench.evaluate_classifier(encoder, corpus, depth_maps, batch_size=args.batch_size) for _ in range(args.reps)]
    (accuracy, counts), totals = runs[0], [sum(rep.wall_ns) for _, rep in runs]

    # what a fixed-depth pass over the same tokens would execute
    fixed_ffn_applications = encoder.config.n_layers * counts.n_tokens
    lines = [
        ("accuracy", f"{accuracy:.4f}"),
        ("n_sentences", len(corpus.documents)),
        ("n_tokens", counts.n_tokens),
        ("batch_size", args.batch_size),
        ("ffn_applications", counts.ffn_applications),
        ("fixed_ffn_applications", fixed_ffn_applications),
        ("count_ratio", f"{counts.ffn_applications / fixed_ffn_applications:.4f}"),
        ("kv_projections", counts.kv_projections),
        ("wall_total_ns_min", min(totals)),
        ("wall_total_ns_median", bench.upper_median(totals)),
        ("wall_forward_ns_min", min(counts.wall_ns)),
        ("wall_forward_ns_median", bench.upper_median(counts.wall_ns)),
        ("blas_threads", bench.blas_threads()),
    ]
    _emit([f"{key}\t{value}" for key, value in lines], args.report)
    return 0


def cmd_sweep_lambda(args) -> int:
    penalties = [float(x) for x in args.lambdas.split(",")]
    for penalty in penalties:
        recon.check_penalty(penalty)
    if args.cls_steps < 0:
        raise ValueError(f"cls-steps must be >= 0, got {args.cls_steps}")
    settings = None  # a classifier per penalty only when --cls-steps > 0
    if args.cls_steps > 0:
        settings = FitSettings(args.cls_steps, args.lr, args.batch_size, warmup=args.warmup)
    encoder, meta = AdaptiveEncoder.load(args.mlm_ckpt)
    train = _load_eval_corpus(args.mlm_ckpt, args.train_tsv, meta, encoder.config)
    test = _load_eval_corpus(args.mlm_ckpt, args.test_tsv, meta, encoder.config)

    # profiles do not depend on the penalty, so score each split once; the
    # train split's feed only the classifiers
    train_profiles = recon.corpus_profiles(encoder, train) if settings is not None else None
    test_profiles = recon.corpus_profiles(encoder, test)

    n_layers = encoder.config.n_layers
    rows = []
    for penalty in penalties:
        test_maps = recon.depths_from_profiles(test_profiles, penalty)
        avg = recon.average_depth(test_maps)
        n_tokens = sum(len(m) for m in test_maps)
        speed = (n_layers * n_tokens) / sum(int(m.sum()) for m in test_maps)
        accuracy = "-"
        if settings is not None:
            train_maps = recon.depths_from_profiles(train_profiles, penalty)
            enc_config = _encoder_config(args, len(train.vocab), train.n_labels, encoder.config.max_len, n_layers)
            cls, _ = train_classifier(train, enc_config, settings, seed=args.seed, depth_maps=train_maps)
            acc, _ = bench.evaluate_classifier(cls, test, test_maps, batch_size=args.batch_size)
            accuracy = f"{acc:.4f}"
        rows.append((penalty, accuracy, speed, avg))

    table = [f"{penalty}\t{accuracy}\t{speed:.3f}\t{avg:.4f}" for penalty, accuracy, speed, avg in rows]
    _emit(["lambda\taccuracy\tspeed\tavg_depth", *table], args.out)
    return 0


def cmd_bench(args) -> int:
    enc_config = _encoder_config(args, args.vocab_size, 2, max(args.seq_len, 1))
    encoder = AdaptiveEncoder(enc_config, head="cls", seed=args.seed)
    rng = np.random.default_rng(args.seed)
    ids = rng.integers(3, args.vocab_size, size=(args.n_sentences, args.seq_len))
    if args.depths:
        depth_rows = mi.read_depth_file(args.depths)
        check_depth_maps(depth_rows, [args.seq_len] * args.n_sentences, args.n_layers, args.depths)
    else:
        depth_rows = bench.make_bench_depths(
            args.n_sentences, args.seq_len, args.n_layers, args.target_avg_depth, seed=args.seed
        )
    batch_sizes = [int(x) for x in args.batch_sizes.split(",")]
    rows = bench.bench_compare(encoder, ids, depth_rows, batch_sizes, reps=args.reps)
    print(f"blas_threads\t{bench.blas_threads()}")
    _emit([bench.BenchRow.HEADER, *(row.as_tsv() for row in rows)], args.out)
    return 0


def cmd_export_hist(args) -> int:
    vocab = Vocab.read(args.vocab)
    table = mi.MiTable.read(args.mi_table, vocab, n_bins=args.n_bins)
    values = {"mi": table.mi, "mi_log": table.mi_log, "depth": table.depth.astype(np.float64)}[args.field]
    mi.write_histogram(args.out, values, n_bins=args.bins)
    print(f"wrote {args.bins}-bin histogram of {args.field} to {args.out}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depthformer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic two-label corpus")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--n-train", type=int, default=400)
    p.add_argument("--n-test", type=int, default=100)
    p.add_argument("--doc-len", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("depths", help="estimate per-token depths for a dataset")
    p.add_argument("--mode", choices=["mi", "recon"], required=True)
    p.add_argument("--train-tsv", type=Path, required=True)
    p.add_argument("--test-tsv", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--n-bins", type=int)
    p.add_argument("--smoothing", type=float)
    p.add_argument("--hist-bins", type=int)
    p.add_argument("--penalty", "--lambda", dest="penalty", type=float)
    p.add_argument("--mlm-ckpt", type=Path)
    _add_corpus_flags(p)
    p.set_defaults(func=cmd_depths, max_len=None, min_freq=None, no_lowercase=None)  # see _DEPTHS_FLAGS

    p = sub.add_parser("train", help="train the MLM or the classifier")
    p.add_argument("--task", choices=["mlm", "cls"], required=True)
    p.add_argument("--train-tsv", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--depths", type=Path, default=None, help="depth file for adaptive classifier training")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup", type=int, default=0, help="steps of linear learning-rate ramp")
    p.add_argument("--clip", type=float, default=DEFAULT_CLIP)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-rate", type=float, default=None, help="--task mlm only (default 0.15)")
    p.add_argument("--heldout-fraction", type=float, default=None, help="--task mlm only (default 0.1)")
    p.add_argument("--eval-every", type=int, default=None, help="--task mlm only (default 0: never)")
    _add_model_flags(p)
    _add_corpus_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy and compute report for a checkpoint")
    p.add_argument("--ckpt", type=Path, required=True)
    p.add_argument("--data-tsv", type=Path, required=True)
    p.add_argument("--depths", type=Path, default=None)
    p.add_argument("--batch-size", type=int, default=1)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--precision", choices=["f32", "f64"], default=None,
                   help="cast parameters; defaults to the checkpoint's precision")
    p.add_argument("--report", type=Path, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-lambda", help="depth/speed/accuracy across penalty values")
    p.add_argument("--mlm-ckpt", type=Path, required=True)
    p.add_argument("--train-tsv", type=Path, required=True)
    p.add_argument("--test-tsv", type=Path, required=True)
    p.add_argument("--lambdas", type=str, default="0,0.05,0.1,0.15,0.2")
    p.add_argument("--cls-steps", type=int, default=0, help="train a classifier per lambda when > 0")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    _add_model_flags(p, n_layers=False)  # the classifiers take the MLM's depth
    p.set_defaults(func=cmd_sweep_lambda)

    p = sub.add_parser("bench", help="fixed vs adaptive wall clock on synthetic input")
    p.add_argument("--seq-len", type=int, default=256)
    p.add_argument("--n-sentences", type=int, default=8)
    p.add_argument("--batch-sizes", type=str, default="1")
    p.add_argument("--target-avg-depth", type=float, default=3.0)
    p.add_argument("--depths", type=Path, default=None)
    p.add_argument("--vocab-size", type=int, default=1000)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    _add_model_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("export-hist", help="histogram TSV from a saved MI table")
    p.add_argument("--mi-table", type=Path, required=True)
    p.add_argument("--vocab", type=Path, required=True)
    p.add_argument("--field", choices=["mi", "mi_log", "depth"], default="mi")
    p.add_argument("--bins", type=int, default=30)
    p.add_argument("--n-bins", type=int, default=12, help="depth bin count the table was built with")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=cmd_export_hist)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``); what is left unwritten goes
        # to devnull, so the interpreter's flush at exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (OSError, ValueError) as exc:  # a bad flag or input, a directory, an unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
