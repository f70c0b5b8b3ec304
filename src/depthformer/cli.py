"""Command-line driver: estimate depths, train, evaluate, benchmark."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import bench, mi, recon, synth
from .corpus import TokenizerConfig, Vocab, collect_stats, load_tsv, read_kv_config
from .encoder import AdaptiveEncoder, EncoderConfig
from .recon import estimate_corpus_depths, train_mlm
from .train import train_classifier, write_train_log


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-layers", type=int, default=12)
    p.add_argument("--d-model", type=int, default=128)
    p.add_argument("--n-heads", type=int, default=4)
    p.add_argument("--d-ff", type=int, default=512)
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--precision", choices=["f32", "f64"], default="f32")


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-len", type=int, default=512)
    p.add_argument("--min-freq", type=int, default=1)
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--corpus-config", type=Path, default=None, help="key=value file overriding the corpus flags")


def _tokenizer_config(args) -> TokenizerConfig:
    cfg = TokenizerConfig(max_len=args.max_len, lowercase=not args.no_lowercase, min_freq=args.min_freq)
    if args.corpus_config:
        cfg = TokenizerConfig.from_kv(read_kv_config(args.corpus_config), base=cfg)
    return cfg


def _vocab_path(ckpt: str | Path) -> Path:
    return Path(str(ckpt) + ".vocab.tsv")


def _corpus_meta(corpus) -> dict[str, str]:
    # the tokenizer's max_len can differ from the encoder's (--corpus-config)
    return {
        "labels": ",".join(corpus.labels),
        "tokenizer_max_len": str(corpus.config.max_len),
        "lowercase": str(corpus.config.lowercase),
        "min_freq": str(corpus.config.min_freq),
    }


def _config_from_meta(meta: dict[str, str]) -> TokenizerConfig:
    return TokenizerConfig(
        max_len=int(meta.get("tokenizer_max_len", meta["max_len"])),
        lowercase=meta.get("lowercase", "True") == "True",
        min_freq=int(meta.get("min_freq", "1")),
    )


def _load_eval_corpus(ckpt_path: str | Path, data_tsv: Path, meta: dict[str, str]):
    """A split tokenized as the checkpoint's training corpus was."""
    vocab = Vocab.read(_vocab_path(ckpt_path))
    return load_tsv(data_tsv, _config_from_meta(meta), vocab=vocab, labels=meta["labels"].split(","))


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    train_path, test_path = synth.make_dataset(
        args.out_dir, n_train=args.n_train, n_test=args.n_test, seed=args.seed, doc_len=args.doc_len
    )
    print(f"wrote {train_path} ({args.n_train} docs) and {test_path} ({args.n_test} docs)")
    return 0


def cmd_depths(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.mode == "mi":
        config = _tokenizer_config(args)
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
    if not args.mlm_ckpt or not Path(args.mlm_ckpt).exists():
        raise FileNotFoundError(f"reconstruction mode needs a trained MLM checkpoint, got {args.mlm_ckpt!r}")
    encoder, meta = AdaptiveEncoder.load(args.mlm_ckpt)
    summaries = []
    for split, path in (("train", args.train_tsv), ("test", args.test_tsv)):
        corpus = _load_eval_corpus(args.mlm_ckpt, path, meta)
        maps, avg = estimate_corpus_depths(encoder, corpus, penalty=args.penalty, chunk_rows=args.chunk_rows)
        mi.write_depth_file(out_dir / f"{split}.depths", maps)
        mi.write_histogram(
            out_dir / f"depth_hist_{split}.tsv",
            np.concatenate(maps).astype(np.float64),
            n_bins=encoder.config.n_layers,
        )
        summaries.append((split, avg, len(maps)))
        print(f"{split}\tavg_depth\t{avg:.4f}\tn_sentences\t{len(maps)}")
    with open(out_dir / "summary.tsv", "w", encoding="utf-8") as fh:
        test_avg = [s for s in summaries if s[0] == "test"][0]
        fh.write(f"{args.penalty}\t{test_avg[1]:.6f}\t{test_avg[2]}\n")
    return 0


def cmd_train(args) -> int:
    config = _tokenizer_config(args)
    corpus = load_tsv(args.train_tsv, config)
    enc_config = EncoderConfig(
        vocab_size=len(corpus.vocab),
        n_labels=corpus.n_labels,
        n_layers=args.n_layers,
        d_model=args.d_model,
        n_heads=args.n_heads,
        d_ff=args.d_ff,
        dropout=args.dropout,
        max_len=args.max_len,
        precision=args.precision,
    )

    if args.task == "cls":
        depth_maps = mi.read_depth_file(args.depths) if args.depths else None
        encoder, log = train_classifier(
            corpus,
            enc_config,
            steps=args.steps,
            lr=args.lr,
            batch_size=args.batch_size,
            seed=args.seed,
            depth_maps=depth_maps,
            clip=args.clip,
            warmup=args.warmup,
        )
    else:
        result = train_mlm(
            corpus,
            enc_config,
            steps=args.steps,
            lr=args.lr,
            batch_size=args.batch_size,
            seed=args.seed,
            mask_rate=args.mask_rate,
            clip=args.clip,
            warmup=args.warmup,
            heldout_fraction=args.heldout_fraction,
            eval_every=args.eval_every,
        )
        encoder, log = result.encoder, result.log
        print(f"heldout_anytime_loss\tinitial\t{result.heldout_initial:.4f}\tfinal\t{result.heldout_final:.4f}")

    encoder.save(args.out, extra_meta=_corpus_meta(corpus))
    corpus.vocab.write(_vocab_path(args.out))
    write_train_log(str(args.out) + ".log", log)
    if log:
        print(f"trained {args.task} for {len(log)} steps; final loss {log[-1][1]:.4f}")
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args) -> int:
    encoder, meta = AdaptiveEncoder.load(args.ckpt)
    if args.precision and args.precision != encoder.config.precision:
        cast = AdaptiveEncoder(replace(encoder.config, precision=args.precision), encoder.head, seed=0)
        cast.store.load_arrays(encoder.store.state_arrays())
        encoder = cast
    corpus = _load_eval_corpus(args.ckpt, args.data_tsv, meta)
    depth_maps = mi.read_depth_file(args.depths) if args.depths else None

    accuracy, counts = bench.evaluate_classifier(encoder, corpus, depth_maps, batch_size=args.batch_size)
    totals = [sum(counts.wall_ns)]
    for _ in range(max(0, args.reps - 1)):
        _, rep = bench.evaluate_classifier(encoder, corpus, depth_maps, batch_size=args.batch_size)
        totals.append(sum(rep.wall_ns))

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
    ]
    for key, value in lines:
        print(f"{key}\t{value}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            for key, value in lines:
                fh.write(f"{key}\t{value}\n")
    return 0


def cmd_sweep_lambda(args) -> int:
    encoder, meta = AdaptiveEncoder.load(args.mlm_ckpt)
    train = _load_eval_corpus(args.mlm_ckpt, args.train_tsv, meta)
    test = _load_eval_corpus(args.mlm_ckpt, args.test_tsv, meta)

    # profiles do not depend on the penalty, so score each split once
    train_profiles = recon.corpus_profiles(encoder, train, chunk_rows=args.chunk_rows)
    test_profiles = recon.corpus_profiles(encoder, test, chunk_rows=args.chunk_rows)

    penalties = [float(x) for x in args.lambdas.split(",")]
    n_layers = encoder.config.n_layers
    rows = []
    for penalty in penalties:
        test_maps = recon.depths_from_profiles(test_profiles, penalty)
        avg = recon.average_depth(test_maps)
        n_tokens = sum(len(m) for m in test_maps)
        speed = (n_layers * n_tokens) / sum(int(m.sum()) for m in test_maps)
        accuracy = "-"
        if args.cls_steps > 0:
            train_maps = recon.depths_from_profiles(train_profiles, penalty)
            enc_config = EncoderConfig(
                vocab_size=len(train.vocab),
                n_labels=train.n_labels,
                n_layers=n_layers,
                d_model=args.d_model,
                n_heads=args.n_heads,
                d_ff=args.d_ff,
                dropout=args.dropout,
                max_len=int(meta["max_len"]),
                precision=args.precision,
            )
            cls, _ = train_classifier(
                train, enc_config, steps=args.cls_steps, lr=args.lr,
                batch_size=args.batch_size, seed=args.seed, depth_maps=train_maps,
                warmup=args.warmup,
            )
            acc, _ = bench.evaluate_classifier(cls, test, test_maps, batch_size=args.batch_size)
            accuracy = f"{acc:.4f}"
        rows.append((penalty, accuracy, speed, avg))

    header = "lambda\taccuracy\tspeed\tavg_depth"
    print(header)
    out_lines = [header]
    for penalty, accuracy, speed, avg in rows:
        line = f"{penalty}\t{accuracy}\t{speed:.3f}\t{avg:.4f}"
        print(line)
        out_lines.append(line)
    if args.out:
        Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
    return 0


def cmd_bench(args) -> int:
    enc_config = EncoderConfig(
        vocab_size=args.vocab_size,
        n_labels=2,
        n_layers=args.n_layers,
        d_model=args.d_model,
        n_heads=args.n_heads,
        d_ff=args.d_ff,
        dropout=args.dropout,
        max_len=max(args.seq_len, 1),
        precision=args.precision,
    )
    encoder = AdaptiveEncoder(enc_config, head="cls", seed=args.seed)
    rng = np.random.default_rng(args.seed)
    ids = rng.integers(3, args.vocab_size, size=(args.n_sentences, args.seq_len))
    if args.depths:
        depth_rows = mi.read_depth_file(args.depths)
        if len(depth_rows) != args.n_sentences or any(len(r) != args.seq_len for r in depth_rows):
            raise ValueError("depth file does not match --n-sentences/--seq-len")
    else:
        depth_rows = bench.make_bench_depths(
            args.n_sentences, args.seq_len, args.n_layers, args.target_avg_depth, seed=args.seed
        )
    batch_sizes = [int(x) for x in args.batch_sizes.split(",")]
    rows = bench.bench_compare(encoder, ids, depth_rows, batch_sizes, reps=args.reps)
    print(bench.BenchRow.HEADER)
    out_lines = [bench.BenchRow.HEADER]
    for row in rows:
        print(row.as_tsv())
        out_lines.append(row.as_tsv())
    if args.out:
        Path(args.out).write_text("\n".join(out_lines) + "\n", encoding="utf-8")
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
    p.add_argument("--n-bins", type=int, default=12)
    p.add_argument("--smoothing", type=float, default=0.1)
    p.add_argument("--hist-bins", type=int, default=30)
    p.add_argument("--penalty", "--lambda", dest="penalty", type=float, default=0.1)
    p.add_argument("--mlm-ckpt", type=Path, default=None)
    p.add_argument("--chunk-rows", type=int, default=32)
    _add_corpus_flags(p)
    p.set_defaults(func=cmd_depths)

    p = sub.add_parser("train", help="train the MLM or the classifier")
    p.add_argument("--task", choices=["mlm", "cls"], required=True)
    p.add_argument("--train-tsv", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--depths", type=Path, default=None, help="depth file for adaptive classifier training")
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup", type=int, default=0, help="steps of linear learning-rate ramp")
    p.add_argument("--clip", type=float, default=5.0)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mask-rate", type=float, default=0.15)
    p.add_argument("--heldout-fraction", type=float, default=0.1)
    p.add_argument("--eval-every", type=int, default=0)
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
    p.add_argument("--chunk-rows", type=int, default=32)
    p.add_argument("--cls-steps", type=int, default=0, help="train a classifier per lambda when > 0")
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--warmup", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=Path, default=None)
    _add_model_flags(p)
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
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
