"""One set-up repetition, run in a fresh interpreter so that it pays what a
user's first command pays: importing the package (and numpy), generating
the corpus, and constructing the workload's two encoders.

    python3 -m pipebench.setup_rep --workload NAME --seed N --out-dir DIR

The train split comes from ``TRAIN_CORPUS_SEED`` and the test split from
the workload seed; see ``workloads.py`` for why.
"""

from __future__ import annotations

import argparse
from pathlib import Path


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    from depthformer import cli
    from depthformer.corpus import load_tsv
    from depthformer.encoder import AdaptiveEncoder, EncoderConfig

    from .workloads import N_LAYERS, TRAIN_CORPUS_SEED, WORKLOADS

    w = WORKLOADS[args.workload]
    out = args.out_dir
    for sub, seed, n_train, n_test in (("train", TRAIN_CORPUS_SEED, w.n_train, 1), ("test", args.seed, 1, w.n_test)):
        argv = ["gen-data", "--out-dir", out / sub, "--n-train", n_train, "--n-test", n_test,
                "--doc-len", w.doc_len, "--seed", seed]
        if cli.main([str(a) for a in argv]) != 0:
            raise SystemExit(f"gen-data failed for the {sub} split")
    (out / "train" / "train.tsv").rename(out / "train.tsv")
    (out / "test" / "test.tsv").rename(out / "test.tsv")

    corpus = load_tsv(out / "train.tsv")
    for shape, head in ((w.mlm, "mlm"), (w.cls, "cls")):
        config = EncoderConfig(vocab_size=len(corpus.vocab), n_labels=corpus.n_labels, n_layers=N_LAYERS,
                               d_model=shape.d_model, d_ff=shape.d_ff, max_len=shape.max_len)
        AdaptiveEncoder(config, head, seed=args.seed)


if __name__ == "__main__":
    main()
