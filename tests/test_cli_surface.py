"""The CLI's option strings, pinned. A change that adds, renames or
removes a flag must edit ``EXPECTED`` in the same change."""

import argparse

from depthformer.cli import build_parser

WIDTH = ["--d-model", "--n-heads", "--d-ff", "--dropout", "--precision"]
MODEL = ["--n-layers", *WIDTH]
CORPUS = ["--max-len", "--min-freq", "--no-lowercase", "--corpus-config"]

EXPECTED = {
    "gen-data": ["--out-dir", "--n-train", "--n-test", "--doc-len", "--seed"],
    "depths": [
        "--mode", "--train-tsv", "--test-tsv", "--out-dir", "--n-bins", "--smoothing", "--hist-bins",
        "--penalty", "--lambda", "--mlm-ckpt", "--chunk-rows", *CORPUS,
    ],
    "train": [
        "--task", "--train-tsv", "--out", "--depths", "--steps", "--lr", "--warmup", "--clip",
        "--batch-size", "--seed", "--mask-rate", "--heldout-fraction", "--eval-every", *MODEL, *CORPUS,
    ],
    "eval": ["--ckpt", "--data-tsv", "--depths", "--batch-size", "--reps", "--precision", "--report"],
    "sweep-lambda": [
        "--mlm-ckpt", "--train-tsv", "--test-tsv", "--lambdas", "--chunk-rows", "--cls-steps", "--lr",
        "--warmup", "--batch-size", "--seed", "--out", *WIDTH,
    ],
    "bench": [
        "--seq-len", "--n-sentences", "--batch-sizes", "--target-avg-depth", "--depths", "--vocab-size",
        "--reps", "--seed", "--out", *MODEL,
    ],
    "export-hist": ["--mi-table", "--vocab", "--field", "--bins", "--n-bins", "--out"],
}


def option_strings(parser: argparse.ArgumentParser) -> list[str]:
    return sorted(o for action in parser._actions for o in action.option_strings if o not in ("-h", "--help"))


def test_every_subcommand_has_exactly_the_pinned_options():
    parser = build_parser()
    assert option_strings(parser) == []
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actual = {name: option_strings(sub) for name, sub in subparsers.choices.items()}
    assert actual == {name: sorted(opts) for name, opts in EXPECTED.items()}
