"""The CLI's option strings, pinned. A change that adds, renames or
removes a flag must edit ``EXPECTED`` in the same change. Also pinned: the
CLI imports nothing beyond numpy and the standard library, and the package
never calls ``np.unique``."""

import argparse
import ast
import os
import subprocess
import sys
from pathlib import Path

import depthformer

from depthformer.cli import build_parser

WIDTH = ["--d-model", "--n-heads", "--d-ff", "--dropout", "--precision"]
MODEL = ["--n-layers", *WIDTH]
CORPUS = ["--max-len", "--min-freq", "--no-lowercase"]

EXPECTED = {
    "gen-data": ["--out-dir", "--n-train", "--n-test", "--doc-len", "--seed"],
    "depths": [
        "--mode", "--train-tsv", "--test-tsv", "--out-dir", "--n-bins", "--smoothing", "--hist-bins",
        "--penalty", "--lambda", "--mlm-ckpt", *CORPUS,
    ],
    "train": [
        "--task", "--train-tsv", "--out", "--depths", "--steps", "--lr", "--warmup", "--clip",
        "--batch-size", "--seed", "--mask-rate", "--heldout-fraction", "--eval-every", *MODEL, *CORPUS,
    ],
    "eval": ["--ckpt", "--data-tsv", "--depths", "--batch-size", "--reps", "--precision", "--report"],
    "sweep-lambda": [
        "--mlm-ckpt", "--train-tsv", "--test-tsv", "--lambdas", "--cls-steps", "--lr",
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


# run in a fresh interpreter: what numpy loads, the standard library and the
# package itself are allowed; any other top-level module is printed
IMPORT_PROBE = """
import sys
import numpy
allowed = {name.partition(".")[0] for name in sys.modules} | set(sys.stdlib_module_names) | {"depthformer"}
import depthformer.cli
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules} - allowed)))
"""


def test_cli_imports_only_numpy_and_the_standard_library():
    # each extra import is paid by every CLI start, and by the benchmark's
    # set-up time
    src = str(Path(depthformer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.split() == []


def test_package_never_calls_np_unique():
    """On numpy 2.4, ``np.unique`` ran 8-9x slower than ``corpus.sorted_unique``
    (a sort and a neighbour comparison) on the same int64 keys: 19.7 against
    2.3 ms on the 166 k presence keys of a 1300 x 128-token split, 3.4
    against 0.39 ms on its 1..12 depths."""
    package = Path(depthformer.__file__).parent
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "unique"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert uses == []


def test_package_reads_text_only_through_read_lines():
    """``str.splitlines`` also splits at U+0085, U+2028, U+2029 and
    \\x1c-\\x1e, which a label or a document's text may hold, and
    ``Path.read_text`` names no line of a byte that is not UTF-8;
    ``corpus.read_lines`` splits only where text mode does and names the
    file and line of a bad byte."""
    package = Path(depthformer.__file__).parent
    uses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("splitlines", "read_text")
    ]
    assert uses == []
