"""Shared fixtures. Thread pinning must happen before numpy loads so the
timing-sensitive tests and bit-reproducibility checks run single-threaded."""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from depthformer import synth  # noqa: E402
from depthformer.corpus import load_tsv  # noqa: E402

# every run draws the same property-test examples, and no failure found in
# one run is replayed from a database in the next; each test keeps its own
# max_examples
settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthdata")
    synth.write_tsv(out / "train.tsv", synth.generate(400, seed=0))
    synth.write_tsv(out / "test.tsv", synth.generate(100, seed=1))
    return out


@pytest.fixture(scope="session")
def synth_train(synth_dir):
    return load_tsv(synth_dir / "train.tsv")


@pytest.fixture(scope="session")
def synth_test(synth_dir, synth_train):
    return load_tsv(synth_dir / "test.tsv", vocab=synth_train.vocab, labels=synth_train.labels)


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# acceptance reporting: one visible pass/fail line per criterion

_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")
