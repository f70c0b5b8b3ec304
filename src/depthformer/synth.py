"""Synthetic two-label corpus for hermetic runs and CI.

Documents are bags of abstract words with controlled label statistics:

* ``cue_*``     strongly label-bound words (two per document) -- high MI,
                so the MI estimator puts them in the shallowest bin;
* ``filler_*``  mildly label-leaning bulk words -- low-to-mid bins;
* ``common_*``  frequent, label-independent words -- deep bins;
* ``rare_*``    rare, label-independent words -- they stretch the score
                range and land in the deepest bin.

The resulting MI depth maps average around a quarter of a 12-layer stack,
which is what the compute-savings checks need, while the label stays
trivially predictable from the cues so classifiers of any depth schedule
can reach it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

LABELS = ("neg", "pos")

N_CUES_PER_LABEL = 6
N_FILLERS = 20
N_COMMONS = 8
N_RARES = 6
FILLER_TILT = 0.4
RARE_DOC_PROB = 0.05


def _word_lists() -> tuple[list[list[str]], list[str], list[str], list[str]]:
    cues = [[f"cue_{label}_{i}" for i in range(N_CUES_PER_LABEL)] for label in LABELS]
    fillers = [f"filler_{i:02d}" for i in range(N_FILLERS)]
    commons = [f"common_{i}" for i in range(N_COMMONS)]
    rares = [f"rare_{i}" for i in range(N_RARES)]
    return cues, fillers, commons, rares


def generate(n_docs: int, seed: int = 0, doc_len: int = 12) -> list[tuple[str, str]]:
    """Balanced labeled documents, deterministic for a given seed."""
    if n_docs < 1:
        raise ValueError(f"n_docs must be >= 1, got {n_docs}")
    if doc_len < 4:
        raise ValueError(f"doc_len must be >= 4, got {doc_len}")
    rng = np.random.default_rng(seed)
    cues, fillers, commons, rares = _word_lists()

    # per-label filler draw weights: even fillers lean pos, odd lean neg
    weights = np.empty((2, N_FILLERS))
    for i in range(N_FILLERS):
        leans_pos = i % 2 == 0
        weights[1, i] = 1.0 + FILLER_TILT if leans_pos else 1.0 - FILLER_TILT
        weights[0, i] = 1.0 - FILLER_TILT if leans_pos else 1.0 + FILLER_TILT
    weights /= weights.sum(axis=1, keepdims=True)
    # their cumulative sums, normalised as Generator.choice normalises them
    cdf = weights.cumsum(axis=1)
    cdf /= cdf[:, -1:]

    labels = np.array([i % 2 for i in range(n_docs)])
    rng.shuffle(labels)

    rows: list[tuple[str, str]] = []
    n_fill = doc_len - 3
    for label in labels.tolist():
        words = [cues[label][i] for i in rng.integers(0, N_CUES_PER_LABEL, size=2).tolist()]
        words.append(commons[int(rng.integers(0, N_COMMONS))])
        # the fillers, then the rare-word test, from one call: the stream and
        # the lookup of rng.choice(N_FILLERS, size=n_fill, p=weights[label])
        # followed by rng.random()
        draws = rng.random(n_fill + 1)
        fill = [fillers[i] for i in cdf[label].searchsorted(draws[:n_fill], side="right").tolist()]
        if draws[n_fill] < RARE_DOC_PROB:
            fill[0] = rares[int(rng.integers(0, N_RARES))]
        words.extend(fill)
        text = " ".join([words[i] for i in rng.permutation(len(words)).tolist()])
        rows.append((LABELS[label], text))
    return rows


def write_tsv(path: str | Path, rows: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(f"{label}\t{text}\n" for label, text in rows))


def make_dataset(
    out_dir: str | Path, n_train: int = 400, n_test: int = 100, seed: int = 0, doc_len: int = 12
) -> tuple[Path, Path]:
    """Write train/test TSVs drawn from the same distribution. Both are
    generated, and so checked, before ``out_dir`` is made."""
    train = generate(n_train, seed=seed, doc_len=doc_len)
    test = generate(n_test, seed=seed + 1, doc_len=doc_len)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    train_path = out_dir / "train.tsv"
    test_path = out_dir / "test.tsv"
    write_tsv(train_path, train)
    write_tsv(test_path, test)
    return train_path, test_path
