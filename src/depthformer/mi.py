"""Word-depth estimation from mutual information between words and labels.

Each word's MI against the label set is computed from smoothed 2x2
presence/label contingency tables (one table per label, summed). High-MI
words are cheap to classify, so after ``-log`` scaling they fall into the
shallow bins of a fixed-width binning over the observed score range and
get small depths; uninformative words land deep.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .corpus import SPECIAL_TOKENS, Corpus, CorpusStats, Vocab, parse_field, read_lines, sorted_unique

DEFAULT_SMOOTHING = 0.1

# below this a smoothed MI is treated as exactly zero (float cancellation
# noise sits around 1e-17; genuine nonzero values stay orders above)
ZERO_MI_TOL = 1e-15


def _mi_from_counts(
    c11: np.ndarray, doc_freq: np.ndarray, label_counts: np.ndarray, n_docs: int, smoothing: float
) -> np.ndarray:
    """MI summed over labels for rows of presence counts.

    ``c11`` has shape (..., n_labels): documents containing the word with
    each label. All four cells of every per-label table get the same
    additive smoothing; marginals are recomputed from the smoothed cells
    so each table stays a proper distribution.
    """
    c11 = np.asarray(c11, dtype=np.float64)
    df = np.asarray(doc_freq, dtype=np.float64)[..., None]
    ly = np.asarray(label_counts, dtype=np.float64)
    c10 = df - c11
    c01 = ly - c11
    c00 = n_docs - c11 - c10 - c01

    z = n_docs + 4.0 * smoothing
    p11 = (c11 + smoothing) / z
    p10 = (c10 + smoothing) / z
    p01 = (c01 + smoothing) / z
    p00 = (c00 + smoothing) / z
    px1 = p11 + p10
    px0 = p01 + p00
    py1 = p11 + p01
    py0 = p10 + p00

    terms = (
        p11 * np.log(p11 / (px1 * py1))
        + p10 * np.log(p10 / (px1 * py0))
        + p01 * np.log(p01 / (px0 * py1))
        + p00 * np.log(p00 / (px0 * py0))
    )
    return terms.sum(axis=-1)


def assign_bins(values: np.ndarray, n_bins: int) -> tuple[np.ndarray, float, float]:
    """Fixed-width binning of scores into depths 1..n_bins.

    Bins span the empirical [min, max] of ``values``; the maximum maps to
    ``n_bins``. A degenerate range (all scores equal) maps everything to
    depth 1; a range whose bin width underflows to zero or overflows (or
    holds a NaN) is an error.
    """
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot bin an empty score table")
    lo = float(values.min())
    hi = float(values.max())
    if hi == lo:
        return np.ones(values.shape, dtype=np.int64), lo, hi
    width = (hi - lo) / n_bins
    if not 0.0 < width < np.inf:  # also rejects NaN
        raise ValueError(f"cannot split scores from lo={lo!r} to hi={hi!r} into n_bins={n_bins} bins")
    depths = 1 + np.floor((values - lo) / width).astype(np.int64)
    return np.clip(depths, 1, n_bins), lo, hi


@dataclass
class MiTable:
    """Per-word MI, its log-scaled score, and the assigned depth."""

    word_ids: np.ndarray  # (W,) int64
    mi: np.ndarray  # (W,) float64, > 0
    mi_log: np.ndarray  # (W,) float64
    depth: np.ndarray  # (W,) int64 in [1, n_bins]
    n_bins: int

    def __post_init__(self) -> None:
        # depth indexed by vocabulary id; ids outside the table (the
        # special tokens) get the maximum depth
        self.depth_by_id = np.full(int(self.word_ids.max(initial=-1)) + 1, self.n_bins, dtype=np.int64)
        self.depth_by_id[self.word_ids] = self.depth

    def sentence_depths(self, tokens: np.ndarray) -> np.ndarray:
        """Per-token depth map, aligned one-to-one with the sentence."""
        return self.depth_by_id[np.asarray(tokens, dtype=np.int64).ravel()]

    def write(self, path: str | Path, vocab: Vocab) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, wid in enumerate(self.word_ids):
                word = vocab.id_to_word[int(wid)]
                fh.write(f"{word}\t{self.mi[i]:.17g}\t{self.mi_log[i]:.17g}\t{int(self.depth[i])}\n")

    @classmethod
    def read(cls, path: str | Path, vocab: Vocab, n_bins: int) -> "MiTable":
        wids, mi, mi_log, depth = [], [], [], []
        for lineno, raw in enumerate(read_lines(path), 1):
            parts = raw.split("\t")
            where = f"{path}:{lineno}"
            if len(parts) != 4:
                raise ValueError(f"{where}: expected word<TAB>mi<TAB>mi_log<TAB>depth")
            wid = vocab.word_to_id.get(parts[0])
            if wid is None:
                raise ValueError(f"{where}: word {parts[0]!r} is not in the vocabulary")
            wids.append(wid)
            mi.append(parse_field(parts[1], float, "MI", where))
            mi_log.append(parse_field(parts[2], float, "mi_log", where))
            depth.append(parse_field(parts[3], int, "depth", where))
        return cls(
            word_ids=np.asarray(wids, dtype=np.int64),
            mi=np.asarray(mi, dtype=np.float64),
            mi_log=np.asarray(mi_log, dtype=np.float64),
            depth=np.asarray(depth, dtype=np.int64),
            n_bins=n_bins,
        )


def build_mi_table(
    stats: CorpusStats,
    vocab: Vocab,
    n_bins: int,
    smoothing: float = DEFAULT_SMOOTHING,
) -> MiTable:
    """Score every training-vocabulary word and bin it into a depth.

    Special tokens are excluded: they are not corpus words, and the
    lookup rule already sends anything outside the table to depth
    ``n_bins``.
    """
    if smoothing <= 0:
        raise ValueError(f"smoothing must be > 0, got {smoothing}")
    word_ids = np.arange(len(SPECIAL_TOKENS), len(vocab), dtype=np.int64)  # a vocabulary starts with them
    joint = stats.joint[word_ids]
    mi = _mi_from_counts(joint, joint.sum(axis=-1), stats.label_counts, stats.n_docs, smoothing)
    # a word with exactly symmetric counts across labels has MI 0 even after
    # smoothing; it carries no label signal, so score it at the smallest
    # positive MI in the table, which lands it in the deepest bin without
    # stretching the binning range
    mi = np.maximum(mi, 0.0)
    positive = mi[mi > ZERO_MI_TOL]
    floor = float(positive.min()) if positive.size else 1.0
    mi_log = -np.log(np.where(mi > ZERO_MI_TOL, mi, floor))
    depth, _, _ = assign_bins(mi_log, n_bins)
    return MiTable(
        word_ids=word_ids,
        mi=mi,
        mi_log=mi_log,
        depth=depth,
        n_bins=n_bins,
    )


def corpus_depth_maps(table: MiTable, corpus: Corpus) -> list[np.ndarray]:
    """One depth map per document, in corpus order: one lookup over the
    whole split's ids, cut into views at the document boundaries."""
    docs = corpus.documents
    lengths = [len(doc.tokens) for doc in docs]
    flat = table.sentence_depths(np.concatenate([np.zeros(0, dtype=np.int64), *(doc.tokens for doc in docs)]))
    return [flat[end - n : end] for n, end in zip(lengths, accumulate(lengths))]


def write_depth_file(path: str | Path, depth_maps: list[np.ndarray]) -> None:
    """One line per sentence, space-separated integer depths."""
    rows = [np.asarray(depths, dtype=np.int64) for depths in depth_maps]
    lengths = np.fromiter(map(len, rows), np.int64, count=len(rows))
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *rows])
    # a depth file holds few distinct values, so each is formatted once: as
    # a word that a space ends and, for the last value of a row, one that a
    # newline ends; an empty row is a bare newline
    values = sorted_unique(flat).tolist()
    words = np.array([*(f"{v} " for v in values), *(f"{v}\n" for v in values), "\n"], dtype=object)
    codes = np.searchsorted(values, flat)
    ends = np.cumsum(lengths)
    codes[ends[lengths > 0] - 1] += len(values)
    codes = np.insert(codes, ends[lengths == 0], 2 * len(values))
    Path(path).write_text("".join(words[codes].tolist()), encoding="utf-8")


def read_depth_file(path: str | Path) -> list[np.ndarray]:
    """The depth maps of a ``write_depth_file`` file, one per line."""
    rows = [raw.split() for raw in read_lines(path)]
    # as in writing, each distinct value is parsed once
    value: dict[str, int] = {}
    for token in set(chain.from_iterable(rows)):
        with suppress(ValueError):
            value[token] = int(token)
    maps = []
    for lineno, tokens in enumerate(rows, 1):
        try:
            maps.append(np.fromiter(map(value.__getitem__, tokens), np.int64, count=len(tokens)))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: depth must be an integer, got {exc.args[0]!r}") from None
        except OverflowError:
            big = max(tokens, key=lambda token: abs(value[token]))
            raise ValueError(f"{path}:{lineno}: depth {big} does not fit in 64 bits") from None
    return maps


def write_histogram(path: str | Path, values: np.ndarray, n_bins: int) -> None:
    """Uniform-bin histogram export: ``bin_lo<TAB>bin_hi<TAB>count`` rows."""
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins=n_bins)
    with open(path, "w", encoding="utf-8") as fh:
        for i, count in enumerate(counts):
            fh.write(f"{edges[i]:.17g}\t{edges[i + 1]:.17g}\t{int(count)}\n")
