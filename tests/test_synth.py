"""The synthetic corpus generator against its per-document reference."""

import numpy as np
import pytest

from depthformer import synth


def reference_generate(n_docs, seed=0, doc_len=12):
    """``synth.generate`` as one ``Generator.choice`` and one scalar
    ``random()`` per document, with a per-element ``int()`` for each word."""
    rng = np.random.default_rng(seed)
    cues, fillers, commons, rares = synth._word_lists()
    weights = np.empty((2, synth.N_FILLERS))
    for i in range(synth.N_FILLERS):
        leans_pos = i % 2 == 0
        weights[1, i] = 1.0 + synth.FILLER_TILT if leans_pos else 1.0 - synth.FILLER_TILT
        weights[0, i] = 1.0 - synth.FILLER_TILT if leans_pos else 1.0 + synth.FILLER_TILT
    weights /= weights.sum(axis=1, keepdims=True)
    labels = np.array([i % 2 for i in range(n_docs)])
    rng.shuffle(labels)
    rows = []
    n_fill = doc_len - 3
    for label in labels:
        words = [cues[label][int(i)] for i in rng.integers(0, synth.N_CUES_PER_LABEL, size=2)]
        words.append(commons[int(rng.integers(0, synth.N_COMMONS))])
        fill = [fillers[int(i)] for i in rng.choice(synth.N_FILLERS, size=n_fill, p=weights[label])]
        if rng.random() < synth.RARE_DOC_PROB:
            fill[0] = rares[int(rng.integers(0, synth.N_RARES))]
        words.extend(fill)
        order = rng.permutation(len(words))
        rows.append((synth.LABELS[label], " ".join(words[int(i)] for i in order)))
    return rows


@pytest.mark.parametrize(
    "n_docs, seed, doc_len",
    [
        (1300, 0, 128), (90, 5, 128),  # long-eval's splits
        (960, 0, 12), (300, 7, 12),  # short-pipeline's
        (400, 0, 64), (100, 3, 64),  # mid-recon's
        (50, 3, 4), (2000, 11, 33), (1, 2, 12),
    ],
)
def test_rows_match_the_per_document_reference(n_docs, seed, doc_len):
    assert synth.generate(n_docs, seed=seed, doc_len=doc_len) == reference_generate(n_docs, seed, doc_len)


def test_tsv_holds_one_line_per_row(tmp_path):
    rows = synth.generate(30, seed=4)
    synth.write_tsv(tmp_path / "x.tsv", rows)
    assert (tmp_path / "x.tsv").read_text(encoding="utf-8") == "".join(f"{l}\t{t}\n" for l, t in rows)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ({"n_train": 0}, "n_docs must be >= 1, got 0"),
        ({"n_test": -2}, "n_docs must be >= 1, got -2"),
        ({"doc_len": 3}, "doc_len must be >= 4, got 3"),
    ],
)
def test_make_dataset_checks_sizes_before_making_the_directory(tmp_path, sizes, message):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        synth.make_dataset(out, **sizes)
    assert not out.exists()
