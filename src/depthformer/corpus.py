"""Labeled text corpora: tokenization, vocabulary and document-presence counts.

Datasets are TSV files, one document per line: ``label<TAB>text``. The
vocabulary is always frozen on the training split; test documents map
unseen words to ``<UNK>``. Word/label statistics are counted at the
document level (a word counts once per document no matter how often it
repeats), which is what the downstream mutual-information scoring needs.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
MASK_TOKEN = "<MASK>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


class CorpusError(ValueError):
    """Malformed input data (bad line, unknown label, empty split)."""


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, split at "\\n" only and each without
    one trailing "\\r"; a final newline ends the last line, not a new one.

    ``str.splitlines`` would also split at U+0085, U+2028, U+2029 and
    \\x1c-\\x1e, which a document's text may hold.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def parse_field(text: str, kind: type, name: str, where: str):
    """``kind(text)`` for a field of an input file; a malformed one raises
    a ``CorpusError`` naming ``where`` (``path:line``) and the field."""
    try:
        return kind(text)
    except ValueError:
        raise CorpusError(f"{where}: {name} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


@dataclass(frozen=True)
class TokenizerConfig:
    """Corpus-level settings. ``max_len`` clips long documents."""

    max_len: int = 512
    lowercase: bool = True
    min_freq: int = 1


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Word-level split with punctuation broken off; deterministic.

    ``_TOKEN_RE`` defines the tokens. When every non-space character is a
    word character, its matches are exactly the whitespace-separated
    chunks: ``re`` takes ``\\w`` to be ``str.isalnum()`` or ``_`` and
    ``\\s`` to be ``str.isspace()``, which is what ``str.split()`` splits
    on. That case skips the regex.
    """
    if lowercase:
        text = text.lower()
    chunks = text.split()
    if "".join(chunks).replace("_", "a").isalnum():
        return chunks
    return _TOKEN_RE.findall(text)


class Vocab:
    """word<->id bijection plus per-word document frequency.

    Ids are contiguous from 0; the three special tokens occupy ids 0..2
    and never collide with corpus words.
    """

    def __init__(self, words: list[str], doc_freq: np.ndarray):
        if len(words) != len(doc_freq):
            raise ValueError(f"{len(words)} words but {len(doc_freq)} doc_freq entries")
        self.id_to_word = list(words)
        self.word_to_id = {w: i for i, w in enumerate(words)}
        if len(self.word_to_id) != len(words):
            raise ValueError("duplicate words in vocabulary")
        self.doc_freq = np.asarray(doc_freq, dtype=np.int64)

    @classmethod
    def build(cls, doc_tokens: list[list[str]], min_freq: int = 1) -> "Vocab":
        """Frozen vocabulary from training documents only."""
        presence = Counter(chain.from_iterable(map(set, doc_tokens)))
        kept = [(w, c) for w, c in presence.items() if c >= min_freq]
        kept.sort(key=lambda wc: (-wc[1], wc[0]))
        words = list(SPECIAL_TOKENS) + [w for w, _ in kept]
        freqs = [0, 0, 0] + [c for _, c in kept]
        return cls(words, np.asarray(freqs, dtype=np.int64))

    @property
    def pad_id(self) -> int:
        return self.word_to_id[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self.word_to_id[UNK_TOKEN]

    @property
    def mask_id(self) -> int:
        return self.word_to_id[MASK_TOKEN]

    def __len__(self) -> int:
        return len(self.id_to_word)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, word in enumerate(self.id_to_word):
                fh.write(f"{word}\t{i}\t{int(self.doc_freq[i])}\n")

    @classmethod
    def read(cls, path: str | Path) -> "Vocab":
        words: list[str] = []
        freqs: list[int] = []
        for lineno, raw in enumerate(read_lines(path), 1):
            parts = raw.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"{path}:{lineno}: expected word<TAB>id<TAB>doc_freq")
            word, idx, freq = parts
            where = f"{path}:{lineno}"
            if parse_field(idx, int, "id", where) != len(words):
                raise CorpusError(f"{where}: ids must be contiguous from 0")
            words.append(word)
            freqs.append(parse_field(freq, int, "doc_freq", where))
        return cls(words, np.asarray(freqs, dtype=np.int64))


@dataclass
class Document:
    tokens: np.ndarray  # int64 token ids, non-empty, len <= max_len
    label: int


@dataclass
class Corpus:
    documents: list[Document]
    vocab: Vocab
    labels: list[str]
    split: str  # "train" or "test"
    config: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __len__(self) -> int:
        return len(self.documents)

    @property
    def n_labels(self) -> int:
        return len(self.labels)


def load_tsv(
    path: str | Path,
    config: TokenizerConfig | None = None,
    vocab: Vocab | None = None,
    labels: list[str] | None = None,
) -> Corpus:
    """Load one split. Without ``vocab`` this is the training split and the
    vocabulary/label set are built from it; with ``vocab`` (and ``labels``)
    the split is treated as test data against the frozen mappings.
    """
    config = config or TokenizerConfig()
    is_train = vocab is None
    if not is_train and labels is None:
        raise ValueError("test split needs the training label set")

    rows: list[tuple[str, list[str]]] = []
    for lineno, raw in enumerate(read_lines(path), 1):
        if "\t" not in raw:
            raise CorpusError(f"{path}:{lineno}: expected label<TAB>text")
        label, text = raw.split("\t", 1)
        label = label.strip()
        if not label:
            raise CorpusError(f"{path}:{lineno}: empty label")
        tokens = tokenize(text, lowercase=config.lowercase)
        if not tokens:
            raise CorpusError(f"{path}:{lineno}: empty text")
        rows.append((label, tokens[: config.max_len]))
    if not rows:
        raise CorpusError(f"{path}: no documents")

    if is_train:
        labels = sorted({label for label, _ in rows})
        vocab = Vocab.build([toks for _, toks in rows], min_freq=config.min_freq)
    label_to_id = {name: i for i, name in enumerate(labels)}

    lookup, unk = vocab.word_to_id.get, vocab.unk_id
    documents = []
    for lineno, (label, tokens) in enumerate(rows, 1):
        if label not in label_to_id:
            raise CorpusError(f"{path}:{lineno}: unknown label {label!r}")
        ids = np.fromiter(map(lookup, tokens, repeat(unk)), np.int64, count=len(tokens))
        documents.append(Document(tokens=ids, label=label_to_id[label]))

    return Corpus(
        documents=documents,
        vocab=vocab,
        labels=list(labels),
        split="train" if is_train else "test",
        config=config,
    )


@dataclass
class CorpusStats:
    """Document-level presence counts from the training split.

    ``joint[w, y]`` counts documents that contain word id ``w`` and carry
    label ``y``; one row per vocabulary id. Summing a row over labels
    recovers the word's document frequency (documents are single-label).
    """

    n_docs: int
    label_counts: np.ndarray  # (n_labels,) documents per label
    joint: np.ndarray  # (len(vocab), n_labels) int64 presence counts


def collect_stats(corpus: Corpus) -> CorpusStats:
    """Presence statistics; only valid on the training split."""
    if corpus.split != "train":
        raise ValueError(f"statistics must come from the training split, got {corpus.split!r}")
    if not corpus.documents:
        raise CorpusError("empty training split")

    docs = corpus.documents
    n_words, n_labels = len(corpus.vocab), corpus.n_labels
    labels = np.fromiter((doc.label for doc in docs), np.int64, count=len(docs))
    doc_index = np.repeat(np.arange(len(docs), dtype=np.int64), [len(doc.tokens) for doc in docs])
    # one key per distinct (document, word) pair: a word counts once per document
    present = np.unique(doc_index * n_words + np.concatenate([doc.tokens for doc in docs]))
    cells = present % n_words * n_labels + labels[present // n_words]
    joint = np.bincount(cells, minlength=n_words * n_labels).reshape(n_words, n_labels)
    label_counts = np.bincount(labels, minlength=n_labels)
    return CorpusStats(n_docs=len(docs), label_counts=label_counts, joint=joint)
