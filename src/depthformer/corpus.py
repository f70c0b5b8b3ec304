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
from itertools import accumulate, chain, repeat
from pathlib import Path

import numpy as np

PAD_TOKEN = "<PAD>"
UNK_TOKEN = "<UNK>"
MASK_TOKEN = "<MASK>"
SPECIAL_TOKENS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
# the ASCII characters that are word characters or str.split() whitespace
_ASCII_WORD_OR_SPACE = bytes(c for c in range(128) if chr(c).isalnum() or chr(c).isspace() or chr(c) == "_")


class CorpusError(ValueError):
    """Malformed input data (bad line, unknown label, empty split)."""


def read_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file, ended as text-mode reading ends them:
    at "\\n", "\\r\\n" or a lone "\\r", each without its ending; a final
    line ending ends the last line, not a new one.

    ``str.splitlines`` would also split at U+0085, U+2028, U+2029 and
    \\x1c-\\x1e, which a document's text may hold. Bytes that are not
    UTF-8 raise a ``CorpusError`` naming the path and line.
    """
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise CorpusError(f"{path}:{lineno}: not UTF-8 text (byte 0x{data[exc.start]:02x})") from None
    if lines[-1] == "":
        lines.pop()
    return lines


def parse_field(text: str, kind: type, name: str, where: str):
    """``kind(text)`` for a field of an input file; a malformed one raises
    a ``CorpusError`` naming ``where`` (``path:line``) and the field."""
    try:
        return kind(text)
    except ValueError:
        raise CorpusError(f"{where}: {name} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from None


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array in ascending order, as
    ``np.unique`` gives them, found by sorting and comparing neighbours.

    On numpy 2.4 ``np.unique`` ran 8-9x slower than this on the same
    int64 keys (19.7 against 2.3 ms on 166 k presence keys).
    """
    values = np.sort(values)
    first = np.empty(values.shape, dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


@dataclass(frozen=True)
class TokenizerConfig:
    """Corpus-level settings, checked when made. ``max_len`` clips long
    documents; words in fewer than ``min_freq`` training documents stay
    out of the vocabulary."""

    max_len: int = 512
    lowercase: bool = True
    min_freq: int = 1

    def __post_init__(self) -> None:
        for name in ("max_len", "min_freq"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


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


def tokenize_split(texts: list[str], lowercase: bool = True) -> list[list[str]]:
    """``[tokenize(text, lowercase) for text in texts]``, with the
    lowercasing and the exactness check done once for the whole split
    when the split is ASCII and holds only word characters and whitespace.

    That check runs on the ``"\\n"``-joined texts before lowercasing, which
    maps ASCII letters to ASCII letters and leaves every other character
    as it is. When it holds, the joined string is lowercased and split
    at ``"\\n"``, and every text is its whitespace-separated chunks. When it
    fails, each text goes through ``tokenize`` on its own.
    """
    text = "\n".join(texts)
    if not (text.isascii() and not text.encode("ascii").translate(None, _ASCII_WORD_OR_SPACE)):
        return [tokenize(t, lowercase) for t in texts]
    if lowercase:
        text = text.lower()
    return [part.split() for part in text.split("\n")] if texts else []


class Vocab:
    """word<->id bijection plus per-word document frequency.

    Ids are contiguous from 0 and start with ``SPECIAL_TOKENS`` in order,
    which MLM masking and the MI table rely on; no corpus word is one.
    """

    def __init__(self, words: list[str], doc_freq: np.ndarray):
        if len(words) != len(doc_freq):
            raise ValueError(f"{len(words)} words but {len(doc_freq)} doc_freq entries")
        if tuple(words[: len(SPECIAL_TOKENS)]) != SPECIAL_TOKENS:
            raise ValueError(f"a vocabulary starts with {', '.join(SPECIAL_TOKENS)}, got {words[:len(SPECIAL_TOKENS)]}")
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
        freqs = [0] * len(SPECIAL_TOKENS) + [c for _, c in kept]
        return cls(words, np.asarray(freqs, dtype=np.int64))

    # fixed by SPECIAL_TOKENS, the words every vocabulary starts with
    pad_id, unk_id, mask_id = map(SPECIAL_TOKENS.index, (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN))

    def __len__(self) -> int:
        return len(self.id_to_word)

    def write(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, word in enumerate(self.id_to_word):
                fh.write(f"{word}\t{i}\t{int(self.doc_freq[i])}\n")

    @classmethod
    def read(cls, path: str | Path) -> "Vocab":
        lines: dict[str, int] = {}  # word -> its line, in id order
        freqs: list[int] = []
        for lineno, raw in enumerate(read_lines(path), 1):
            parts = raw.split("\t")
            if len(parts) != 3:
                raise CorpusError(f"{path}:{lineno}: expected word<TAB>id<TAB>doc_freq")
            word, idx, freq = parts
            where = f"{path}:{lineno}"
            if parse_field(idx, int, "id", where) != len(lines):
                raise CorpusError(f"{where}: ids must be contiguous from 0")
            if lineno <= len(SPECIAL_TOKENS) and word != SPECIAL_TOKENS[lineno - 1]:
                raise CorpusError(f"{where}: expected {SPECIAL_TOKENS[lineno - 1]!r}, got {word!r}")
            if lines.setdefault(word, lineno) != lineno:
                raise CorpusError(f"{where}: duplicate word {word!r}, first on line {lines[word]}")
            freqs.append(parse_field(freq, int, "doc_freq", where))
        if len(lines) < len(SPECIAL_TOKENS):
            raise CorpusError(f"{path}:{len(lines) + 1}: expected {SPECIAL_TOKENS[len(lines)]!r}, got end of file")
        return cls(list(lines), np.asarray(freqs, dtype=np.int64))


@dataclass
class Document:
    tokens: np.ndarray  # int64 token ids, non-empty, len <= max_len; a view of the split's ids
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

    row_labels: list[str] = []
    texts: list[str] = []
    fault = None  # the first line with a bad label field; later lines are not read
    for lineno, raw in enumerate(read_lines(path), 1):
        label, tab, text = raw.partition("\t")
        label = label.strip()
        if not tab or not label:
            fault = f"{path}:{lineno}: {'empty label' if tab else 'expected label<TAB>text'}"
            break
        row_labels.append(label)
        texts.append(text)
    docs = tokenize_split(texts, lowercase=config.lowercase)
    if not all(docs):  # an empty text before the faulty line is the earlier fault
        raise CorpusError(f"{path}:{list(map(bool, docs)).index(False) + 1}: empty text")
    if fault:
        raise CorpusError(fault)
    if not docs:
        raise CorpusError(f"{path}: no documents")
    max_len = config.max_len  # a slice copies, so only longer documents are cut
    docs = [tokens if len(tokens) <= max_len else tokens[:max_len] for tokens in docs]

    if is_train:
        labels = sorted(set(row_labels))
        vocab = Vocab.build(docs, min_freq=config.min_freq)
    label_to_id = {name: i for i, name in enumerate(labels)}
    label_ids = list(map(label_to_id.get, row_labels))
    if None in label_ids:
        lineno = label_ids.index(None) + 1
        raise CorpusError(f"{path}:{lineno}: unknown label {row_labels[lineno - 1]!r}")

    # the whole split is mapped to ids at once; each document's tokens are a
    # view of that array
    lengths = list(map(len, docs))
    words = chain.from_iterable(docs)
    ids = np.fromiter(map(vocab.word_to_id.get, words, repeat(vocab.unk_id)), np.int64, count=sum(lengths))
    documents = [
        Document(tokens=ids[end - n : end], label=y) for n, end, y in zip(lengths, accumulate(lengths), label_ids)
    ]

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
    present = sorted_unique(doc_index * n_words + np.concatenate([doc.tokens for doc in docs]))
    cells = present % n_words * n_labels + labels[present // n_words]
    joint = np.bincount(cells, minlength=n_words * n_labels).reshape(n_words, n_labels)
    label_counts = np.bincount(labels, minlength=n_labels)
    return CorpusStats(n_docs=len(docs), label_counts=label_counts, joint=joint)
