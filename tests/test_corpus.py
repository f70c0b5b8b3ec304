import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthformer import synth
from depthformer.corpus import (
    _TOKEN_RE,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    CorpusError,
    TokenizerConfig,
    Vocab,
    collect_stats,
    load_tsv,
    read_lines,
    tokenize,
    tokenize_split,
)


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestTokenize:
    def test_lowercase_and_punct_split(self):
        assert tokenize("Perfect!") == ["perfect", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_plain_words(self):
        assert tokenize("one of the most anticipated") == ["one", "of", "the", "most", "anticipated"]

    def test_no_lowercase_flag(self):
        assert tokenize("Ab", lowercase=False) == ["Ab"]


# characters on which the regex and a whitespace split could part: Unicode
# spaces, '_', digits of several scripts, punctuation, combining marks, a
# capital whose lowercase form is two code points, and Σ, whose lowercase
# depends on its neighbours; "\n" parts the texts of a split
TRICKY_CHARS = [*"aZq9_ \t\n.,!?'-", "\u00a0", "\u2003", "\x1c", "\u0301", "\u0307", "İ", "É", "ß", "٣", "²", "中", "Σ"]


@settings(max_examples=300, deadline=None)
@given(
    st.text(alphabet=st.one_of(st.sampled_from(TRICKY_CHARS), st.characters()), max_size=40),
    st.booleans(),
)
def test_tokenize_matches_the_token_regex(text, lowercase):
    assert tokenize(text, lowercase=lowercase) == _TOKEN_RE.findall(text.lower() if lowercase else text)
    texts = text.split("\n")
    assert tokenize_split(texts, lowercase) == [_TOKEN_RE.findall(t.lower() if lowercase else t) for t in texts]


def test_word_and_space_classes_agree_with_str_methods_on_every_code_point():
    # tokenize returns text.split() when every non-space character is
    # alphanumeric or '_'. That equals the regex's matches because re's \w
    # is isalnum() or '_', and its \s is isspace(), which split() splits on.
    every = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\w", every) == [c for c in every if c.isalnum() or c == "_"]
    assert re.findall(r"\s", every) == [c for c in every if c.isspace()]


def reference_split(path, config, words=None, labels=None):
    """The per-token loader the vectorized one replaced: regex tokens, a
    presence dict per word, one vocabulary lookup per token and one
    ``np.unique`` per document. Returns (words, doc_freq, labels, ids,
    doc_labels, joint); ``joint`` only for a training split."""
    rows = []
    for raw in path.read_text(encoding="utf-8").removesuffix("\n").split("\n"):
        label, text = raw.removesuffix("\r").split("\t", 1)
        tokens = _TOKEN_RE.findall(text.lower() if config.lowercase else text)
        rows.append((label.strip(), tokens[: config.max_len]))
    is_train = words is None
    doc_freq = None
    if is_train:
        presence: dict[str, int] = {}
        for _, tokens in rows:
            for w in set(tokens):
                presence[w] = presence.get(w, 0) + 1
        kept = sorted(((w, c) for w, c in presence.items() if c >= config.min_freq), key=lambda wc: (-wc[1], wc[0]))
        words = [*SPECIAL_TOKENS, *(w for w, _ in kept)]
        doc_freq = [0, 0, 0, *(c for _, c in kept)]
        labels = sorted({label for label, _ in rows})
    word_to_id = {w: i for i, w in enumerate(words)}
    ids = [np.asarray([word_to_id.get(w, word_to_id[UNK_TOKEN]) for w in tokens], dtype=np.int64) for _, tokens in rows]
    doc_labels = [labels.index(label) for label, _ in rows]
    joint = None
    if is_train:
        joint = np.zeros((len(words), len(labels)), dtype=np.int64)
        for tokens, y in zip(ids, doc_labels):
            joint[np.unique(tokens), y] += 1
    return words, doc_freq, labels, ids, doc_labels, joint


def assert_matches_reference(train_path, test_path, config):
    train = load_tsv(train_path, config)
    test = load_tsv(test_path, config, vocab=train.vocab, labels=train.labels)
    words, doc_freq, labels, ids, doc_labels, joint = reference_split(train_path, config)
    assert train.vocab.id_to_word == words
    assert train.vocab.doc_freq.tolist() == doc_freq
    assert train.labels == labels
    for corpus, (ref_ids, ref_labels) in (
        (train, (ids, doc_labels)),
        (test, reference_split(test_path, config, words, labels)[3:5]),
    ):
        assert [d.label for d in corpus.documents] == ref_labels
        assert len(corpus.documents) == len(ref_ids)
        for doc, ref in zip(corpus.documents, ref_ids):
            assert doc.tokens.dtype == np.int64
            assert np.array_equal(doc.tokens, ref)
    stats = collect_stats(train)
    assert np.array_equal(stats.joint, joint)
    assert stats.label_counts.tolist() == np.bincount(doc_labels, minlength=len(labels)).tolist()
    assert stats.n_docs == len(ids)
    return train, test


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("doc_len", [12, 64, 128])
    @pytest.mark.parametrize(
        "config",
        [TokenizerConfig(), TokenizerConfig(max_len=20, min_freq=3)],
        ids=["default", "clipped-min-freq"],
    )
    def test_synthetic_corpora(self, tmp_path, doc_len, config):
        train_path, test_path = synth.make_dataset(tmp_path, n_train=60, n_test=20, seed=doc_len, doc_len=doc_len)
        assert_matches_reference(train_path, test_path, config)

    @pytest.mark.parametrize(
        "config",
        [
            TokenizerConfig(),
            TokenizerConfig(lowercase=False),
            TokenizerConfig(max_len=3),
            TokenizerConfig(min_freq=2),
            TokenizerConfig(max_len=4, lowercase=False, min_freq=2),
        ],
        ids=["default", "no-lowercase", "max-len-3", "min-freq-2", "all"],
    )
    def test_adversarial_lines(self, tmp_path, config):
        train_lines = [
            "pos\tGood good GOOD movie!!",
            "neg\tBad_plot, bad\u00a0acting\u2003and dull",
            "pos \tİstanbul café naïve cafe\u0301 ok",
            "neg\t٣ 42 x² snake_case under_ 中文 ...",
            "pos\tgood--movie 'quoted' (paren) a_b_c",
            "neg\t  leading and trailing spaces  ",
            "pos\tGood movie",
            # Σ opening and closing texts: a final sigma must not see the
            # neighbouring text, and "\r" before "\n" ends a line
            "neg\tΣΟΦΟΣ ΑΣ\r",
            "pos\tΣΑ plot\x0bbad\x0cdull\x1cx\x1dy\x1ez\x1fwΣ\r",
        ]
        test_splits = [
            # ASCII, one punctuated text: each text takes its own check
            ["neg\tunseen words only", "pos\tGOOD Movie zzz_oov!", "neg\tbad\x0bplot\r"],
            # ASCII word characters and whitespace only: split at whitespace
            ["pos\tGOOD\x0bmovie\x0cbad\x1cplot\x1d_\x1ex\x1fy\r", "neg\tunseen words"],
            # not ASCII
            ["neg\tİ bad\u00a0plot", "pos\tΣ goodΣ ΑΣ\x1fmovie"],
        ]
        train_path = write(tmp_path, "train.tsv", train_lines)
        results = [
            assert_matches_reference(train_path, write(tmp_path, f"test{i}.tsv", lines), config)
            for i, lines in enumerate(test_splits)
        ]
        train, test = results[0]
        assert test.documents[0].tokens.tolist() == [train.vocab.unk_id] * 3


class TestLoadTsv:
    def test_basic_line(self, tmp_path):
        corpus = load_tsv(write(tmp_path, "t.tsv", ["pos\tgreat movie", "neg\tbad plot"]))
        doc = corpus.documents[0]
        vocab = corpus.vocab
        assert doc.label == corpus.labels.index("pos")
        assert [vocab.id_to_word[i] for i in doc.tokens] == ["great", "movie"]

    def test_empty_text_rejected_with_line_number(self, tmp_path):
        path = write(tmp_path, "t.tsv", ["pos\tgood", "neg\t"])
        with pytest.raises(CorpusError, match=":2:"):
            load_tsv(path)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["pos\tgood", "neg\t \x0b", "\tbad plot"], ":2: empty text"),
            (["pos\tgood", " \tbad plot", "neg\t"], ":2: empty label"),
            (["pos\tgood", "neg\t", "no tab"], ":2: empty text"),
            (["pos\tgood", "no tab", "neg\t"], ":2: expected label<TAB>text"),
        ],
        ids=["text-then-label", "label-then-text", "text-then-tab", "tab-then-text"],
    )
    def test_earliest_faulty_line_is_reported(self, tmp_path, lines, message):
        with pytest.raises(CorpusError, match=re.escape(message)):
            load_tsv(write(tmp_path, "t.tsv", lines))

    def test_missing_tab_rejected(self, tmp_path):
        path = write(tmp_path, "t.tsv", ["pos good"])
        with pytest.raises(CorpusError, match=":1:"):
            load_tsv(path)

    def test_long_document_clipped(self, tmp_path):
        text = " ".join(f"w{i}" for i in range(600))
        corpus = load_tsv(write(tmp_path, "t.tsv", [f"pos\t{text}", "neg\tshort text"]))
        assert len(corpus.documents[0].tokens) == 512
        words = [corpus.vocab.id_to_word[i] for i in corpus.documents[0].tokens]
        assert words[0] == "w0" and words[-1] == "w511"

    def test_unknown_label_in_test_split(self, tmp_path):
        train = load_tsv(write(tmp_path, "train.tsv", ["pos\ta b", "neg\tc d"]))
        bad = write(tmp_path, "test.tsv", ["meh\ta b"])
        with pytest.raises(CorpusError, match="unknown label"):
            load_tsv(bad, vocab=train.vocab, labels=train.labels)

    def test_test_split_maps_oov_to_unk_without_growing_vocab(self, tmp_path):
        train = load_tsv(write(tmp_path, "train.tsv", ["pos\ta b", "neg\tc d"]))
        size_before = len(train.vocab)
        test = load_tsv(
            write(tmp_path, "test.tsv", ["pos\ta zzz"]), vocab=train.vocab, labels=train.labels
        )
        assert len(train.vocab) == size_before
        assert test.documents[0].tokens[1] == train.vocab.unk_id

    @pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029", "\x1c", "\x1d", "\x1e"])
    def test_lines_split_at_newline_only(self, tmp_path, separator):
        # splitlines() broke this two-line file into three lines, the middle
        # one "neg<TAB>bad plot"; the separator is whitespace inside the text
        path = tmp_path / "t.tsv"
        path.write_text(f"pos\tgood{separator}neg\tbad plot\nneg\tdull\n", encoding="utf-8")
        corpus = load_tsv(path)
        assert len(corpus.documents) == 2
        assert [corpus.labels[d.label] for d in corpus.documents] == ["pos", "neg"]
        words = [corpus.vocab.id_to_word[i] for i in corpus.documents[0].tokens]
        assert words == ["good", "neg", "bad", "plot"]

    def test_crlf_file_loads_as_lf(self, tmp_path):
        lines = ["pos\tgreat movie", "neg\tbad plot", "pos\tgreat fun"]
        lf = load_tsv(write(tmp_path, "lf.tsv", lines))
        crlf_path = tmp_path / "crlf.tsv"
        crlf_path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        crlf = load_tsv(crlf_path)
        assert crlf.labels == lf.labels and crlf.vocab.id_to_word == lf.vocab.id_to_word
        assert [d.tokens.tolist() for d in crlf.documents] == [d.tokens.tolist() for d in lf.documents]

    def test_lone_carriage_return_ends_a_line_as_in_text_mode(self, tmp_path):
        path = tmp_path / "cr.tsv"
        path.write_bytes(b"pos\tgreat movie\rneg\tbad plot\r\npos\tgreat fun\n")
        assert read_lines(path) == ["pos\tgreat movie", "neg\tbad plot", "pos\tgreat fun"]
        with open(path, encoding="utf-8") as fh:
            assert read_lines(path) == fh.read().splitlines()

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
    def test_bytes_not_utf8_name_path_and_line(self, tmp_path, ending):
        path = tmp_path / "bad.tsv"
        path.write_bytes(ending.join([b"pos\tgood", b"neg\tbad", b"pos\tgo\xc3od"]) + ending)
        with pytest.raises(CorpusError, match=r"bad\.tsv:3: not UTF-8 text \(byte 0xc3\)"):
            load_tsv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "e.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="no documents"):
            load_tsv(path)


class TestVocab:
    def test_specials_present_once_with_contiguous_ids(self, tmp_path):
        corpus = load_tsv(write(tmp_path, "t.tsv", ["pos\ta b a", "neg\tb c"]))
        vocab = corpus.vocab
        assert vocab.pad_id == 0 and vocab.unk_id == 1 and vocab.mask_id == 2
        assert sorted(vocab.word_to_id.values()) == list(range(len(vocab)))

    def test_doc_freq_counts_documents_not_tokens(self, tmp_path):
        corpus = load_tsv(write(tmp_path, "t.tsv", ["pos\ta a a b", "neg\ta c"]))
        vocab = corpus.vocab
        assert vocab.doc_freq[vocab.word_to_id["a"]] == 2
        assert vocab.doc_freq[vocab.word_to_id["b"]] == 1

    def test_min_freq_drops_words(self, tmp_path):
        path = write(tmp_path, "t.tsv", ["pos\ta b", "neg\ta c"])
        corpus = load_tsv(path, TokenizerConfig(min_freq=2))
        assert "a" in corpus.vocab.word_to_id
        assert "b" not in corpus.vocab.word_to_id
        # dropped train words fall back to <UNK>
        assert corpus.documents[0].tokens[1] == corpus.vocab.unk_id

    @pytest.mark.parametrize(
        "line, message",
        [
            pytest.param("<UNK>\tx\t0", "id must be an integer, got 'x'", id="id"),
            pytest.param("<UNK>\t1\tmany", "doc_freq must be an integer, got 'many'", id="doc-freq"),
        ],
    )
    def test_non_numeric_field_names_file_and_line(self, tmp_path, line, message):
        path = write(tmp_path, "vocab.tsv", ["<PAD>\t0\t0", line, "<MASK>\t2\t0"])
        with pytest.raises(CorpusError, match=rf"vocab\.tsv:2: {message}"):
            Vocab.read(path)

    def test_words_must_start_with_the_special_tokens(self):
        # MLM masking and the MI table take ids below len(SPECIAL_TOKENS) to be them
        with pytest.raises(ValueError, match="a vocabulary starts with <PAD>, <UNK>, <MASK>"):
            Vocab(["<UNK>", "<PAD>", "<MASK>", "a"], np.zeros(4, dtype=np.int64))

    def test_roundtrip(self, tmp_path, synth_train):
        path = tmp_path / "vocab.tsv"
        synth_train.vocab.write(path)
        loaded = Vocab.read(path)
        assert loaded.id_to_word == synth_train.vocab.id_to_word
        assert np.array_equal(loaded.doc_freq, synth_train.vocab.doc_freq)


class TestCollectStats:
    def four_doc_corpus(self, tmp_path):
        return load_tsv(
            write(
                tmp_path,
                "t.tsv",
                ["pos\tgood fine", "pos\tgood dull", "neg\tfine dull", "neg\tdull dull"],
            )
        )

    def test_hand_enumerated_counts(self, tmp_path):
        corpus = self.four_doc_corpus(tmp_path)
        stats = collect_stats(corpus)
        wid = corpus.vocab.word_to_id["good"]
        pos = corpus.labels.index("pos")
        assert stats.joint[wid].sum() == 2
        assert stats.joint[wid, pos] == 2
        assert stats.joint[wid, 1 - pos] == 0
        wid_fine = corpus.vocab.word_to_id["fine"]
        assert stats.joint[wid_fine].sum() == 2
        assert stats.joint[wid_fine, pos] == 1

    def test_word_in_every_document(self, tmp_path):
        corpus = load_tsv(write(tmp_path, "t.tsv", ["pos\tx a", "neg\tx b", "pos\tx c"]))
        stats = collect_stats(corpus)
        assert stats.joint[corpus.vocab.word_to_id["x"]].sum() == stats.n_docs

    def test_absent_word(self, tmp_path):
        # one row per vocabulary id: an id in no document, such as <MASK>,
        # has an all-zero row
        corpus = self.four_doc_corpus(tmp_path)
        stats = collect_stats(corpus)
        assert stats.joint.shape == (len(corpus.vocab), corpus.n_labels)
        assert stats.joint[corpus.vocab.mask_id].sum() == 0

    def test_label_counts_partition_docs(self, synth_train):
        stats = collect_stats(synth_train)
        assert stats.label_counts.sum() == stats.n_docs

    def test_joint_bounded_by_marginals(self, synth_train):
        stats = collect_stats(synth_train)
        for wid, joint in enumerate(stats.joint):
            df = synth_train.vocab.doc_freq[wid]
            assert joint.sum() == df
            assert np.all(joint <= stats.label_counts)

    def test_rebuild_bit_identical(self, synth_train):
        a = collect_stats(synth_train)
        b = collect_stats(synth_train)
        assert a.n_docs == b.n_docs
        assert np.array_equal(a.label_counts, b.label_counts)
        assert np.array_equal(a.joint, b.joint)

    def test_rejects_test_split(self, synth_test):
        with pytest.raises(ValueError, match="training split"):
            collect_stats(synth_test)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.lists(st.sampled_from("uvwxyz"), min_size=1, max_size=6)), min_size=1, max_size=30))
def test_joint_counts_never_exceed_marginals(rows):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.tsv"
        path.write_text(
            "\n".join(f"{label}\t{' '.join(words)}" for label, words in rows) + "\n",
            encoding="utf-8",
        )
        corpus = load_tsv(path)
        stats = collect_stats(corpus)
        for wid, joint in enumerate(stats.joint):
            assert joint.sum() <= stats.n_docs
            assert np.all(joint <= stats.label_counts)
            assert joint.sum() == corpus.vocab.doc_freq[wid]
