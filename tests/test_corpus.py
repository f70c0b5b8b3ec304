import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthformer.corpus import (
    CorpusError,
    TokenizerConfig,
    Vocab,
    collect_stats,
    load_tsv,
    read_kv_config,
    tokenize,
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


class TestKvConfig:
    def test_parse_and_apply(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_len = 64\nlowercase = false\n# comment\nmin_freq=2\n", encoding="utf-8")
        cfg = TokenizerConfig.from_kv(read_kv_config(path))
        assert cfg == TokenizerConfig(max_len=64, lowercase=False, min_freq=2)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("max_len 64\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            read_kv_config(path)


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
