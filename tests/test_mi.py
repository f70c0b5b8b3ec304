import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthformer import mi, synth
from depthformer.corpus import collect_stats, load_tsv

from oracles import oracle_mi


def corpus_from_lines(tmp_path, lines, name="t.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return load_tsv(path)


def table_mi(corpus, word, smoothing=0.1):
    """The MI ``build_mi_table`` assigns to one word of ``corpus``."""
    table = mi.build_mi_table(collect_stats(corpus), corpus.vocab, 12, smoothing=smoothing)
    return float(table.mi[list(table.word_ids).index(corpus.vocab.word_to_id[word])])


class TestMiScore:
    def test_matches_oracle_on_four_doc_corpus(self, tmp_path):
        corpus = corpus_from_lines(
            tmp_path, ["pos\tgood a", "pos\tgood b", "neg\ta b", "neg\tb a"]
        )
        docs = [({corpus.vocab.id_to_word[i] for i in d.tokens}, d.label) for d in corpus.documents]
        for word in ("good", "a", "b"):
            expected = oracle_mi(docs, word, range(corpus.n_labels), 0.1)
            assert table_mi(corpus, word) == pytest.approx(expected, abs=1e-12)

    def test_label_aligned_word_approaches_two_ln_two(self, tmp_path):
        # word present in exactly the positive docs of a balanced 4-doc
        # corpus: each label's table tends to one bit as smoothing -> 0
        corpus = corpus_from_lines(
            tmp_path, ["pos\tgood a", "pos\tgood b", "neg\ta b", "neg\tb a"]
        )
        assert table_mi(corpus, "good", 1e-9) == pytest.approx(2 * math.log(2), abs=1e-6)

    def test_balanced_word_is_near_zero(self, tmp_path):
        corpus = corpus_from_lines(
            tmp_path, ["pos\tx a", "pos\tb c", "neg\tx b", "neg\ta c"]
        )
        assert table_mi(corpus, "x") < 1e-2

    def test_smoothing_must_be_positive(self, synth_train):
        stats = collect_stats(synth_train)
        with pytest.raises(ValueError, match="smoothing"):
            mi.build_mi_table(stats, synth_train.vocab, 12, smoothing=0.0)

    def test_randomized_oracle_agreement(self, tmp_path):
        from oracles import random_corpus_lines

        rng = np.random.default_rng(42)
        for trial in range(10):
            corpus = corpus_from_lines(
                tmp_path, random_corpus_lines(rng, max_docs=120, max_words=25), f"r{trial}.tsv"
            )
            table = mi.build_mi_table(collect_stats(corpus), corpus.vocab, 12)
            docs = [
                ({corpus.vocab.id_to_word[i] for i in d.tokens}, d.label)
                for d in corpus.documents
            ]
            for wid, got in zip(table.word_ids, table.mi):
                word = corpus.vocab.id_to_word[int(wid)]
                expected = oracle_mi(docs, word, range(corpus.n_labels), 0.1)
                assert got == pytest.approx(expected, abs=1e-12)


class TestLogScale:
    def test_identity_points(self, synth_train):
        # every word with a nonzero MI is scored by exactly -ln(mi)
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        scored = table.mi > mi.ZERO_MI_TOL
        assert scored.sum() > 10
        assert np.array_equal(table.mi_log[scored], -np.log(table.mi[scored]))

    def test_direct_value(self, tmp_path):
        corpus = corpus_from_lines(
            tmp_path, ["pos\tgood a", "pos\tgood b", "neg\ta b", "neg\tb a"]
        )
        docs = [({corpus.vocab.id_to_word[i] for i in d.tokens}, d.label) for d in corpus.documents]
        table = mi.build_mi_table(collect_stats(corpus), corpus.vocab, 12)
        i = list(table.word_ids).index(corpus.vocab.word_to_id["good"])
        expected = -math.log(oracle_mi(docs, "good", range(corpus.n_labels), 0.1))
        assert table.mi_log[i] == pytest.approx(expected, abs=1e-12)


class TestAssignBins:
    def test_four_even_values(self):
        depths, lo, hi = mi.assign_bins(np.array([0.0, 1.0, 2.0, 3.0]), 4)
        assert depths.tolist() == [1, 2, 3, 4]
        assert (lo, hi) == (0.0, 3.0)

    def test_degenerate_range(self):
        depths, _, _ = mi.assign_bins(np.full(5, 2.5), 12)
        assert depths.tolist() == [1] * 5

    def test_maximum_maps_to_top_bin(self):
        depths, _, _ = mi.assign_bins(np.array([-1.0, 0.3, 7.7]), 12)
        assert depths[2] == 12
        assert depths[0] == 1

    def test_negative_values_need_no_special_case(self):
        # -4 sits exactly on the bin edge; edges belong to the upper bin
        depths, _, _ = mi.assign_bins(np.array([-5.0, -4.5, -4.0, -3.0]), 2)
        assert depths.tolist() == [1, 1, 2, 2]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-400, 400), min_size=2, max_size=40),
        st.integers(1, 16),
        st.integers(-640, 640),
    )
    def test_shift_invariance(self, eighths, n_bins, shift_eighths):
        # dyadic grid keeps the shifted subtraction exact; with arbitrary
        # floats, absorption (1.0 + 1e-38 == 1.0) can merge distinct scores
        values = np.asarray(eighths, dtype=np.float64) / 8.0
        base, _, _ = mi.assign_bins(values, n_bins)
        shifted, _, _ = mi.assign_bins(values + shift_eighths / 8.0, n_bins)
        assert np.array_equal(base, shifted)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=40), st.integers(1, 16))
    def test_depths_monotone_in_score(self, values, n_bins):
        values = np.asarray(values)
        try:
            depths, _, _ = mi.assign_bins(values, n_bins)
        except ValueError as exc:
            assert str(exc).startswith("cannot split scores from lo=")
            return
        order = np.argsort(values)
        assert np.all(np.diff(depths[order]) >= 0)

    @pytest.mark.parametrize(
        "values, lo, hi",
        [
            # the bin width underflows to 0, then overflows to inf: both binned
            # everything at depth 1, with RuntimeWarnings
            pytest.param([0.0, 5e-324], "0.0", "5e-324", id="width-underflows"),
            pytest.param([-1e308, 1e308], "-1e+308", "1e+308", id="width-overflows"),
        ],
    )
    def test_range_it_cannot_split_is_an_error(self, values, lo, hi):
        message = f"cannot split scores from lo={lo} to hi={hi} into n_bins=4 bins"
        with pytest.raises(ValueError, match=re.escape(message)):
            mi.assign_bins(np.array(values), 4)


class TestMiTable:
    def test_depth_monotone_nonincreasing_in_mi(self, synth_train):
        stats = collect_stats(synth_train)
        table = mi.build_mi_table(stats, synth_train.vocab, 12)
        order = np.argsort(table.mi)
        assert np.all(np.diff(table.depth[order]) <= 0)

    def test_deterministic_rebuild(self, synth_train):
        stats = collect_stats(synth_train)
        a = mi.build_mi_table(stats, synth_train.vocab, 12)
        b = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        assert np.array_equal(a.mi, b.mi)
        assert np.array_equal(a.mi_log, b.mi_log)
        assert np.array_equal(a.depth, b.depth)

    def test_depths_within_bins_and_specials_excluded(self, synth_train):
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        assert table.depth.min() >= 1 and table.depth.max() <= 12
        assert not set(table.word_ids.tolist()) & {0, 1, 2}

    def test_zero_mi_word_lands_in_deepest_bin(self, tmp_path):
        # perfectly symmetric counts: the smoothed table is independent,
        # so MI is exactly zero and the word must get the maximum depth
        corpus = corpus_from_lines(
            tmp_path,
            ["pos\tzero cue a", "pos\tb c", "neg\tzero cue b", "neg\ta c", "pos\tcue d", "neg\td e"],
        )
        table = mi.build_mi_table(collect_stats(corpus), corpus.vocab, 12)
        idx = {int(w): i for i, w in enumerate(table.word_ids)}
        zid = corpus.vocab.word_to_id["zero"]
        assert table.mi[idx[zid]] == 0.0
        assert table.depth[idx[zid]] == 12

    def test_single_label_corpus_uniform_presence_gives_depth_one(self, tmp_path):
        # one label and every word in every doc: identical statistics for
        # all words, so the degenerate-range rule sends everything to 1
        corpus = corpus_from_lines(tmp_path, ["only\ta b c", "only\ta b c", "only\ta b c"])
        stats = collect_stats(corpus)
        table = mi.build_mi_table(stats, corpus.vocab, 12)
        assert np.all(table.mi < 0.2)
        assert np.all(table.depth == 1)

    def test_roundtrip(self, tmp_path, synth_train):
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        path = tmp_path / "mi.tsv"
        table.write(path, synth_train.vocab)
        loaded = mi.MiTable.read(path, synth_train.vocab, n_bins=12)
        assert np.array_equal(loaded.word_ids, table.word_ids)
        assert np.array_equal(loaded.depth, table.depth)
        assert np.allclose(loaded.mi, table.mi, rtol=0, atol=0)

    def test_word_missing_from_vocabulary_names_file_line_and_word(self, tmp_path, synth_train):
        path = tmp_path / "mi.tsv"
        mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12).write(path, synth_train.vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = "\t".join(["not_a_word", *lines[1].split("\t")[1:]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"mi\.tsv:2: word 'not_a_word' is not in the vocabulary"):
            mi.MiTable.read(path, synth_train.vocab, n_bins=12)


    @pytest.mark.parametrize(
        "column, value, message",
        [
            pytest.param(1, "abc", "MI must be a number, got 'abc'", id="mi"),
            pytest.param(2, "", "mi_log must be a number, got ''", id="mi-log"),
            pytest.param(3, "deep", "depth must be an integer, got 'deep'", id="depth"),
        ],
    )
    def test_non_numeric_field_names_file_and_line(self, tmp_path, synth_train, column, value, message):
        path = tmp_path / "mi.tsv"
        mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12).write(path, synth_train.vocab)
        lines = path.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[column] = value
        lines[2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"mi\.tsv:3: {message}"):
            mi.MiTable.read(path, synth_train.vocab, n_bins=12)


class TestSentenceDepths:
    def test_lookup(self, synth_train):
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        doc = synth_train.documents[0]
        depths = table.sentence_depths(doc.tokens)
        assert len(depths) == len(doc.tokens)
        depth_of = {int(w): int(d) for w, d in zip(table.word_ids, table.depth)}
        assert all(depths[i] == depth_of.get(int(t), 12) for i, t in enumerate(doc.tokens))

    def test_oov_gets_maximum_depth(self, synth_train):
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        depths = table.sentence_depths(np.array([synth_train.vocab.unk_id]))
        assert depths.tolist() == [12]

    def test_empty_sentence(self, synth_train):
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        assert table.sentence_depths(np.array([], dtype=np.int64)).size == 0

    def test_label_cue_words_sit_below_median_depth(self, synth_train):
        table = mi.build_mi_table(collect_stats(synth_train), synth_train.vocab, 12)
        median = float(np.median(table.depth))
        idx = {int(w): i for i, w in enumerate(table.word_ids)}
        for word, wid in synth_train.vocab.word_to_id.items():
            if word.startswith("cue_"):
                assert table.depth[idx[wid]] < median


def assert_written_as_reference(tmp_path, maps):
    """``write_depth_file`` writes what the per-depth loop it replaced
    wrote, and ``read_depth_file`` reads the maps back."""
    path = tmp_path / "d.depths"
    mi.write_depth_file(path, maps)
    reference = "".join(" ".join(str(int(d)) for d in depths) + "\n" for depths in maps)
    assert path.read_bytes() == reference.encode("utf-8")
    loaded = mi.read_depth_file(path)
    assert len(loaded) == len(maps)
    for depths, back in zip(maps, loaded):
        assert back.dtype == np.int64
        assert back.tolist() == [int(d) for d in depths]


class TestDepthFileIO:
    def test_roundtrip(self, tmp_path):
        maps = [np.array([1, 2, 3]), np.array([12]), np.array([4, 4])]
        path = tmp_path / "d.depths"
        mi.write_depth_file(path, maps)
        loaded = mi.read_depth_file(path)
        assert len(loaded) == 3
        assert all(np.array_equal(a, b) for a, b in zip(maps, loaded))

    @pytest.mark.parametrize("bad", ["2.5", "x", "1e3"])
    def test_non_integer_depth_names_file_line_and_token(self, tmp_path, bad):
        path = tmp_path / "d.depths"
        path.write_text(f"1 2 3\n4 {bad} 5\n6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=rf"d\.depths:2: depth must be an integer, got '{re.escape(bad)}'"):
            mi.read_depth_file(path)

    def test_lines_split_at_newline_only(self, tmp_path):
        path = tmp_path / "d.depths"
        path.write_bytes("1 2\u20283\r\n4\x1c5\n".encode("utf-8"))
        assert [d.tolist() for d in mi.read_depth_file(path)] == [[1, 2, 3], [4, 5]]

    @pytest.mark.parametrize("doc_len", [12, 64, 128])
    def test_mi_depth_files_match_the_per_depth_writer(self, tmp_path, doc_len):
        train_path, test_path = synth.make_dataset(tmp_path, n_train=60, n_test=20, seed=doc_len, doc_len=doc_len)
        train = load_tsv(train_path)
        test = load_tsv(test_path, vocab=train.vocab, labels=train.labels)
        table = mi.build_mi_table(collect_stats(train), train.vocab, 12)
        for corpus in (train, test):
            maps = mi.corpus_depth_maps(table, corpus)
            assert_written_as_reference(tmp_path, maps)

    @pytest.mark.parametrize(
        "maps",
        [
            [],
            [np.array([], dtype=np.int64)],
            [np.array([0, -3, 12]), np.array([], dtype=np.int64), np.array([10**12, 7])],
            [[1, 2], (3,), np.array([4.0, 5.0])],
        ],
        ids=["no-rows", "empty-row", "wide-values", "lists-and-floats"],
    )
    def test_edge_maps_match_the_per_depth_writer(self, tmp_path, maps):
        assert_written_as_reference(tmp_path, maps)

    def test_histogram_export(self, tmp_path):
        path = tmp_path / "h.tsv"
        mi.write_histogram(path, np.array([0.0, 0.1, 0.5, 0.9, 1.0]), n_bins=2)
        rows = [line.split("\t") for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert sum(int(r[2]) for r in rows) == 5
        assert float(rows[0][0]) == 0.0 and float(rows[1][1]) == 1.0
