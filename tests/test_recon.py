import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthformer import autodiff as ad
from depthformer import recon
from depthformer.corpus import Document, load_tsv
from depthformer.encoder import HEAD_MLM, AdaptiveEncoder, EncoderConfig
from depthformer.recon import (
    anytime_loss_on_docs,
    depths_from_profiles,
    mask_batch,
    select_depth,
    sentence_profiles,
    train_mlm,
)
from depthformer.train import FitSettings, length_buckets


def layer_losses(encoder, tokens, position, mask_id):
    """Reference for ``sentence_profiles``: per-layer reconstruction loss of
    one position, from its own full-depth forward with only it masked."""
    corrupted = np.array(tokens, dtype=np.int64)
    corrupted[position] = mask_id
    layer_states, _ = encoder.forward_infer(corrupted[None, :], None, collect_layers=True)
    true_id = int(tokens[position])
    return np.array(
        [-encoder.mlm_log_probs_infer(h[0, position : position + 1])[0, true_id] for h in layer_states],
        dtype=np.float64,
    )


def per_sentence_profiles(encoder, tokens, mask_id):
    """Reference for ``corpus_profiles``: one sentence's masked variants,
    ``PROFILE_CHUNK_ROWS`` of them per forward, never mixed with another
    sentence's."""
    tokens = np.asarray(tokens, dtype=np.int64)
    time = len(tokens)
    profiles = np.empty((time, encoder.config.n_layers), dtype=np.float64)
    for start in range(0, time, recon.PROFILE_CHUNK_ROWS):
        stop = min(start + recon.PROFILE_CHUNK_ROWS, time)
        variants = np.tile(tokens, (stop - start, 1))
        rows = np.arange(stop - start)
        variants[rows, np.arange(start, stop)] = mask_id
        layer_states, _ = encoder.forward_infer(variants, None, collect_layers=True)
        masked = rows * (time + 1) + start  # flat index of variant r's masked position start + r
        for n, h in enumerate(layer_states):
            profiles[start:stop, n] = encoder.masked_nll_infer(h, masked, tokens[start:stop])[1]
    return profiles


finite_profiles = st.lists(
    st.floats(min_value=0.01, max_value=50, allow_nan=False), min_size=1, max_size=16
)


class TestSelectDepth:
    def test_worked_example(self):
        assert select_depth(np.array([2.0, 1.5, 1.1, 1.3]), 0.1) == 3

    def test_unpenalized_argmin_of_decreasing_losses_is_deepest(self):
        assert select_depth(np.array([4.0, 3.0, 2.0, 1.0]), 0.0) == 4

    def test_flat_profile_with_penalty_selects_first_layer(self):
        # every layer reconstructs equally well, so paying for depth is
        # pure waste: the penalized argmin stops at layer 1
        assert select_depth(np.full(8, 2.5), 0.1) == 1

    def test_ties_break_shallow(self):
        assert select_depth(np.array([1.0, 1.0, 1.0]), 0.0) == 1

    def test_single_layer_profile(self):
        assert select_depth(np.array([3.3]), 0.2) == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            select_depth(np.array([1.0, np.nan]), 0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_depth(np.array([]), 0.1)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(1, 400), min_size=1, max_size=16),
        st.integers(0, 8),
        st.integers(-40, 40),
    )
    def test_shift_invariance(self, eighths, penalty_eighths, shift_eighths):
        # dyadic grid keeps the shifted sums exact; with arbitrary floats,
        # absorption (0.010000000000000002 + 1.0 == 0.01 + 1.0) merges
        # distinct losses into a tie
        profile = np.asarray(eighths, dtype=np.float64) / 8.0
        penalty, shift = penalty_eighths / 8.0, shift_eighths / 8.0
        assert select_depth(profile, penalty) == select_depth(profile + shift, penalty)

    @settings(max_examples=100, deadline=None)
    @given(finite_profiles, st.floats(0, 1), st.floats(0, 1))
    def test_larger_penalty_never_selects_deeper(self, profile, p1, delta):
        profile = np.asarray(profile)
        assert select_depth(profile, p1 + delta) <= select_depth(profile, p1)

    @settings(max_examples=50, deadline=None)
    @given(finite_profiles, st.floats(0, 2))
    def test_result_in_range(self, profile, penalty):
        assert 1 <= select_depth(np.asarray(profile), penalty) <= len(profile)


def per_token_depths(profiles, penalty):
    """Reference for ``depths_from_profiles``: each token's penalized
    argmin taken on its own, in Python floats, the first minimum winning."""
    maps = []
    for sentence in profiles:
        depths = []
        for row in sentence:
            scores = [loss + penalty * layer for layer, loss in enumerate(row.tolist(), start=1)]
            depths.append(scores.index(min(scores)) + 1)
        maps.append(np.array(depths, dtype=np.int64))
    return maps


@st.composite
def split_profiles(draw):
    """A split's profiles: sentences of 0 to 6 tokens over 1 to 6 layers,
    the losses mostly on a coarse dyadic grid, so layers often tie."""
    n_layers = draw(st.integers(1, 6))
    loss = st.sampled_from([0.25, 0.5, 0.75, 1.0, 2.0]) | st.floats(0, 10)
    token = st.lists(loss, min_size=n_layers, max_size=n_layers)
    sentences = draw(st.lists(st.lists(token, max_size=6), max_size=6))
    return [np.array(s, dtype=np.float64).reshape(len(s), n_layers) for s in sentences]


class TestDepthsFromProfiles:
    @settings(max_examples=200, deadline=None)
    @given(split_profiles(), st.sampled_from([0.0, 0.25, 0.5]) | st.floats(0, 2))
    def test_matches_the_per_token_argmin(self, profiles, penalty):
        got = depths_from_profiles(profiles, penalty)
        want = per_token_depths(profiles, penalty)
        assert len(got) == len(want)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == np.int64 and np.array_equal(g, w)

    def test_tie_goes_to_the_shallower_layer(self):
        # scores 1.25, 1.25, 1.25 and 2.25, 1.25, 1.25: the first of the tied layers wins
        maps = depths_from_profiles([np.array([[1.0, 0.75, 0.5]]), np.array([[2.0, 0.75, 0.5]])], 0.25)
        assert [m.tolist() for m in maps] == [[1], [2]]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            depths_from_profiles([np.array([[1.0, 2.0]]), np.array([[np.inf, 1.0]])], 0.1)


class TestReconConfig:
    def test_negative_penalty_rejected(self):
        profiles = [np.array([[1.0, 0.5], [0.2, 0.9]])]
        for penalty in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="penalty must be >= 0"):
                depths_from_profiles(profiles, penalty)


class TestMaskBatch:
    def test_rate_zero_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="mask rate"):
            mask_batch(np.ones((1, 4), dtype=np.int64), 2, 10, rng, mask_rate=0.0)

    def test_positions_and_true_ids_consistent(self):
        rng = np.random.default_rng(0)
        ids = np.random.default_rng(1).integers(3, 30, size=(4, 10))
        corrupted, flat_idx, true_ids = mask_batch(ids, 2, 30, rng)
        assert flat_idx.size == 4 * max(1, round(0.15 * 10))
        for fi, ti in zip(flat_idx, true_ids):
            assert ids.ravel()[fi] == ti
        untouched = np.ones(ids.size, dtype=bool)
        untouched[flat_idx] = False
        assert np.array_equal(corrupted.ravel()[untouched], ids.ravel()[untouched])

    def test_corruption_mix(self):
        rng = np.random.default_rng(0)
        ids = np.full((300, 8), 5, dtype=np.int64)
        corrupted, flat_idx, _ = mask_batch(ids, 2, 30, rng, mask_rate=0.5)
        changed = corrupted.ravel()[flat_idx]
        frac_masked = np.mean(changed == 2)
        frac_same = np.mean(changed == 5)
        assert 0.7 < frac_masked < 0.9
        assert 0.05 < frac_same < 0.25  # unchanged plus random draws hitting 5


@pytest.fixture(scope="module")
def toy_mlm(synth_dir):
    corpus = load_tsv(synth_dir / "train.tsv")
    config = EncoderConfig(
        vocab_size=len(corpus.vocab),
        n_labels=corpus.n_labels,
        n_layers=6,
        d_model=32,
        n_heads=4,
        d_ff=64,
        dropout=0.1,
        max_len=32,
        precision="f32",
    )
    result = train_mlm(corpus, config, FitSettings(steps=150, lr=1e-3, batch_size=16), seed=0)
    return corpus, result


class TestTrainMlm:
    def test_zero_steps_is_a_no_op(self, synth_train):
        config = EncoderConfig(
            vocab_size=len(synth_train.vocab), n_labels=2, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=32, precision="f32",
        )
        result = train_mlm(synth_train, config, FitSettings(steps=0, lr=1e-3, batch_size=16), seed=1)
        assert result.log == []
        assert result.heldout_log == [(0, result.heldout_log[0][1])]

    def test_mask_rate_zero_rejected(self, synth_train):
        config = EncoderConfig(
            vocab_size=len(synth_train.vocab), n_labels=2, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=32, precision="f32",
        )
        with pytest.raises(ValueError, match="mask rate"):
            train_mlm(synth_train, config, FitSettings(steps=5, lr=1e-3, batch_size=16), mask_rate=0.0)

    def test_same_seed_reproduces_parameters(self, synth_train):
        config = EncoderConfig(
            vocab_size=len(synth_train.vocab), n_labels=2, n_layers=2,
            d_model=16, n_heads=2, d_ff=32, max_len=32, precision="f32",
        )
        settings = FitSettings(steps=5, lr=1e-3, batch_size=16)
        a = train_mlm(synth_train, config, settings, seed=3)
        b = train_mlm(synth_train, config, settings, seed=3)
        for name, p in a.encoder.store.params.items():
            assert np.array_equal(p.data, b.encoder.store.params[name].data)

    def test_heldout_loss_drops_after_training(self, toy_mlm):
        _, result = toy_mlm
        assert result.heldout_log[-1][1] < result.heldout_log[0][1]


class TestLayerLosses:
    """Per-layer reconstruction losses as ``sentence_profiles`` returns them."""

    def test_profile_shape_and_positivity(self, toy_mlm):
        corpus, result = toy_mlm
        tokens = corpus.documents[0].tokens
        profiles = sentence_profiles(result.encoder, tokens, corpus.vocab.mask_id)
        assert profiles.shape == (len(tokens), 6)
        assert np.all(profiles > 0) and np.all(np.isfinite(profiles))

    def test_repeated_calls_bit_identical(self, toy_mlm):
        corpus, result = toy_mlm
        tokens = corpus.documents[3].tokens
        a = sentence_profiles(result.encoder, tokens, corpus.vocab.mask_id)
        b = sentence_profiles(result.encoder, tokens, corpus.vocab.mask_id)
        assert np.array_equal(a, b)

    def test_no_cross_sentence_state(self, toy_mlm):
        corpus, result = toy_mlm
        first = corpus.documents[0].tokens
        baseline = sentence_profiles(result.encoder, first, corpus.vocab.mask_id)
        sentence_profiles(result.encoder, corpus.documents[1].tokens, corpus.vocab.mask_id)
        again = sentence_profiles(result.encoder, first, corpus.vocab.mask_id)
        assert np.array_equal(baseline, again)

    def test_single_token_sentence(self, toy_mlm):
        corpus, result = toy_mlm
        one = corpus.documents[0].tokens[:1]
        profiles = sentence_profiles(result.encoder, one, corpus.vocab.mask_id)
        assert profiles.shape == (1, 6)
        assert np.all(np.isfinite(profiles))

    def test_batched_profiles_match_single_position_calls(self, toy_mlm, monkeypatch):
        corpus, result = toy_mlm
        tokens = corpus.documents[5].tokens
        monkeypatch.setattr(recon, "PROFILE_CHUNK_ROWS", 5)  # so the twelve positions cross chunk boundaries
        batched = sentence_profiles(result.encoder, tokens, corpus.vocab.mask_id)
        for t in range(len(tokens)):
            single = layer_losses(result.encoder, tokens, t, corpus.vocab.mask_id)
            np.testing.assert_allclose(batched[t], single, atol=1e-5)


# one 1-token sentence, then lengths whose variants cross sentence
# boundaries and the 32-variant one: 13·3 = 39, 7·12 = 84 and 3·40 = 120
# variants, where the per-sentence loop splits each 40-token sentence into
# 32 + 8. No forward holds a single variant except the 1-token sentence's,
# alone in both: BLAS takes a one-row head product in another summation
# order than a multi-row one, so a variant scored alone can differ in its
# last bit.
MIXED_LENGTHS = (3, 12, 40, 1, *(3,) * 12, *(12,) * 6, 40, 40)


@pytest.fixture(scope="module", params=["f32", "f64"])
def mixed_split(synth_train, request):
    config = EncoderConfig(
        vocab_size=len(synth_train.vocab), n_labels=2, n_layers=3,
        d_model=32, n_heads=4, d_ff=64, max_len=64, precision=request.param,
    )
    encoder = AdaptiveEncoder(config, HEAD_MLM, seed=7)
    rng = np.random.default_rng(11)
    docs = [Document(rng.integers(3, len(synth_train.vocab), size=t), 0) for t in MIXED_LENGTHS]
    return encoder, replace(synth_train, documents=docs)


class TestCorpusProfiles:
    """Sentences of one length are profiled together, 32 variants a forward."""

    def test_equal_to_the_per_sentence_loop(self, mixed_split):
        encoder, corpus = mixed_split
        profiles = recon.corpus_profiles(encoder, corpus)
        assert len(profiles) == len(corpus.documents)
        for doc, got in zip(corpus.documents, profiles):
            assert np.array_equal(got, per_sentence_profiles(encoder, doc.tokens, corpus.vocab.mask_id))

    def test_forward_count(self, mixed_split, monkeypatch):
        encoder, corpus = mixed_split
        calls = []
        forward = encoder.forward_infer

        def counting(*args, **kwargs):
            calls.append(1)
            return forward(*args, **kwargs)

        monkeypatch.setattr(encoder, "forward_infer", counting)
        recon.corpus_profiles(encoder, corpus)
        groups = {t: MIXED_LENGTHS.count(t) for t in MIXED_LENGTHS}
        expected = sum(math.ceil(n * t / recon.PROFILE_CHUNK_ROWS) for t, n in groups.items())
        assert len(calls) == expected == 1 + 2 + 3 + 4

    def test_one_scorer_call_per_length_through_the_module(self, mixed_split, monkeypatch):
        # the benchmark traces recon.sentence_profiles by its module name
        encoder, corpus = mixed_split
        assert "sentence_profiles" in recon.__dict__
        shapes = []
        scorer = recon.sentence_profiles

        def recording(encoder, tokens, mask_id):
            shapes.append(tokens.shape)
            return scorer(encoder, tokens, mask_id)

        monkeypatch.setattr(recon, "sentence_profiles", recording)
        recon.corpus_profiles(encoder, corpus)
        assert sorted(shapes) == [(1, 1), (3, 40), (7, 12), (13, 3)]

    def test_stack_and_vector_shapes(self, mixed_split):
        encoder, corpus = mixed_split
        stack = np.stack([d.tokens for d in corpus.documents if len(d.tokens) == 12])
        profiles = recon.sentence_profiles(encoder, stack, corpus.vocab.mask_id)
        assert profiles.shape == (7, 12, 3)
        assert recon.sentence_profiles(encoder, stack[0], corpus.vocab.mask_id).shape == (12, 3)


class TestEstimateCorpusDepths:
    def test_depths_in_range_and_deterministic(self, toy_mlm):
        corpus, result = toy_mlm
        maps_a, maps_b = (
            depths_from_profiles(recon.corpus_profiles(result.encoder, corpus), 0.1) for _ in range(2)
        )
        assert recon.average_depth(maps_a) == recon.average_depth(maps_b)
        for a, b, doc in zip(maps_a, maps_b, corpus.documents):
            assert np.array_equal(a, b)
            assert len(a) == len(doc.tokens)
            assert a.min() >= 1 and a.max() <= 6

    def test_average_depth_non_increasing_in_penalty(self, toy_mlm):
        corpus, result = toy_mlm
        profiles = recon.corpus_profiles(result.encoder, corpus)
        avgs = [
            recon.average_depth(depths_from_profiles(profiles, lam))
            for lam in (0.0, 0.05, 0.1, 0.2)
        ]
        assert all(b <= a for a, b in zip(avgs, avgs[1:]))

    def test_frequent_words_not_deeper_than_typical(self, toy_mlm):
        # easy-to-reconstruct bulk words should need at most the typical
        # number of layers; checked as an aggregate tendency
        corpus, result = toy_mlm
        maps = depths_from_profiles(recon.corpus_profiles(result.encoder, corpus), 0.1)
        df = corpus.vocab.doc_freq.copy()
        frequent = set(np.argsort(df)[-8:].tolist())
        all_depths, frequent_depths = [], []
        for doc, depths in zip(corpus.documents, maps):
            all_depths.extend(depths.tolist())
            frequent_depths.extend(d for t, d in zip(doc.tokens, depths) if int(t) in frequent)
        assert np.median(frequent_depths) <= np.median(all_depths)


class TestAnytimeLossEval:
    def test_deterministic_given_seed(self, toy_mlm):
        corpus, result = toy_mlm
        docs = [d.tokens for d in corpus.documents[:20]]
        a = anytime_loss_on_docs(result.encoder, docs, corpus.vocab, seed=5)
        b = anytime_loss_on_docs(result.encoder, docs, corpus.vocab, seed=5)
        assert a == b

    def test_builds_no_graph(self, toy_mlm, monkeypatch):
        # the held-out score runs the inference path: no graph node, and
        # every layer call without a tape
        corpus, result = toy_mlm
        tapes = []
        layer = result.encoder._layer_infer

        def recording(h, i, block, active, tape=None):
            tapes.append(tape)
            return layer(h, i, block, active, tape)

        def no_graph(*args, **kwargs):
            raise AssertionError("the held-out score built a graph node")

        monkeypatch.setattr(result.encoder, "_layer_infer", recording)
        monkeypatch.setattr(ad, "op", no_graph)
        anytime_loss_on_docs(result.encoder, [d.tokens for d in corpus.documents[:20]], corpus.vocab, seed=5)
        assert tapes and all(tape is None for tape in tapes)

    def test_equals_the_training_loss_bit_for_bit(self, toy_mlm):
        # the same masking and per-layer sums as mlm_anytime_loss_graph
        # without dropout, so the same value to the last bit
        corpus, result = toy_mlm
        docs = [d.tokens for d in corpus.documents[:40]]
        rng = np.random.default_rng(5)
        total, n_masked = 0.0, 0
        for idx in length_buckets([len(t) for t in docs], 8):
            ids = np.stack([docs[i] for i in idx])
            corrupted, flat_idx, true_ids = mask_batch(ids, corpus.vocab.mask_id, len(corpus.vocab), rng)
            loss, _, _ = result.encoder.mlm_anytime_loss_graph(corrupted, flat_idx, true_ids, train=False)
            total += float(loss.data) * flat_idx.size
            n_masked += flat_idx.size
        assert anytime_loss_on_docs(result.encoder, docs, corpus.vocab, seed=5, batch_size=8) == total / n_masked
