import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from depthformer import autodiff as ad
from depthformer import encoder as enc_module
from depthformer import recon
from depthformer.autodiff import Tensor
from depthformer.encoder import _LAYER_PARAMS, AdaptiveEncoder, EncoderConfig
from depthformer.optim import adam_step
from depthformer.train import FitSettings, fit, train_classifier

from reference_graph import (
    per_op_classifier_loss,
    per_op_embed,
    per_op_forward_graph,
    per_op_graph_layers,
    per_op_mlm_loss,
    reference_graph_layers,
)


def small_config(**overrides):
    base = dict(
        vocab_size=20,
        n_labels=2,
        n_layers=3,
        d_model=16,
        n_heads=2,
        d_ff=32,
        dropout=0.0,
        max_len=16,
        precision="f64",
    )
    base.update(overrides)
    return EncoderConfig(**base)


@pytest.fixture
def encoder():
    return AdaptiveEncoder(small_config(), head="cls", seed=11)


def token_batch(shape, vocab=20, seed=0):
    return np.random.default_rng(seed).integers(3, vocab, size=shape)


class TestConfig:
    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError, match="divisible"):
            small_config(d_model=10, n_heads=3)

    @pytest.mark.parametrize("field", ["vocab_size", "n_layers", "d_model", "n_heads", "d_ff", "max_len", "n_labels"])
    def test_sizes_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            small_config(**{field: 0})

    @pytest.mark.parametrize("dropout", [-0.1, 1.0, float("nan")])
    def test_dropout_must_lie_in_unit_interval(self, dropout):
        with pytest.raises(ValueError, match=r"dropout must be in \[0, 1\)"):
            small_config(dropout=dropout)

    def test_meta_roundtrip(self):
        cfg = small_config()
        assert EncoderConfig.from_meta(cfg.to_meta()) == cfg

    def test_meta_text_is_pinned(self, tmp_path):
        # checkpoints already written, and readers of the sidecar, rely on
        # these keys, their order and their value strings
        cfg = small_config(n_layers=5, dropout=0.25, max_len=48, precision="f64")
        AdaptiveEncoder(cfg, head="cls", seed=0).save(tmp_path / "x.ckpt", extra_meta={"labels": "a,b"})
        assert (tmp_path / "x.ckpt.meta").read_text(encoding="utf-8") == (
            "vocab_size = 20\nn_labels = 2\nn_layers = 5\nd_model = 16\nn_heads = 2\nd_ff = 32\n"
            "dropout = 0.25\nmax_len = 48\nprecision = f64\nhead = cls\nlabels = a,b\n"
        )
        _, meta = AdaptiveEncoder.load(tmp_path / "x.ckpt")
        assert EncoderConfig.from_meta(meta) == cfg


class TestEmbed:
    def test_position_distinguishes_identical_tokens(self, encoder):
        h = encoder.embed_infer(np.array([[5, 5]]))
        assert not np.allclose(h[0, 0], h[0, 1])

    def test_zero_length_rejected(self, encoder):
        with pytest.raises(ValueError, match="non-empty"):
            encoder.embed_infer(np.zeros((1, 0), dtype=np.int64))

    def test_out_of_range_token_rejected(self, encoder):
        with pytest.raises(ValueError, match="out of range"):
            encoder.embed_infer(np.array([[25]]))

    def test_eval_mode_deterministic(self, encoder):
        ids = token_batch((2, 6))
        a = encoder.embed(ids, train=False)
        b = encoder.embed(ids, train=False)
        assert np.array_equal(a.data, b.data)

    def test_too_long_sequence_rejected(self, encoder):
        with pytest.raises(ValueError, match="max_len"):
            encoder.embed_infer(token_batch((1, 17)))


class TestAdaptiveForward:
    def test_all_max_depths_bit_identical_to_plain_encoder(self, encoder):
        ids = token_batch((3, 7))
        full, c_full = encoder.forward_infer(ids, None)
        adaptive, c_ad = encoder.forward_infer(ids, np.full(ids.shape, 3))
        assert np.array_equal(full, adaptive)
        assert c_full.ffn_applications == c_ad.ffn_applications == 3 * 21

    def test_copy_invariance_exact(self, encoder):
        ids = token_batch((2, 6), seed=3)
        depths = np.random.default_rng(4).integers(1, 4, size=ids.shape)
        layers, _ = encoder.forward_infer(ids, depths, collect_layers=True)
        for b in range(2):
            for t in range(6):
                stop = depths[b, t]
                for n in range(stop, len(layers)):
                    assert np.array_equal(layers[n][b, t], layers[stop - 1][b, t])

    def test_two_token_split_depths(self):
        enc = AdaptiveEncoder(small_config(n_layers=4), head="cls", seed=2)
        ids = token_batch((1, 2))
        depths = np.array([[1, 4]])
        layers, counts = enc.forward_infer(ids, depths, collect_layers=True)
        assert counts.n_max == 4
        for n in range(1, 4):
            assert np.array_equal(layers[n][0, 0], layers[0][0, 0])
            assert not np.allclose(layers[n][0, 1], layers[n - 1][0, 1])

    def test_all_ones_runs_single_layer(self, encoder):
        ids = token_batch((2, 5))
        _, counts = encoder.forward_infer(ids, np.ones(ids.shape, dtype=np.int64))
        assert counts.n_max == 1
        assert counts.ffn_applications == 10
        assert counts.kv_projections == 10

    def test_counts_are_sum_of_depths(self, encoder):
        ids = token_batch((4, 6), seed=9)
        depths = np.random.default_rng(10).integers(1, 4, size=ids.shape)
        _, counts = encoder.forward_infer(ids, depths)
        assert counts.ffn_applications == int(depths.sum())
        assert counts.kv_projections == int(depths.max()) * ids.size

    def test_depth_shape_mismatch_rejected(self, encoder):
        ids = token_batch((1, 5))
        with pytest.raises(ValueError, match="depth map shape"):
            encoder.forward_infer(ids, np.ones((1, 4), dtype=np.int64))

    def test_depth_out_of_range_rejected(self, encoder):
        ids = token_batch((1, 5))
        with pytest.raises(ValueError, match=r"\[1, 3\]"):
            encoder.forward_infer(ids, np.full(ids.shape, 4))

    def test_float_depth_map_rejected(self, encoder):
        ids = token_batch((1, 3))
        for path in (encoder.forward_infer, encoder.forward_graph):
            with pytest.raises(ValueError, match="float64"):
                path(ids, np.array([[2.9, 1.5, 1.0]]))

    def test_graph_and_inference_paths_agree(self, encoder):
        ids = token_batch((2, 6), seed=5)
        depths = np.random.default_rng(6).integers(1, 4, size=ids.shape)
        layers, gc = encoder.forward_graph(ids, depths, train=False)
        h_inf, ic = encoder.forward_infer(ids, depths)
        np.testing.assert_allclose(layers[-1].data, h_inf, atol=1e-10)
        assert (gc.ffn_applications, gc.kv_projections) == (ic.ffn_applications, ic.kv_projections)

    def test_batched_equals_single_sentence_runs(self, encoder):
        # the batch loop runs to the batch-wide maximum depth, but copying
        # makes the extra layers no-ops for sentences that stopped earlier
        ids = token_batch((3, 5), seed=8)
        depths = np.random.default_rng(9).integers(1, 4, size=ids.shape)
        h_batch, _ = encoder.forward_infer(ids, depths)
        for b in range(3):
            h_one, _ = encoder.forward_infer(ids[b : b + 1], depths[b : b + 1])
            np.testing.assert_allclose(h_batch[b], h_one[0], atol=1e-10)


def _layer_weights(enc, i):
    return {name: enc.store[f"layer{i}.{name}"].data for name in _LAYER_PARAMS}


def _plain_layer_norm(x, gamma, beta):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + 1e-5) * gamma + beta


def reference_layer(enc, h, i, b, m):
    """One inference layer in the plain allocating formula, for the query
    rows ``h[:b, :m]`` against every row's keys and values: every step makes
    a new array and the layer norm goes through ``np.var``. Key-major
    attention as the encoder computes it: the scores are K·Qᵀ with the
    1/√d_head scale on q, the softmax reduces over the key axis -2, and the
    context is normalized after the P·V product. Returns the (b, m, d)
    block."""
    cfg = enc.config
    _, time, d = h.shape
    heads, dh = cfg.n_heads, cfg.d_head
    w = _layer_weights(enc, i)
    k = h @ w["attn.wk"] + w["attn.bk"]
    v = h @ w["attn.wv"] + w["attn.bv"]
    hq = h[:b, :m]
    q = (hq @ w["attn.wq"] + w["attn.bq"]) * (1.0 / math.sqrt(dh))
    qh = q.reshape(b, m, heads, dh).transpose(0, 2, 3, 1)
    kh = k[:b].reshape(b, time, heads, dh).transpose(0, 2, 1, 3)
    vh = v[:b].reshape(b, time, heads, dh).transpose(0, 2, 3, 1)
    scores = np.matmul(kh, qh)
    e = np.exp(scores - scores.max(axis=-2, keepdims=True))
    ctx = np.matmul(vh, e) / e.sum(axis=-2, keepdims=True)
    attn = ctx.transpose(0, 3, 1, 2).reshape(b, m, d) @ w["attn.wo"] + w["attn.bo"]
    hr = _plain_layer_norm(hq + attn, w["ln1.gamma"], w["ln1.beta"])
    ff = np.maximum(hr @ w["ffn.w1"] + w["ffn.b1"], 0.0) @ w["ffn.w2"] + w["ffn.b2"]
    return _plain_layer_norm(hr + ff, w["ln2.gamma"], w["ln2.beta"])


def reference_forward(enc, ids, depths):
    """Every layer's states, grouped the way the encoder groups rows:
    sentences sorted by their deepest token and each sentence's tokens by
    depth, deepest first, both stable (Python's ``sorted``); layer n runs on
    the smallest leading corner that holds every active row, and stopped
    rows keep their state. Each layer is returned in input order, so the
    result must match the encoder bit for bit."""
    batch, time = ids.shape
    h = enc.embed_infer(ids)
    sents = sorted(range(batch), key=lambda s: -max(depths[s]))
    toks = [sorted(range(time), key=lambda t: -depths[s][t]) for s in sents]
    hp = np.stack([h[s, order] for s, order in zip(sents, toks)])
    dp = np.stack([depths[s][order] for s, order in zip(sents, toks)])
    layers = []
    for n in range(1, int(depths.max()) + 1):
        act = dp >= n
        b = int(act.any(axis=1).sum())
        m = int(act.sum(axis=1).max())
        block = reference_layer(enc, hp, n - 1, b, m)
        hp = hp.copy()
        corner = hp[:b, :m]
        corner[act[:b, :m]] = block[act[:b, :m]]
        out = np.empty_like(hp)
        for row, (s, order) in enumerate(zip(sents, toks)):
            out[s, order] = hp[row]
        layers.append(out)
    return layers


def rowmajor_reference_layer(enc, h, i, active):
    """The earlier inference layer: query-major scores with the softmax over
    the last axis, in input order, on the whole batch when every row is
    active, else on each sentence's active rows in turn. It rounds
    differently from the encoder, so it is a tolerance reference."""
    cfg = enc.config
    batch, time, d = h.shape
    w = _layer_weights(enc, i)

    def softmax(x):
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    k = h @ w["attn.wk"] + w["attn.bk"]
    v = h @ w["attn.wv"] + w["attn.bv"]

    def rows(hq, keys, values):
        b, m, _ = hq.shape
        q = hq @ w["attn.wq"] + w["attn.bq"]
        qh = q.reshape(b, m, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
        kh = keys.reshape(b, time, cfg.n_heads, cfg.d_head).transpose(0, 2, 3, 1)
        vh = values.reshape(b, time, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
        probs = softmax(np.matmul(qh, kh) / math.sqrt(cfg.d_head))
        ctx = np.matmul(probs, vh).transpose(0, 2, 1, 3).reshape(b, m, d)
        attn = ctx @ w["attn.wo"] + w["attn.bo"]
        hr = _plain_layer_norm(hq + attn, w["ln1.gamma"], w["ln1.beta"])
        ff = np.maximum(hr @ w["ffn.w1"] + w["ffn.b1"], 0.0) @ w["ffn.w2"] + w["ffn.b2"]
        return _plain_layer_norm(hr + ff, w["ln2.gamma"], w["ln2.beta"])

    if active.all():
        return rows(h, k, v)
    out = h.copy()
    for b in range(batch):
        idx = np.nonzero(active[b])[0]
        if idx.size:
            out[b, idx] = rows(h[b, idx][None], k[b : b + 1], v[b : b + 1])[0]
    return out


def corners(depths):
    """Each layer's leading (b, m) corner for depths already sorted across
    and within sentences, deepest first."""
    return [
        (int((depths >= n).any(axis=1).sum()), int((depths >= n).sum(axis=1).max()))
        for n in range(1, int(depths.max()) + 1)
    ]


class TestInPlaceKernel:
    """The inference kernel plans its routing once per batch, runs each
    layer on one corner block and reuses its own temporaries; it must give
    exactly the plain formula's bits and never write into its input."""

    @pytest.fixture(params=["f32", "f64"])
    def perturbed(self, request):
        # non-trivial biases and gains, so every residual and affine step
        # counts; a width that is not a power of two, so no division is exact
        cfg = small_config(n_layers=4, d_model=12, d_ff=24, precision=request.param)
        enc = AdaptiveEncoder(cfg, head="cls", seed=4)
        gen = np.random.default_rng(12)
        for name, p in enc.store.params.items():
            if p.data.ndim == 1:
                p.data[:] = (1.0 if "gamma" in name else 0.0) + gen.normal(0.0, 0.3, p.data.shape)
        return enc

    @staticmethod
    def unsorted_depths(batch, seed):
        # unsorted across sentences (the deepest is not first) and within
        # each one, with a sentence that stops at layer 1 when batch > 1
        depths = np.random.default_rng(seed).integers(1, 5, size=(batch, 9))
        depths[-1, 4] = 4
        if batch > 1:
            depths[0] = 1
            depths[1, 0] = 1
        return depths

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("mixed", [False, True], ids=["full", "mixed"])
    def test_collected_layers_match_reference_bit_for_bit(self, perturbed, batch, mixed):
        ids = token_batch((batch, 9), seed=batch)
        depths = self.unsorted_depths(batch, batch + 20) if mixed else None
        layers, _ = perturbed.forward_infer(ids, depths, collect_layers=True)
        full = np.full(ids.shape, 4) if depths is None else depths
        want = reference_forward(perturbed, ids, full)
        assert len(layers) == len(want) == 4
        for n, (got, ref) in enumerate(zip(layers, want), start=1):
            assert got.dtype == perturbed.config.dtype
            assert np.array_equal(got, ref), f"layer {n}"

    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("mixed", [False, True], ids=["full", "mixed"])
    def test_collected_layers_match_rowmajor_reference(self, perturbed, batch, mixed):
        ids = token_batch((batch, 9), seed=batch + 7)
        depths = self.unsorted_depths(batch, batch + 30) if mixed else np.full(ids.shape, 4)
        layers, _ = perturbed.forward_infer(ids, depths, collect_layers=True)
        tol = 1e-5 if perturbed.config.precision == "f32" else 1e-12
        h = perturbed.embed_infer(ids)
        for n, got in enumerate(layers, start=1):
            h = rowmajor_reference_layer(perturbed, h, n - 1, depths >= n)
            np.testing.assert_allclose(got, h, rtol=0, atol=tol, err_msg=f"layer {n}")

    @pytest.mark.parametrize("mixed", [False, True], ids=["full", "mixed"])
    def test_layer_input_left_unchanged(self, perturbed, mixed):
        ids = token_batch((3, 7), seed=2)
        depths = np.random.default_rng(3).integers(1, 5, size=ids.shape) if mixed else np.full(ids.shape, 4)
        # the kernel takes rows already in corner order: deepest first
        depths = -np.sort(-depths, axis=1)
        depths = depths[np.argsort(-depths[:, 0], kind="stable")]
        h = perturbed.embed_infer(ids)
        for n, (b, m) in enumerate(corners(depths), start=1):
            active = depths[:b, :m] >= n
            before = h.copy()
            out = perturbed._layer_infer(h, n - 1, (b, m), None if active.all() else active)
            assert np.array_equal(h, before), f"layer {n} wrote into its input"
            h = out

    @pytest.mark.parametrize("mixed", [False, True], ids=["full", "mixed"])
    def test_graph_states_are_the_kernel_states(self, perturbed, mixed):
        # both paths run the one layer function, so outside training their
        # states agree bit for bit
        ids = token_batch((4, 9), seed=31)
        depths = self.unsorted_depths(4, 32) if mixed else None
        layers, _ = perturbed.forward_graph(ids, depths, train=False)
        want, _ = perturbed.forward_infer(ids, depths, collect_layers=True)
        assert len(layers) == len(want) == 4
        for n, (got, ref) in enumerate(zip(layers, want), start=1):
            assert np.array_equal(got.data, ref), f"layer {n}"

    def test_each_layer_runs_on_its_corner_block(self, encoder, monkeypatch):
        # the layer norms see the (b_n, m_n) corner: sentence 0 stops at
        # layer 1, and at most 4 then 2 tokens of a sentence stay active
        shapes = []
        layer_norm = enc_module._layer_norm_np

        def recording(x, gamma, beta):
            shapes.append(x.shape[:-1])
            return layer_norm(x, gamma, beta)

        monkeypatch.setattr(enc_module, "_layer_norm_np", recording)
        ids = token_batch((3, 5), seed=24)
        depths = np.array([[1, 1, 1, 1, 1], [2, 3, 1, 3, 2], [3, 1, 2, 2, 3]])
        encoder.forward_infer(ids, depths)
        assert shapes == [(3, 5), (3, 5), (2, 4), (2, 4), (2, 2), (2, 2)]
        shapes.clear()
        encoder.forward_infer(ids, np.array([[1, 2, 1, 1, 1], [1, 1, 1, 1, 3], [1, 1, 1, 1, 1]]))
        assert shapes == [(3, 5), (3, 5), (2, 1), (2, 1), (1, 1), (1, 1)]

    def test_weight_cache_follows_load_arrays_and_adam_step(self, perturbed):
        ids = token_batch((3, 6), seed=25)
        depths = np.random.default_rng(26).integers(1, 5, size=ids.shape)
        cfg = perturbed.config

        def fresh_copy():
            enc = AdaptiveEncoder(cfg, head="cls", seed=0)
            enc.store.load_arrays({k: v.copy() for k, v in perturbed.store.state_arrays().items()})
            return enc

        perturbed.forward_infer(ids, depths)  # read the weights once before they change
        other = AdaptiveEncoder(cfg, head="cls", seed=9)
        perturbed.store.load_arrays({k: v.copy() for k, v in other.store.state_arrays().items()})
        assert np.array_equal(perturbed.forward_infer(ids, depths)[0], fresh_copy().forward_infer(ids, depths)[0])

        layers, _ = perturbed.forward_graph(ids, depths, train=False)
        perturbed.store.zero_grad()
        ad.backward(perturbed.classifier_loss_graph(layers[-1], np.array([0, 1, 1])))
        adam_step(perturbed.store, lr=0.05)
        assert np.array_equal(perturbed.forward_infer(ids, depths)[0], fresh_copy().forward_infer(ids, depths)[0])


class TestGatheredGraphLayer:
    """The training path runs Q, attention, ``wo``, the layer norms and the
    FFN on the corner block of active rows only; it must give the same loss
    and gradients as computing every row and masking."""

    @pytest.fixture
    def perturbed(self):
        enc = AdaptiveEncoder(small_config(d_model=12, d_ff=24), head="cls", seed=5)
        gen = np.random.default_rng(13)
        for name, p in enc.store.params.items():
            if p.data.ndim == 1:
                p.data[:] = (1.0 if "gamma" in name else 0.0) + gen.normal(0.0, 0.3, p.data.shape)
        return enc

    @pytest.mark.parametrize(
        "depths",
        [
            pytest.param([[3, 3, 3, 3, 3], [3, 3, 3, 3, 3], [3, 3, 3, 3, 3]], id="all-active"),
            # sentence 0 has no active row at layers 2 and 3
            pytest.param([[1, 1, 1, 1, 1], [2, 3, 1, 3, 2], [3, 1, 2, 2, 3]], id="empty-sentence"),
            # active counts 4, 2, 4 at layer 2 and 4, 1, 3 at layer 3
            pytest.param([[3, 3, 3, 1, 3], [1, 3, 1, 1, 2], [2, 3, 3, 3, 1]], id="uneven"),
        ],
    )
    def test_loss_and_gradients_match_masked_reference(self, perturbed, depths):
        enc, depths = perturbed, np.array(depths)
        ids = token_batch(depths.shape, seed=21)
        gold = np.array([0, 1, 1])

        def run(layers):
            loss = enc.classifier_loss_graph(layers[-1], gold)
            enc.store.zero_grad()
            ad.backward(loss)
            grads = {name: p.grad.copy() for name, p in enc.store.params.items()}
            return [h.data for h in layers], float(loss.data), grads

        got_states, got_loss, got = run(enc.forward_graph(ids, depths)[0])
        ref_states, ref_loss, ref = run(reference_graph_layers(enc, ids, depths))
        assert len(got_states) == len(ref_states) == 3
        for n, (a, b) in enumerate(zip(got_states, ref_states), start=1):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10, err_msg=f"layer {n}")
        assert abs(got_loss - ref_loss) <= 1e-10
        for name, g in ref.items():
            np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-10, err_msg=name)

    @pytest.mark.parametrize(
        "depths",
        [
            pytest.param(None, id="full-mlm"),
            pytest.param([[3, 3, 3, 3, 3], [3, 3, 3, 3, 3], [3, 3, 3, 3, 3]], id="all-active"),
            pytest.param([[1, 1, 1, 1, 1], [2, 3, 1, 3, 2], [3, 1, 2, 2, 3]], id="empty-sentence"),
            pytest.param([[3, 3, 3, 1, 3], [1, 3, 1, 1, 2], [2, 3, 3, 3, 1]], id="uneven"),
        ],
    )
    def test_dropout_training_matches_per_op_graph(self, depths):
        # one graph node per layer and per loss with hand-written backwards,
        # against the per-op graph: both draw the same dropout masks from
        # generators in the same state, pass after pass
        head = "mlm" if depths is None else "cls"
        cfg = small_config(d_model=12, d_ff=24, dropout=0.1)
        fused, per_op = (AdaptiveEncoder(cfg, head=head, seed=5) for _ in range(2))
        gen = np.random.default_rng(14)
        for name, p in fused.store.params.items():
            if p.data.ndim == 1:
                p.data[:] = (1.0 if "gamma" in name else 0.0) + gen.normal(0.0, 0.3, p.data.shape)
        per_op.store.load_arrays({k: v.copy() for k, v in fused.store.state_arrays().items()})
        ids = token_batch((3, 5), seed=28)
        batch_depths = None if depths is None else np.array(depths)
        masked, true_ids, gold = np.array([1, 7, 13]), np.array([4, 9, 5]), np.array([0, 1, 1])

        def fused_loss():
            if depths is None:
                return fused.mlm_anytime_loss_graph(ids, masked, true_ids, train=True)[0]
            layers, _ = fused.forward_graph(ids, batch_depths, train=True)
            return fused.classifier_loss_graph(layers[-1], gold)

        def per_op_loss():
            layers = per_op_graph_layers(per_op, ids, batch_depths, train=True)
            if depths is None:
                return per_op_mlm_loss(per_op, layers, masked, true_ids)
            return per_op_classifier_loss(per_op, layers[-1], gold)

        def run(enc, loss_fn):
            loss = loss_fn()
            enc.store.zero_grad()
            ad.backward(loss)
            return float(loss.data), {name: p.grad.copy() for name, p in enc.store.params.items()}

        for n in range(3):
            got_loss, got = run(fused, fused_loss)
            ref_loss, ref = run(per_op, per_op_loss)
            assert abs(got_loss - ref_loss) <= 1e-10, f"pass {n}"
            for name, g in ref.items():
                np.testing.assert_allclose(got[name], g, rtol=0, atol=1e-10, err_msg=f"pass {n}: {name}")
        # both sides drew the same numbers
        assert fused._dropout_rng.bit_generator.state == per_op._dropout_rng.bit_generator.state

    def test_stopped_rows_copied_exactly(self, perturbed):
        ids = token_batch((3, 5), seed=22)
        depths = np.array([[3, 3, 3, 1, 3], [1, 3, 1, 1, 2], [2, 3, 3, 3, 1]])
        layers, _ = perturbed.forward_graph(ids, depths)
        for b, t in np.argwhere(depths < 3):
            stop = depths[b, t]
            for n in range(stop, 3):
                assert np.array_equal(layers[n].data[b, t], layers[stop - 1].data[b, t])

    def test_ffn_rows_are_the_gathered_block(self, encoder, monkeypatch):
        # the graph-path counterpart of ffn_applications == sum of depths:
        # once a row has stopped, the FFN sees the b*m rows of the corner
        # (b sentences with an active row, m their largest active count)
        rows: list[tuple[int, int]] = []
        layer = encoder._layer_infer

        def recording(h, i, block, active, tape=None):
            out = layer(h, i, block, active, tape)
            rows.append((i, tape["hid"].size // tape["hid"].shape[-1]))
            return out

        monkeypatch.setattr(encoder, "_layer_infer", recording)
        ids = token_batch((3, 5), seed=23)
        depths = np.array([[3, 3, 3, 1, 3], [1, 3, 1, 1, 2], [2, 3, 3, 3, 1]])
        encoder.forward_graph(ids, depths, train=True)
        assert rows == [(0, 3 * 5), (1, 3 * 4), (2, 3 * 4)]
        rows.clear()
        encoder.forward_graph(ids, np.array([[1, 2, 1, 1, 1], [1, 1, 1, 1, 3], [1, 1, 1, 1, 1]]), train=True)
        assert rows == [(0, 3 * 5), (1, 2 * 1), (2, 1 * 1)]

    def test_both_paths_run_the_same_corner_blocks(self, encoder, monkeypatch):
        # one routing plan and one layer function: both paths' layer norms
        # see the (b_n, m_n) corner at every layer; only the graph path keeps
        # the normalized rows for its backward. Depths are unsorted across
        # sentences (the deepest is last) and within them; sentence 1 has no
        # active row after layer 1, sentence 0 none after layer 2.
        shapes = {"graph": [], "infer": []}
        layer_norm = enc_module._layer_norm_np

        def recording(x, gamma, beta, *saved):
            shapes["graph" if saved else "infer"].append(x.shape[:-1])
            return layer_norm(x, gamma, beta, *saved)

        monkeypatch.setattr(enc_module, "_layer_norm_np", recording)
        ids = token_batch((3, 6), seed=27)
        depths = np.array([[1, 2, 1, 2, 1, 2], [1, 1, 1, 1, 1, 1], [2, 3, 3, 1, 2, 1]])
        encoder.forward_graph(ids, depths, train=True)
        encoder.forward_infer(ids, depths)
        want = [(3, 6), (3, 6), (2, 4), (2, 4), (1, 2), (1, 2)]
        assert shapes == {"graph": want, "infer": want}


class TestLeanTape:
    """What a training step keeps: each layer node's tape holds boolean
    dropout masks and no product the backward can remake, and the backward
    empties it, so a finished step's graph holds only states and gradients."""

    @staticmethod
    def recorded_tapes(enc, monkeypatch):
        tapes: list[dict] = []
        layer = enc._layer_infer

        def recording(h, i, block, active, tape=None):
            tapes.append(tape)
            return layer(h, i, block, active, tape)

        monkeypatch.setattr(enc, "_layer_infer", recording)
        return tapes

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize(
        "depths",
        [
            pytest.param(None, id="full"),
            pytest.param([[3, 3, 3, 1, 3], [1, 3, 1, 1, 2], [2, 3, 3, 3, 1]], id="uneven"),
        ],
    )
    def test_tape_keeps_boolean_masks_and_is_emptied_by_the_backward(self, monkeypatch, precision, depths):
        enc = AdaptiveEncoder(small_config(dropout=0.1, precision=precision), head="cls", seed=3)
        tapes = self.recorded_tapes(enc, monkeypatch)
        layers, _ = enc.forward_graph(token_batch((3, 5), seed=31), depths, train=True)
        assert len(tapes) == 3
        for n, tape in enumerate(tapes):
            assert {mask.dtype for mask in tape["drop"][:3]} == {np.dtype(bool)}, f"layer {n}"
            assert "kept" not in tape and "ctx_rows" not in tape, f"layer {n}"
        enc.store.zero_grad()
        ad.backward(enc.classifier_loss_graph(layers[-1], np.array([0, 1, 1])))
        assert tapes == [{}, {}, {}]

    def test_second_step_peak_stays_near_the_first(self):
        # fit keeps the first step's loss, and with it that step's graph,
        # until the second step's loss is built; once the backward has
        # emptied the tapes that graph holds only states and gradients
        cfg = small_config(vocab_size=46, n_layers=6, d_model=32, n_heads=4, d_ff=64, dropout=0.1, max_len=32)
        enc = AdaptiveEncoder(replace(cfg, precision="f32"), head="mlm", seed=7)
        rng = np.random.default_rng(8)
        ids = rng.integers(4, 46, size=(8, 32))
        masked = rng.choice(ids.size, size=40, replace=False)
        true_ids = rng.integers(4, 46, size=masked.size)
        peaks: list[int] = []

        def record_peak(_step):
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()

        def batch_loss(_idx):
            return enc.mlm_anytime_loss_graph(ids, masked, true_ids, train=True)[0]

        tracemalloc.start()
        try:
            settings = FitSettings(steps=2, lr=1e-3, batch_size=8)
            fit(enc, batch_loss, [32] * 8, settings, np.random.default_rng(0), record_peak)
        finally:
            tracemalloc.stop()
        first, second = peaks
        assert second < 1.3 * first, f"{second / first:.2f}"


def project(node, proj):
    """``sum(node * proj)`` as a graph node, so ``backward`` hands ``proj``
    to ``node`` as its gradient."""
    return ad.op((node.data * proj).sum(), (node,), lambda g: (proj * g,))


def perturbed_twins(head, precision, dropout=0.1, **overrides):
    """Two encoders with the same non-trivial parameters and dropout
    generators in the same state."""
    cfg = small_config(d_model=12, d_ff=24, dropout=dropout, precision=precision, **overrides)
    a, b = (AdaptiveEncoder(cfg, head=head, seed=5) for _ in range(2))
    gen = np.random.default_rng(15)
    for name, p in a.store.params.items():
        p.data[:] += gen.normal(0.0, 0.3, p.data.shape)
    b.store.load_arrays({k: v.copy() for k, v in a.store.state_arrays().items()})
    return a, b


def assert_matches_finite_differences(loss_fn, pairs, eps=1e-6, tol=1e-6):
    """Central differences of ``loss_fn()`` against the analytic gradient,
    for every entry of every (array, gradient) pair; arrays are perturbed
    in place and restored."""
    for arr, grad in pairs:
        flat = arr.reshape(-1)
        fd = np.empty(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            fd[i] = (up - down) / (2 * eps)
        np.testing.assert_allclose(grad.reshape(-1), fd, rtol=tol, atol=tol)


def grads_of(enc):
    return {name: p.grad.copy() for name, p in enc.store.params.items()}


def assert_same_grads(got, want):
    for name, g in want.items():
        assert np.array_equal(got[name], g), name


class TestGraphNodes:
    """The embedding, the permutations and both task losses are one graph
    node each, with the inference code as forward and a hand-written VJP.
    Each must give the per-op chain it replaced (``reference_graph``) bit
    for bit, and its gradient must match finite differences."""

    # ids 5 and 9 repeat, so the embedding's VJP must add their rows
    IDS = np.array([[5, 9, 3, 5, 11], [9, 4, 5, 17, 9]])

    def test_embed_gradient_matches_finite_differences(self):
        # dropout on: every forward restarts the generator, so draws the same mask
        enc = AdaptiveEncoder(small_config(dropout=0.3), head="cls", seed=1)
        proj = np.random.default_rng(2).normal(size=(2, 5, 16))
        state = enc._dropout_rng.bit_generator.state

        def forward():
            enc._dropout_rng.bit_generator.state = state
            return enc.embed(self.IDS, train=True)

        enc.store.zero_grad()
        ad.backward(project(forward(), proj))
        table = enc.store["embed.tokens"]
        assert_matches_finite_differences(lambda: float((forward().data * proj).sum()), [(table.data, table.grad)])

    def test_classifier_loss_gradient_matches_finite_differences(self):
        enc = AdaptiveEncoder(small_config(n_labels=3), head="cls", seed=2)
        h = Tensor(np.random.default_rng(3).normal(size=(3, 5, 16)), requires_grad=True)
        gold = np.array([2, 0, 2])
        enc.store.zero_grad()
        ad.backward(enc.classifier_loss_graph(h, gold))
        w, b = enc.store["cls.w"], enc.store["cls.b"]
        assert_matches_finite_differences(
            lambda: float(enc.classifier_loss_graph(h, gold).data), [(h.data, h.grad), (w.data, w.grad), (b.data, b.grad)]
        )

    def test_mlm_loss_gradient_matches_finite_differences(self, monkeypatch):
        enc = AdaptiveEncoder(small_config(), head="mlm", seed=3)
        gen = np.random.default_rng(4)
        layers = [Tensor(gen.normal(size=(2, 5, 16)), requires_grad=True) for _ in range(3)]
        monkeypatch.setattr(enc, "forward_graph", lambda ids, depths, train: (layers, None))
        masked, true_ids = np.array([1, 3, 3, 8]), np.array([4, 9, 2, 19])  # position 3 twice

        def loss():
            return enc.mlm_anytime_loss_graph(self.IDS, masked, true_ids)[0]

        enc.store.zero_grad()
        ad.backward(loss())
        w, b = enc.store["mlm.w"], enc.store["mlm.b"]
        pairs = [(h.data, h.grad) for h in layers] + [(w.data, w.grad), (b.data, b.grad)]
        assert_matches_finite_differences(lambda: float(loss().data), pairs)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_embed_node_is_the_per_op_chain_bit_for_bit(self, precision):
        enc, ref = perturbed_twins("cls", precision)
        proj = np.random.default_rng(5).normal(size=(2, 5, 12)).astype(enc.config.dtype)
        for _ in range(2):
            got, want = enc.embed(self.IDS, train=True), per_op_embed(ref, self.IDS, train=True)
            assert np.array_equal(got.data, want.data)
            for e, node in ((enc, got), (ref, want)):
                e.store.zero_grad()
                ad.backward(project(node, proj))
            assert_same_grads(grads_of(enc), grads_of(ref))
        assert enc._dropout_rng.bit_generator.state == ref._dropout_rng.bit_generator.state

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_classifier_loss_node_is_the_per_op_chain_bit_for_bit(self, precision):
        enc, ref = perturbed_twins("cls", precision, n_labels=3)
        states = np.random.default_rng(6).normal(size=(3, 5, 12)).astype(enc.config.dtype)
        states[0, 3] = states[0, 1]  # tied maxima: the first takes the gradient
        gold = np.array([2, 0, 1])
        results = []
        for e, loss_fn in ((enc, enc.classifier_loss_graph), (ref, lambda h, g: per_op_classifier_loss(ref, h, g))):
            h = Tensor(states.copy(), requires_grad=True)
            loss = loss_fn(h, gold)
            e.store.zero_grad()
            ad.backward(loss)
            results.append((loss.data, h.grad, grads_of(e)))
        (got_loss, got_h, got), (want_loss, want_h, want) = results
        assert got_loss.dtype == want_loss.dtype and got_loss == want_loss
        assert np.array_equal(got_h, want_h)
        assert_same_grads(got, want)

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_mlm_loss_node_is_the_per_op_chain_bit_for_bit(self, precision, monkeypatch):
        enc, ref = perturbed_twins("mlm", precision)
        states = np.random.default_rng(7).normal(size=(3, 2, 5, 12)).astype(enc.config.dtype)
        masked, true_ids = np.array([0, 4, 6, 9]), np.array([4, 9, 2, 19])
        layers = [Tensor(x.copy(), requires_grad=True) for x in states]
        monkeypatch.setattr(enc, "forward_graph", lambda ids, depths, train: (layers, None))
        ref_layers = [Tensor(x.copy(), requires_grad=True) for x in states]
        got, _ = enc.mlm_anytime_loss_graph(self.IDS, masked, true_ids)
        want = per_op_mlm_loss(ref, ref_layers, masked, true_ids)
        assert got.data.dtype == want.data.dtype and got.data == want.data
        for e, loss in ((enc, got), (ref, want)):
            e.store.zero_grad()
            ad.backward(loss)
        for n, (a, b) in enumerate(zip(layers, ref_layers)):
            assert np.array_equal(a.grad, b.grad), f"layer {n + 1}"
        assert_same_grads(grads_of(enc), grads_of(ref))

    @pytest.mark.parametrize("precision", ["f32", "f64"])
    @pytest.mark.parametrize(
        "head, depths",
        [
            pytest.param("mlm", None, id="mlm"),
            pytest.param("cls", None, id="cls-fixed"),
            pytest.param("cls", [[3, 3, 3, 1, 3], [1, 3, 1, 1, 2], [2, 3, 3, 3, 1]], id="cls-adaptive"),
        ],
    )
    def test_training_step_is_the_per_op_graph_bit_for_bit(self, precision, head, depths, monkeypatch):
        # a whole step with dropout on, both sides on the encoder's layer
        # nodes: the new embedding, permutation and loss nodes against the
        # per-op chains. Loss, every layer state's gradient and every
        # parameter gradient agree bit for bit, pass after pass.
        enc, ref = perturbed_twins(head, precision)
        ids = token_batch((3, 5), seed=29)
        depths = None if depths is None else np.array(depths)
        masked, true_ids, gold = np.array([1, 7, 13]), np.array([4, 9, 5]), np.array([0, 1, 1])
        routed: list[Tensor] = []
        layer_node = enc._layer_node
        monkeypatch.setattr(enc, "_layer_node", lambda *args: routed.append(layer_node(*args)) or routed[-1])

        def step(e, loss):
            e.store.zero_grad()
            ad.backward(loss)
            return loss.data, grads_of(e)

        for n in range(2):
            routed.clear()
            if head == "mlm":
                got = step(enc, enc.mlm_anytime_loss_graph(ids, masked, true_ids, train=True)[0])
                layers, ref_routed = per_op_forward_graph(ref, ids, None, train=True)
                want = step(ref, per_op_mlm_loss(ref, layers, masked, true_ids))
            else:
                got = step(enc, enc.classifier_loss_graph(enc.forward_graph(ids, depths, train=True)[0][-1], gold))
                layers, ref_routed = per_op_forward_graph(ref, ids, depths, train=True)
                want = step(ref, per_op_classifier_loss(ref, layers[-1], gold))
            assert got[0] == want[0], f"pass {n}"
            assert len(routed) == len(ref_routed) == 3
            for i, (a, b) in enumerate(zip(routed, ref_routed)):
                assert np.array_equal(a.grad, b.grad), f"pass {n}: layer {i + 1}"
            assert_same_grads(got[1], want[1])
        assert enc._dropout_rng.bit_generator.state == ref._dropout_rng.bit_generator.state


def graph_nodes(loss) -> Counter:
    """The op nodes reachable from ``loss``, counted by the function whose
    VJP each carries; leaves (parameters, inputs) are not counted."""
    names: list[str] = []
    seen: set[int] = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen or not node._parents:
            continue
        seen.add(id(node))
        names.append(node._vjp.__qualname__.split(".<locals>")[0])
        stack.extend(node._parents)
    return Counter(names)


class TestGraphSize:
    """One training step's graph: the embedding, one node per layer and the
    loss; adaptive classifier training adds the two permutations the loss
    reaches. Once the backward has run, no node's tape holds anything."""

    @pytest.fixture
    def losses(self, monkeypatch):
        seen: list = []
        backward = ad.backward

        def recording(loss):
            backward(loss)
            seen.append(loss)

        monkeypatch.setattr(ad, "backward", recording)
        return seen

    @staticmethod
    def assert_tapes_released(loss):
        stack, seen = [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen or not node._parents:
                continue
            seen.add(id(node))
            cells = [c.cell_contents for c in node._vjp.__closure__ or ()]
            assert all(c == {} for c in cells if isinstance(c, dict)), node._vjp.__qualname__
            stack.extend(node._parents)

    @pytest.mark.parametrize("task", ["mlm", "cls", "cls-adaptive"])
    def test_one_step_holds_a_node_per_part(self, synth_train, losses, task):
        cfg = EncoderConfig(
            vocab_size=len(synth_train.vocab), n_labels=synth_train.n_labels, n_layers=3,
            d_model=16, n_heads=2, d_ff=32, dropout=0.1, max_len=32,
        )
        settings = FitSettings(steps=1, lr=1e-3, batch_size=4)
        if task == "mlm":
            recon.train_mlm(synth_train, cfg, settings)
        else:
            maps = None
            if task == "cls-adaptive":
                gen = np.random.default_rng(0)
                maps = [gen.integers(1, 4, size=len(d.tokens)) for d in synth_train.documents]
            train_classifier(synth_train, cfg, settings, depth_maps=maps)
        (loss,) = losses
        head = "mlm_anytime_loss_graph" if task == "mlm" else "classifier_loss_graph"
        want = {"AdaptiveEncoder.embed": 1, "AdaptiveEncoder._layer_node": 3, f"AdaptiveEncoder.{head}": 1}
        if task == "cls-adaptive":
            want["_permute"] = 2
        assert graph_nodes(loss) == want
        assert sum(want.values()) == cfg.n_layers + (4 if task == "cls-adaptive" else 2)
        self.assert_tapes_released(loss)


class TestClassify:
    def test_zero_states_give_uniform_distribution(self, encoder):
        probs = encoder.classify_infer(np.zeros((2, 4, 16)))
        np.testing.assert_allclose(probs, 0.5, atol=1e-12)

    def test_equal_logits_split_evenly(self, encoder):
        encoder.store["cls.w"].data[:] = 0.0
        encoder.store["cls.b"].data[:] = 2.0
        h, _ = encoder.forward_infer(token_batch((1, 4)))
        np.testing.assert_allclose(encoder.classify_infer(h), 0.5, atol=1e-12)

    def test_valid_distribution(self, encoder):
        h, _ = encoder.forward_infer(token_batch((3, 6)))
        probs = encoder.classify_infer(h)
        np.testing.assert_allclose(probs.sum(-1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_pooling_is_position_invariant(self, encoder):
        h, _ = encoder.forward_infer(token_batch((1, 6)))
        perm = np.random.default_rng(1).permutation(6)
        np.testing.assert_allclose(
            encoder.classify_infer(h), encoder.classify_infer(h[:, perm]), atol=1e-12
        )

    def test_graph_classify_matches_inference(self, encoder):
        # the classifier-loss node's forward is classify_infer, bit for bit
        ids = token_batch((2, 5))
        gold = np.array([1, 0])
        layers, _ = encoder.forward_graph(ids, None, train=False)
        h, _ = encoder.forward_infer(ids)
        probs = encoder.classify_infer(h)
        want = (-np.log(probs[[0, 1], gold])).mean()
        assert encoder.classifier_loss_graph(layers[-1], gold).data == want


class TestTaskLoss:
    """``classifier_loss_graph`` on final states whose label probabilities
    the head makes known: a zero head gives softmax(bias) to every sentence,
    and ``w0`` is the head's row for the first feature, the max over time
    of state dimension 0."""

    @staticmethod
    def loss(enc, gold, bias, states=None, w0=0.0):
        enc.store["cls.w"].data[:] = 0.0
        enc.store["cls.w"].data[0] = w0
        enc.store["cls.b"].data[:] = bias
        h = np.zeros((len(gold), 3, enc.config.d_model)) if states is None else states
        return float(enc.classifier_loss_graph(Tensor(h), np.array(gold)).data)

    def test_perfect_prediction_costs_nothing(self, encoder):
        # exp(-1000) underflows, so the gold label's probability is exactly 1
        assert self.loss(encoder, [0], [0.0, -1000.0]) == 0.0

    def test_uniform_over_four_labels(self):
        enc = AdaptiveEncoder(small_config(n_labels=4), head="cls", seed=0)
        assert self.loss(enc, [2], 0.0) == pytest.approx(np.log(4))

    def test_direct_value(self, encoder):
        assert self.loss(encoder, [1], np.log([0.9, 0.1])) == pytest.approx(2.302585092994046, abs=1e-12)

    def test_gold_out_of_range_rejected(self, encoder):
        with pytest.raises(ValueError, match="out of range"):
            self.loss(encoder, [2], 0.0)

    def test_batch_mean(self, encoder):
        # sentence 0 gets [0.5, 0.5]; sentence 1's first feature is 1, which
        # the head turns into [0.25, 0.75]
        states = np.zeros((2, 3, 16))
        states[1, :, 0] = 1.0
        loss = self.loss(encoder, [0, 1], 0.0, states, w0=[0.0, np.log(3.0)])
        assert loss == pytest.approx((np.log(2) - np.log(0.75)) / 2)


class TestMlmLoss:
    @pytest.fixture
    def mlm(self):
        return AdaptiveEncoder(small_config(vocab_size=50), head="mlm", seed=7)

    def test_untrained_loss_near_log_vocab(self, mlm):
        ids = token_batch((2, 6), vocab=50)
        loss, per_layer = mlm.mlm_anytime_loss_graph(ids, np.array([1, 8]), np.array([4, 9]))
        expected = 3 * np.log(50)  # n_layers * ln V
        assert abs(float(loss.data) / expected - 1) < 0.25
        assert np.all(np.abs(per_layer / np.log(50) - 1) < 0.4)

    def test_single_position_total_is_layer_sum(self, mlm):
        ids = token_batch((1, 5), vocab=50)
        loss, per_layer = mlm.mlm_anytime_loss_graph(ids, np.array([2]), np.array([7]))
        assert float(loss.data) == pytest.approx(per_layer.sum(), rel=1e-9)

    def test_loss_strictly_positive(self, mlm):
        ids = token_batch((2, 4), vocab=50)
        loss, per_layer = mlm.mlm_anytime_loss_graph(ids, np.array([0, 5]), np.array([3, 3]))
        assert float(loss.data) > 0
        assert np.all(per_layer > 0)

    def test_no_masked_positions_rejected(self, mlm):
        with pytest.raises(ValueError, match="masked position"):
            mlm.mlm_anytime_loss_graph(token_batch((1, 4), vocab=50), np.array([]), np.array([]))

    def test_averaged_over_masked_positions(self, mlm):
        # duplicating the batch and its masks must not change the loss
        ids = token_batch((1, 6), vocab=50)
        loss1, _ = mlm.mlm_anytime_loss_graph(ids, np.array([1, 3]), np.array([5, 6]))
        twice = np.concatenate([ids, ids])
        loss2, _ = mlm.mlm_anytime_loss_graph(twice, np.array([1, 3, 7, 9]), np.array([5, 6, 5, 6]))
        assert float(loss1.data) == pytest.approx(float(loss2.data), rel=1e-9)


class TestGradientsThroughCopy:
    def test_finite_difference_on_mixed_depths(self):
        cfg = small_config(n_layers=2, d_model=8, d_ff=16, vocab_size=16)
        enc = AdaptiveEncoder(cfg, head="cls", seed=3)
        ids = token_batch((2, 5), vocab=16, seed=7)
        depths = np.array([[1, 2, 1, 2, 1], [2, 1, 2, 1, 2]])
        gold = np.array([0, 1])

        def loss_fn():
            layers, _ = enc.forward_graph(ids, depths, train=False)
            return enc.classifier_loss_graph(layers[-1], gold)

        enc.store.zero_grad()
        ad.backward(loss_fn())
        eps, worst = 1e-4, 0.0
        sampler = np.random.default_rng(0)
        for p in enc.store.params.values():
            flat = p.data.ravel()
            for i in sampler.choice(flat.size, min(6, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = float(loss_fn().data)
                flat[i] = orig - eps
                down = float(loss_fn().data)
                flat[i] = orig
                fd = (up - down) / (2 * eps)
                a = p.grad.ravel()[i]
                worst = max(worst, abs(a - fd) / max(abs(a), abs(fd), 1e-3))
        assert worst < 1e-4

    def test_layers_beyond_every_stop_point_get_zero_gradient(self):
        # with every token stopped after layer 1 the loop never reaches
        # layer 2, so its parameters keep the zeros from zero_grad
        cfg = small_config(n_layers=2, d_model=8, d_ff=16, vocab_size=16)
        enc = AdaptiveEncoder(cfg, head="cls", seed=3)
        ids = token_batch((1, 3), vocab=16, seed=1)
        all_one = np.array([[1, 1, 1]])
        layers, _ = enc.forward_graph(ids, all_one, train=False)
        loss = enc.classifier_loss_graph(layers[-1], np.array([0]))
        enc.store.zero_grad()
        ad.backward(loss)
        for name, p in enc.store.params.items():
            if name.startswith("layer1."):
                assert np.all(p.grad == 0), name
            elif name.startswith("layer0."):
                assert np.any(p.grad != 0), name


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path, encoder):
        ids = token_batch((2, 5))
        before, _ = encoder.forward_infer(ids)
        path = tmp_path / "enc.ckpt"
        encoder.save(path, extra_meta={"labels": "neg,pos"})
        loaded, meta = AdaptiveEncoder.load(path)
        after, _ = loaded.forward_infer(ids)
        assert np.array_equal(before, after)
        assert meta["labels"] == "neg,pos"
        assert loaded.config == encoder.config
