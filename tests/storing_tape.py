"""The layer node as it was when its tape stored every intermediate its
backward reads: Q, K and V, the exponentiated scores, the context, the first
norm's output, the FFN's ReLU output and the boolean dropout masks, beside
the scores' key sums and the normalized rows. The encoder's own node keeps
only the key sums, the softmax's per-query maximum, the normalized rows and
the bit-packed masks, and remakes the rest in its backward: Q, K and V, the
exponentiated scores from that maximum, the context, the first norm's output
and the ReLU output. The two must give the same states and gradients bit
for bit.
"""

import math

import numpy as np

from depthformer import autodiff as ad
from depthformer.encoder import (
    _heads_to_rows,
    _layer_mask_shapes,
    _layer_norm_backward,
    _layer_norm_np,
    _weight_grad,
    apply_dropout,
    dropout_mask,
    dropout_scale,
)


def storing_layer_node(enc, h, i, block, active, train):
    """``enc._layer_node`` with the storing tape: the same masks, drawn in
    the same order, and the same forward, keeping what it made."""
    cfg = enc.config
    drop = None
    if train and cfg.dropout > 0.0:
        shapes = _layer_mask_shapes(*block, cfg.n_heads, h.shape[1], cfg.d_model)
        masks = (dropout_mask(s, cfg.dropout, enc._dropout_rng) for s in shapes)
        drop = (*masks, dropout_scale(cfg.dtype, cfg.dropout))
    tape = {"drop": drop, "ln": []}
    out = _storing_layer(enc, h.data, i, block, active, tape)
    return ad.op(out, (h, *enc._layer_tensors[i]), lambda g: _storing_backward(h.data, block, active, tape, g))


def _storing_layer(enc, h, i, block, active, tape):
    cfg = enc.config
    batch, time, _ = h.shape
    b, m = block
    heads, d_head = cfg.n_heads, cfg.d_head
    weights = enc._layer_weights[i]
    wq, bq, wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = weights
    drop = tape["drop"]
    k = h @ wk
    k += bk
    v = h @ wv
    v += bv
    hq = h[:b, :m]
    q = hq @ wq
    q += bq
    q *= 1.0 / math.sqrt(d_head)
    qh = q.reshape(b, m, heads, d_head).transpose(0, 2, 3, 1)
    kh = k[:b].reshape(b, time, heads, d_head).transpose(0, 2, 1, 3)
    vh = v[:b].reshape(b, time, heads, d_head).transpose(0, 2, 3, 1)
    scores = np.matmul(kh, qh)
    scores -= np.maximum.reduce(scores, axis=-2, keepdims=True)
    np.exp(scores, out=scores)
    ctx = np.matmul(vh, scores if drop is None else apply_dropout(scores, drop[0], drop[3]))
    key_sums = np.add.reduce(scores, axis=-2, keepdims=True)
    ctx /= key_sums
    attn = _heads_to_rows(ctx) @ wo
    attn += bo
    if drop is not None:
        attn *= drop[1]
        attn *= drop[3]
    attn += hq
    hr = _layer_norm_np(attn, ln1_g, ln1_b, tape["ln"])
    hid = hr @ w1
    hid += b1
    np.maximum(hid, 0, out=hid)
    out = hid @ w2
    out += b2
    if drop is not None:
        out *= drop[2]
        out *= drop[3]
    out += hr
    _layer_norm_np(out, ln2_g, ln2_b, tape["ln"])
    tape.update(w=weights, qh=qh, kh=kh, vh=vh, scores=scores, key_sums=key_sums, ctx=ctx, hr=hr, hid=hid)
    if active is None and (b, m) == (batch, time):
        return out
    new = h.copy()
    np.copyto(new[:b, :m], out, where=True if active is None else active[..., None])
    return new


def _storing_backward(h, block, active, tape, g):
    wq, bq, wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = tape["w"]
    qh, kh, vh, ctx, hr, hid = tape["qh"], tape["kh"], tape["vh"], tape["ctx"], tape["hr"], tape["hid"]
    scores, key_sums = tape["scores"], tape["key_sums"]
    xhat1, std1, xhat2, std2 = tape["ln"]
    drop = tape["drop"]
    tape.clear()
    batch, time, d = h.shape
    b, m = block
    _, heads, d_head, _ = qh.shape

    g_out = g[:b, :m] if active is None else g[:b, :m] * active[..., None]
    g_ln2_g, g_ln2_b, g_hr = _layer_norm_backward(g_out, ln2_g, xhat2, std2)
    g_ff = g_hr if drop is None else apply_dropout(g_hr, drop[2], drop[3])
    g_w2, g_b2 = _weight_grad(hid, g_ff), g_ff.sum(axis=(0, 1))
    g_hid = g_ff @ w2.T
    g_hid *= hid > 0
    g_w1, g_b1 = _weight_grad(hr, g_hid), g_hid.sum(axis=(0, 1))
    g_hr += g_hid @ w1.T
    g_ln1_g, g_ln1_b, g_hq = _layer_norm_backward(g_hr, ln1_g, xhat1, std1)
    g_attn = g_hq if drop is None else apply_dropout(g_hq, drop[1], drop[3])
    g_wo, g_bo = _weight_grad(_heads_to_rows(ctx), g_attn), g_attn.sum(axis=(0, 1))
    g_ctx = (g_attn @ wo.T).reshape(b, m, heads, d_head).transpose(0, 2, 3, 1)

    inner = (g_ctx * ctx).sum(axis=-2, keepdims=True)
    inner /= key_sums
    g_ctx = g_ctx / key_sums
    g_q, g_k, g_v = (np.empty((b, rows, heads, d_head), dtype=h.dtype) for rows in (m, time, time))
    kept = scores if drop is None else apply_dropout(scores, drop[0], drop[3])
    np.matmul(g_ctx, kept.transpose(0, 1, 3, 2), out=g_v.transpose(0, 2, 3, 1))
    del kept
    g_scores = np.matmul(vh.transpose(0, 1, 3, 2), g_ctx)
    if drop is not None:
        g_scores *= drop[0]
        g_scores *= drop[3]
    g_scores -= inner
    g_scores *= scores
    np.matmul(g_scores, qh.transpose(0, 1, 3, 2), out=g_k.transpose(0, 2, 1, 3))
    np.matmul(kh.transpose(0, 1, 3, 2), g_scores, out=g_q.transpose(0, 2, 3, 1))

    hq, hk = h[:b, :m], h[:b]
    g_q, g_k, g_v = g_q.reshape(b, m, d), g_k.reshape(b, time, d), g_v.reshape(b, time, d)
    g_q *= 1.0 / math.sqrt(d_head)
    g_wq, g_bq = _weight_grad(hq, g_q), g_q.sum(axis=(0, 1))
    g_wk, g_bk = _weight_grad(hk, g_k), g_k.sum(axis=(0, 1))
    g_wv, g_bv = _weight_grad(hk, g_v), g_v.sum(axis=(0, 1))
    g_hq += g_q @ wq.T
    g_kv = g_k @ wk.T
    g_kv += g_v @ wv.T
    if active is None and (b, m) == (batch, time):
        g_h = g_hq
        g_h += g_kv
    else:
        g_h = g.copy()
        np.copyto(g_h[:b, :m], g_hq, where=True if active is None else active[..., None])
        g_h[:b] += g_kv
    return (
        g_h, g_wq, g_bq, g_wk, g_bk, g_wv, g_bv, g_wo, g_bo,
        g_ln1_g, g_ln1_b, g_w1, g_b1, g_w2, g_b2, g_ln2_g, g_ln2_b,
    )
