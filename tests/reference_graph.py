"""The autodiff graph built from one small node per operation, as the
package built it before each part of the model became one hand-written
node: the operations, each with its own vector-Jacobian product, and the
graphs the tests compare the encoder against.

The per-operation chains of the embedding, the permutations and both task
losses are the ones the encoder's nodes replaced; each node must give the
same values and gradients bit for bit.
"""

import math

import numpy as np

from depthformer.autodiff import Tensor, op
from depthformer.encoder import _route, apply_dropout, dropout_mask, dropout_scale


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}") from exc

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return op(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}") from exc

    def vjp(g):
        return _unbroadcast(g * b.data, a.data.shape), _unbroadcast(g * a.data, b.data.shape)

    return op(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    return op(a.data * s, (a,), lambda g: (g * s,))


def neg(a: Tensor) -> Tensor:
    return op(-a.data, (a,), lambda g: (-g,))


def log(a: Tensor) -> Tensor:
    return op(np.log(a.data), (a,), lambda g: (g / a.data,))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return op(np.where(mask, a.data, 0.0), (a,), vjp)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    return op(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),))


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = tuple(int(i) for i in np.argsort(axes))
    return op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return op(out, tuple(tensors), vjp)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} vs {b.data.shape}") from exc

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return op(out, (a, b), vjp)


# ---------------------------------------------------------------------------
# normalization and activations


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - inner),)

    return op(s, (a,), vjp)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def vjp(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return op(out, (a,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = xhat * gamma.data + beta.data
    d = x.data.shape[-1]

    def vjp(g):
        g_gamma = _unbroadcast(g * xhat, gamma.data.shape)
        g_beta = _unbroadcast(g, beta.data.shape)
        gx_hat = g * gamma.data
        gx = inv * (
            gx_hat
            - gx_hat.mean(axis=-1, keepdims=True)
            - xhat * (gx_hat * xhat).sum(axis=-1, keepdims=True) / d
        )
        return gx, g_gamma, g_beta

    return op(out, (x, gamma, beta), vjp)


# ---------------------------------------------------------------------------
# lookup / gather


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError(
            f"token id out of range: ids span [{ids.min()}, {ids.max()}] "
            f"but the table has {table.data.shape[0]} rows"
        )
    out = table.data[ids]

    def vjp(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return op(out, (table,), vjp)


def take_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather rows along axis 0."""
    idx = np.asarray(idx, dtype=np.int64)
    out = x.data[idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, idx, g)
        return (gx,)

    return op(out, (x,), vjp)


def pick(x: Tensor, idx: np.ndarray) -> Tensor:
    """Row-wise selection from a 2-D tensor: out[i] = x[i, idx[i]]."""
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(x.data.shape[0])
    out = x.data[rows, idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[rows, idx] = g
        return (gx,)

    return op(out, (x,), vjp)


# ---------------------------------------------------------------------------
# pooling and reductions


def mean_pool(x: Tensor, axis: int) -> Tensor:
    n = x.data.shape[axis]

    def vjp(g):
        return (np.repeat(np.expand_dims(g / n, axis), n, axis=axis),)

    return op(x.data.mean(axis=axis), (x,), vjp)


def max_pool(x: Tensor, axis: int) -> Tensor:
    am = np.argmax(x.data, axis=axis)
    out = np.take_along_axis(x.data, np.expand_dims(am, axis), axis=axis).squeeze(axis)

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(am, axis), np.expand_dims(g, axis), axis=axis)
        return (gx,)

    return op(out, (x,), vjp)


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size

    def vjp(g):
        return (np.full_like(x.data, float(g) / n),)

    return op(x.data.mean(), (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    def vjp(g):
        return (np.full_like(x.data, float(g)),)

    return op(x.data.sum(), (x,), vjp)


def dropout(x: Tensor, rate: float, rng: np.random.Generator, train: bool, key_major: bool = False) -> Tensor:
    """Inverted dropout; identity at eval time or rate 0. With ``key_major``
    the mask of (b, H, m, T) attention probabilities is drawn as
    (b, H, T, m), as the encoder draws it, and transposed."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if key_major:
        b, heads, m, time = x.data.shape
        keep = dropout_mask((b, heads, time, m), rate, rng).transpose(0, 1, 3, 2)
    else:
        keep = dropout_mask(x.data.shape, rate, rng)
    scale = dropout_scale(x.data.dtype, rate)

    def vjp(g):
        return (apply_dropout(g, keep, scale),)

    return op(apply_dropout(x.data, keep, scale), (x,), vjp)


def reference_graph_layers(enc, ids, depths):
    """The graph path before it gathered active rows: every layer runs on
    every row, then a 0/1 mask puts the stopped rows' old states back."""
    cfg, p = enc.config, enc.store
    batch, time = ids.shape

    def linear(x, i, w, b):
        return add(matmul(x, p[f"layer{i}.{w}"]), p[f"layer{i}.{b}"])

    def heads(x):
        return transpose(reshape(x, (batch, time, cfg.n_heads, cfg.d_head)), (0, 2, 1, 3))

    h = per_op_embed(enc, ids)
    layers = []
    for i in range(int(depths.max())):
        q, k, v = (heads(linear(h, i, f"attn.w{c}", f"attn.b{c}")) for c in "qkv")
        scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(cfg.d_head))
        ctx = matmul(softmax(scores, -1), v)
        ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (batch, time, cfg.d_model))
        hr = add(h, linear(ctx, i, "attn.wo", "attn.bo"))
        hr = layer_norm(hr, p[f"layer{i}.ln1.gamma"], p[f"layer{i}.ln1.beta"])
        ff = linear(relu(linear(hr, i, "ffn.w1", "ffn.b1")), i, "ffn.w2", "ffn.b2")
        new = layer_norm(add(hr, ff), p[f"layer{i}.ln2.gamma"], p[f"layer{i}.ln2.beta"])
        keep = (depths > i)[..., None].astype(np.float64)
        h = add(mul(new, Tensor(keep)), mul(h, Tensor(1.0 - keep)))
        layers.append(h)
    return layers


def _corner(x, b, m):
    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:b, :m] = g
        return (gx,)

    return op(x.data[:b, :m], (x,), vjp)


def _put_corner(old, new, where):
    b, m = new.data.shape[:2]
    keep = True if where is None else where[..., None]
    out = old.data.copy()
    np.copyto(out[:b, :m], new.data, where=keep)

    def vjp(g):
        g_old = g.copy()
        g_new = np.zeros_like(new.data)
        np.copyto(g_new, g[:b, :m], where=keep)
        np.copyto(g_old[:b, :m], 0.0, where=keep)
        return g_old, g_new

    return op(out, (old, new), vjp)


def per_op_graph_layers(enc, ids, depths, train):
    """The graph path as it was built from about 40 small autodiff ops per
    layer, query-major, on the routing plan of ``encoder._route``; dropout
    masks are drawn in forward order from the encoder's generator: the
    embedding, then per layer the attention probabilities (key-major), the
    attention output and the FFN output."""
    cfg = enc.config
    rate, rng = cfg.dropout, enc._dropout_rng
    ids, depths = enc._check_inputs(ids, depths)
    order, inverse, plan, _ = _route(depths)
    h = per_op_embed(enc, ids, train)
    shape, flat = h.shape, (ids.size, cfg.d_model)

    def heads(x, rows, cols):
        return transpose(reshape(x, (rows, cols, cfg.n_heads, cfg.d_head)), (0, 2, 1, 3))

    if order is not None:
        h = reshape(take_rows(reshape(h, flat), order), shape)
    layers = []
    for i, ((b, m), active) in enumerate(plan):
        batch, time, d = h.shape
        wq, bq, wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = enc._layer_tensors[i]
        k = add(matmul(h, wk), bk)
        v = add(matmul(h, wv), bv)
        hq = h if (b, m) == (batch, time) else _corner(h, b, m)
        if b < batch:
            k, v = _corner(k, b, time), _corner(v, b, time)
        q = add(matmul(hq, wq), bq)
        qh, kh, vh = heads(q, b, m), heads(k, b, time), heads(v, b, time)
        scores = scale(matmul(qh, transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(cfg.d_head))
        probs = dropout(softmax(scores, -1), rate, rng, train, key_major=True)
        ctx = reshape(transpose(matmul(probs, vh), (0, 2, 1, 3)), (b, m, d))
        attn = add(matmul(ctx, wo), bo)
        hr = layer_norm(add(hq, dropout(attn, rate, rng, train)), ln1_g, ln1_b)
        ff = add(matmul(relu(add(matmul(hr, w1), b1)), w2), b2)
        out = layer_norm(add(hr, dropout(ff, rate, rng, train)), ln2_g, ln2_b)
        h = out if hq is h and active is None else _put_corner(h, out, active)
        layers.append(h)
    if order is not None:
        layers = [reshape(take_rows(reshape(x, flat), inverse), shape) for x in layers]
    return layers


def per_op_embed(enc, ids, train=False):
    """The embedding chain: token lookup, scale by √d, add the positional
    code, dropout."""
    ids, _ = enc._check_inputs(ids, None)
    e = scale(embedding(enc.store["embed.tokens"], ids), math.sqrt(enc.config.d_model))
    return dropout(add(e, Tensor(enc._pe[: ids.shape[1]])), enc.config.dropout, enc._dropout_rng, train)


def per_op_forward_graph(enc, ids, depths=None, train=False):
    """``forward_graph`` on the encoder's own layer nodes, with the
    embedding chain and each permutation as reshape, ``take_rows``, reshape.
    Returns the layers in input order and the routed layer nodes."""
    ids, depths = enc._check_inputs(ids, depths)
    order, inverse, plan, _ = _route(depths)
    h = per_op_embed(enc, ids, train)
    shape, flat = h.shape, (ids.size, enc.config.d_model)
    if order is not None:
        h = reshape(take_rows(reshape(h, flat), order), shape)
    routed = []
    for i, (block, active) in enumerate(plan):
        h = enc._layer_node(h, i, block, active, train)
        routed.append(h)
    if order is None:
        return routed, routed
    return [reshape(take_rows(reshape(x, flat), inverse), shape) for x in routed], routed


def per_op_classifier_loss(enc, h_last, gold):
    """The classifier chain: max and mean pool, concat, ReLU, the head,
    softmax, then the mean negative log-probability of the gold labels."""
    feats = relu(concat([max_pool(h_last, 1), mean_pool(h_last, 1)], axis=-1))
    probs = softmax(add(matmul(feats, enc.store["cls.w"]), enc.store["cls.b"]), -1)
    return mean_all(neg(log(pick(probs, gold))))


def per_op_mlm_loss(enc, layers, masked_flat_idx, true_ids):
    """The anytime MLM chain: per layer, the masked rows, the head,
    log-softmax and the summed NLL of the true ids; the layer sums added in
    order, then scaled by 1/n_masked."""
    total = None
    for h in layers:
        rows = take_rows(reshape(h, (-1, enc.config.d_model)), masked_flat_idx)
        logits = add(matmul(rows, enc.store["mlm.w"]), enc.store["mlm.b"])
        layer_sum = sum_all(neg(pick(log_softmax(logits, -1), true_ids)))
        total = layer_sum if total is None else add(total, layer_sum)
    return scale(total, 1.0 / len(masked_flat_idx))
