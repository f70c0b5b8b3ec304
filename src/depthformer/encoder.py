"""Transformer encoder with per-token depth-adaptive execution.

Every token carries a precomputed depth. At layer ``n`` only tokens whose
depth is at least ``n`` are transformed; the rest copy their state upward
unchanged but keep supplying keys and values, so active tokens always
attend over the full sentence. The layer loop stops at the largest depth
present in the batch.

The layer math is written once, in the plain-numpy kernel ``_layer_infer``.
Both paths run on one routing plan, made once per batch by ``_route``: each
layer's active rows lie in one leading corner of the depth-sorted batch,
on which everything but the keys and values runs as a single block.
Inference calls the kernel directly; the speed benchmarks measure that
path. Training wraps each call in one graph node, with the layer's dropout
masks and a tape that its hand-written backward, ``_layer_backward``,
reads, so gradients flow through the copy routing. The tape keeps only
small statistics: the softmax's per-query maximum and key sums, the layer
norms' normalized rows and standard deviations, and the bit-packed masks;
nothing on it is attention-sized or FFN-sized. The backward remakes Q, K,
V, the exponentiated scores, the context, the first norm's output and the
FFN's ReLU output with the forward's own operations, bit for bit. The
dropout keep-masks are drawn, applied and packed here too.

The rest of the model is written once too. The embedding, the permutation
into routed order and back, the classifier loss and the anytime MLM loss
are one graph node each, whose forward is the inference code
(``embed_infer``, a row gather, ``classify_infer``, ``masked_nll_infer``)
and whose VJP is written beside it. A training step's graph is those
nodes and the layer nodes, with one gather out, of the top layer only,
when depths differ. Each VJP's closure holds what it reads, and
``autodiff.backward`` drops it once the VJP has run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, meta_value, meta_where, save_checkpoint
from .optim import ParamStore

HEAD_CLASSIFIER = "cls"
HEAD_MLM = "mlm"

_PRECISIONS = {"f32": np.float32, "f64": np.float64}

_LAYER_PARAMS = (
    "attn.wq", "attn.bq", "attn.wk", "attn.bk", "attn.wv", "attn.bv", "attn.wo", "attn.bo",
    "ln1.gamma", "ln1.beta", "ffn.w1", "ffn.b1", "ffn.w2", "ffn.b2", "ln2.gamma", "ln2.beta",
)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    n_labels: int
    n_layers: int = 12
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    dropout: float = 0.1
    max_len: int = 512
    precision: str = "f32"

    def __post_init__(self) -> None:
        for name in ("vocab_size", "n_layers", "d_model", "n_heads", "d_ff", "max_len", "n_labels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:  # also rejects NaN
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(_PRECISIONS)}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_PRECISIONS[self.precision])

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_meta(self) -> dict[str, str]:
        return {f.name: str(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "EncoderConfig":
        """The config of a checkpoint's metadata; a value that does not parse
        or that the config rejects fails naming the file of a ``Meta``."""
        parse = {"int": int, "float": float, "str": str}  # field annotations, as strings
        values = {f.name: meta_value(meta, f.name, parse[f.type]) for f in fields(cls)}
        try:
            return cls(**values)
        except ValueError as exc:
            raise ValueError(f"{meta_where(meta)}{exc}") from None


@dataclass
class LayerCounts:
    """Exact work counters (never estimated) for one forward pass or, after
    ``merge``, for many, plus the wall clock of the timed ones."""

    ffn_applications: int = 0  # positions that ran the full layer
    kv_projections: int = 0  # positions that computed keys/values: Σ n_max·B·T
    n_max: int = 0  # deepest layer actually executed
    n_tokens: int = 0  # B·T positions fed in
    wall_ns: list[int] = field(default_factory=list)  # one per timed batch or pass

    def merge(self, other: "LayerCounts") -> None:
        self.ffn_applications += other.ffn_applications
        self.kv_projections += other.kv_projections
        self.n_max = max(self.n_max, other.n_max)
        self.n_tokens += other.n_tokens
        self.wall_ns.extend(other.wall_ns)


def sinusoidal_encoding(max_len: int, d_model: int, dtype) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    dim = np.arange(d_model, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * (dim // 2) / d_model)
    pe = np.zeros((max_len, d_model), dtype=np.float64)
    pe[:, 0::2] = np.sin(angle[:, 0::2])
    pe[:, 1::2] = np.cos(angle[:, 1::2])
    return pe.astype(dtype)


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax written into ``x``, which the caller must own; returns ``x``."""
    x -= x.max(axis=axis, keepdims=True)
    np.exp(x, out=x)
    x /= x.sum(axis=axis, keepdims=True)
    return x


def _log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def anytime_loss(layer_sums: list, n_masked: int):
    """The anytime MLM loss from each layer's summed masked NLL: the sums
    added in layer order in the states' dtype, then times ``1/n_masked``."""
    return sum(layer_sums) * (1.0 / n_masked)


def _route(depths: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None, list, LayerCounts]:
    """The routing of one batch, planned from its depths before any layer runs.

    Unless every depth is equal, sentences are sorted by their deepest token
    and each sentence's tokens by depth, deepest first (both stable), so at
    layer n every active row lies in a leading (b_n, m_n) corner: b_n
    sentences still have an active row and m_n is the largest active count
    among them. Returns the flat gather of the B·T positions into that
    order and the one back (both None when nothing is sorted), each layer's
    ((b_n, m_n), corner mask), the mask None when the whole corner is
    active, and the exact counts: keys and values come from every row.
    """
    batch, time = depths.shape
    n_max = int(depths.max())
    counts = LayerCounts(
        ffn_applications=int(depths.sum()), kv_projections=n_max * depths.size, n_max=n_max, n_tokens=depths.size
    )
    if int(depths.min()) == n_max:
        return None, None, [((batch, time), None)] * n_max, counts
    rows = np.argsort(-depths.max(axis=1), kind="stable")
    cols = np.argsort(-depths[rows], axis=1, kind="stable")
    order = (rows[:, None] * time + cols).ravel()
    depths = depths.reshape(-1)[order].reshape(batch, time)
    n_active = np.count_nonzero(depths >= np.arange(1, n_max + 1)[:, None, None], axis=2)
    b_n = np.count_nonzero(n_active, axis=1)
    m_n = n_active.max(axis=1)
    masked = n_active.sum(axis=1) < b_n * m_n
    plan = [
        ((b, m), depths[:b, :m] >= n if mask else None)
        for n, b, m, mask in zip(range(1, n_max + 1), b_n.tolist(), m_n.tolist(), masked.tolist())
    ]
    return order, np.argsort(order), plan, counts


def _permute(x: Tensor, order: np.ndarray, inverse: np.ndarray) -> Tensor:
    """The (batch, time) rows of ``x`` gathered by the flat permutation
    ``order``, as one graph node; its VJP gathers back by ``inverse``."""
    shape, flat = x.shape, (-1, x.shape[-1])

    def vjp(g):
        g_x = np.empty_like(g)
        np.take(g.reshape(flat), inverse, axis=0, out=g_x.reshape(flat))
        return (g_x,)

    return ad.op(x.data.reshape(flat)[order].reshape(shape), (x,), vjp)


def _layer_norm_np(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, saved: list | None = None, eps: float = 1e-5
) -> np.ndarray:
    """Layer norm written into ``x``, which the caller must own; returns ``x``.

    The mean is ``ndarray.mean``'s arithmetic, a sum divided by the count
    (numpy divides f32 in f64 and rounds, which equals f32 division), and
    the variance ``np.var``'s, the mean of squared deviations; so the result
    is bit-identical to ``(x - mean) / sqrt(var + eps) * gamma + beta``.
    When ``saved`` is a list, a copy of the normalized rows and their
    standard deviations are appended to it for the backward pass.
    """
    d = x.dtype.type(x.shape[-1])
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= d
    x -= mean
    var = np.add.reduce(np.square(x), axis=-1, keepdims=True)
    var /= d
    var += eps
    np.sqrt(var, out=var)
    x /= var
    if saved is not None:
        saved += (x.copy(), var)
    x *= gamma
    x += beta
    return x


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the weight in ``x @ w`` over (batch, time) rows."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _layer_norm_backward(
    g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, std: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of gamma, beta and the input of ``xhat * gamma + beta``,
    ``xhat`` being the input normalized by ``std``. ``g`` is not written."""
    row_mean = np.full((g.shape[-1], 1), 1.0 / g.shape[-1], dtype=g.dtype)  # a matvec beats a short-axis mean
    g_xhat = g * gamma
    gx = xhat * ((g_xhat * xhat) @ row_mean)
    np.subtract(g_xhat, gx, out=gx)
    gx -= g_xhat @ row_mean
    gx /= std
    return (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1)), gx


def _heads_to_rows(ctx: np.ndarray) -> np.ndarray:
    """The (b, H, d_head, m) context as (b, m, H·d_head) rows."""
    b, heads, d_head, m = ctx.shape
    return ctx.transpose(0, 3, 1, 2).reshape(b, m, heads * d_head)


def _qkv_heads(h: np.ndarray, block: tuple[int, int], heads: int, weights: tuple) -> tuple[np.ndarray, ...]:
    """The head views attention reads: Q of the ``block`` = (b, m) corner,
    scaled by 1/√d_head, as (b, H, d_head, m), and K and V projected from
    every row and read in the first ``b`` sentences, as (b, H, T, d_head)
    and (b, H, d_head, T). The forward makes them and the backward remakes
    them with these same operations, so the bits match."""
    wq, bq, wk, bk, wv, bv = weights[:6]
    _, time, d = h.shape
    b, m = block
    d_head = d // heads
    k = h @ wk
    k += bk
    v = h @ wv
    v += bv
    q = h[:b, :m] @ wq
    q += bq
    q *= 1.0 / math.sqrt(d_head)
    qh = q.reshape(b, m, heads, d_head).transpose(0, 2, 3, 1)
    kh = k[:b].reshape(b, time, heads, d_head).transpose(0, 2, 1, 3)
    vh = v[:b].reshape(b, time, heads, d_head).transpose(0, 2, 3, 1)
    return qh, kh, vh


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask for inverted dropout: False with probability
    ``round(rate·65536)/65536``, within 2⁻¹⁷ of ``rate``.

    One ``random_raw`` call draws ``ceil(n/4)`` 64-bit words, read
    little-endian as ``n`` 16-bit integers, one per entry; an entry is kept
    when its integer reaches the threshold. The mask does not depend on the
    precision or on the byte order, and a threshold of 65536 (a rate of
    ``1 - 2⁻¹⁷`` or more) drops every entry. Kept entries are still scaled
    by ``dropout_scale``, from ``rate`` itself.
    """
    n = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-n // 4)).astype("<u8", copy=False)
    return (raw.view("<u2")[:n] >= round(rate * 65536)).reshape(shape)


def dropout_scale(dtype, rate: float):
    """The ``1 / (1 - rate)`` that kept entries are multiplied by, in ``dtype``.
    Applied after the keep-mask, as its own multiply: ``x·1·s`` rounds
    exactly like ``x·s`` and ``x·0·s`` is ``x·0``, so the result is that of
    one multiply by a mask of 0s and scales."""
    dtype = np.dtype(dtype).type
    return dtype(1.0) / dtype(1.0 - rate)


def apply_dropout(x: np.ndarray, keep: np.ndarray, scale) -> np.ndarray:
    """``x`` times the keep-mask, then the scale, as a new array. The mask
    is cast to ``x``'s dtype first, so both multiplies are of one dtype:
    ``1·x`` is ``x·1`` and ``0·x`` is ``x·0``, sign included."""
    out = keep.astype(x.dtype)
    out *= x
    out *= scale
    return out


def _layer_mask_shapes(b: int, m: int, heads: int, time: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The keep-mask shapes of a layer on a (b, m) corner, in draw order: the
    attention probabilities key-major as (b, H, T, m), like the scores they
    multiply, then the attention and FFN outputs as (b, m, d)."""
    return (b, heads, time, m), (b, m, d), (b, m, d)


def _layer_backward(
    h: np.ndarray, weights: tuple, block: tuple[int, int], active: np.ndarray | None, tape: dict, g: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The VJP of one ``_layer_infer`` call on ``h`` with ``weights`` that
    filled ``tape``: from the gradient ``g`` of its output, the gradients of
    ``h`` and of the layer's weights in ``_LAYER_PARAMS`` order. Attention
    is key-major, as in the forward. Keys and values take gradient only in
    the first ``b`` sentences, the ones they were read in; stopped rows pass
    ``g`` straight through, and active corner rows take only what flows back
    through the block.

    The tape holds only the softmax's per-query maximum and key sums, the
    layer norms' normalized rows and standard deviations and the packed
    masks; the rest is remade here with the forward's own operations on the
    forward's own rows, so every bit matches: the first norm's output from
    its normalized rows and the FFN's ReLU output from that, Q, K and V by
    ``_qkv_heads``, the exponentiated scores from K, Q and the stored
    maximum, the dropped probabilities and the context from those and the
    key sums, and the boolean keep-masks from their packed bits. No array on
    the tape is written, and neither is ``g``."""
    wq, bq, wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = weights
    key_max, key_sums, drop = tape["key_max"], tape["key_sums"], tape["drop"]
    xhat1, std1, xhat2, std2 = tape["ln"]
    batch, time, d = h.shape
    b, m = block
    heads = key_sums.shape[1]
    d_head = d // heads
    if drop is not None:
        shapes = _layer_mask_shapes(*block, heads, time, d)
        masks = (np.unpackbits(bits, count=math.prod(s)).view(bool).reshape(s) for bits, s in zip(drop, shapes))
        drop = (*masks, drop[3])

    g_out = g[:b, :m] if active is None else g[:b, :m] * active[..., None]
    g_ln2_g, g_ln2_b, g_hr = _layer_norm_backward(g_out, ln2_g, xhat2, std2)
    g_ff = g_hr if drop is None else apply_dropout(g_hr, drop[2], drop[3])
    hr = xhat1 * ln1_g  # the first norm's output, as _layer_norm_np made it
    hr += ln1_b
    hid = hr @ w1  # the FFN's ReLU output, as the forward made it
    hid += b1
    np.maximum(hid, 0, out=hid)
    g_w2, g_b2 = _weight_grad(hid, g_ff), g_ff.sum(axis=(0, 1))
    g_hid = g_ff @ w2.T
    g_hid *= hid > 0
    del hid
    g_w1, g_b1 = _weight_grad(hr, g_hid), g_hid.sum(axis=(0, 1))
    del hr
    g_hr += g_hid @ w1.T
    g_ln1_g, g_ln1_b, g_hq = _layer_norm_backward(g_hr, ln1_g, xhat1, std1)
    g_attn = g_hq if drop is None else apply_dropout(g_hq, drop[1], drop[3])
    qh, kh, vh = _qkv_heads(h, block, heads, weights)
    scores = np.matmul(kh, qh)  # the exponentiated scores, as the forward made them
    scores -= key_max
    np.exp(scores, out=scores)
    kept = scores if drop is None else apply_dropout(scores, drop[0], drop[3])
    ctx = np.matmul(vh, kept)
    ctx /= key_sums
    g_wo, g_bo = _weight_grad(_heads_to_rows(ctx), g_attn), g_attn.sum(axis=(0, 1))
    g_ctx = (g_attn @ wo.T).reshape(b, m, heads, d_head).transpose(0, 2, 3, 1)

    # ctx = V·(E⊙M)/s, E the exponentiated scores, M the probabilities'
    # dropout mask and s the key sums of E. The softmax VJP over keys is
    # dS = P⊙(dP − Σ_k P·dP), with Σ_k P·dP = Σ_j ctx·dctx; both it and
    # dctx are divided by s here, on (b, H, ·, m) blocks, not on P.
    inner = (g_ctx * ctx).sum(axis=-2, keepdims=True)
    del ctx
    inner /= key_sums
    g_ctx = g_ctx / key_sums
    # the head gradients are written straight into (b, rows, H, d_head)
    g_q, g_k, g_v = (np.empty((b, rows, heads, d_head), dtype=h.dtype) for rows in (m, time, time))
    np.matmul(g_ctx, kept.transpose(0, 1, 3, 2), out=g_v.transpose(0, 2, 3, 1))
    del kept  # before g_scores, an array of the same size, is made
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


def _known_head(head: str) -> str:
    if head not in (HEAD_CLASSIFIER, HEAD_MLM):
        raise ValueError(f"unknown head {head!r}")
    return head


class AdaptiveEncoder:
    """Encoder stack plus one task head (pooled classifier or shared MLM)."""

    def __init__(self, config: EncoderConfig, head: str, seed: int = 0):
        self._init_params(self._build(config, head, seed))

    @classmethod
    def from_arrays(cls, config: EncoderConfig, head: str, arrays: dict[str, np.ndarray]) -> "AdaptiveEncoder":
        """An encoder holding ``arrays``, one per parameter, cast to
        ``config``'s precision; built without the initializer's draws, its
        dropout generator seeded as ``seed=0`` seeds it."""
        enc = cls.__new__(cls)
        enc._build(config, head, seed=0)
        enc.store.load_arrays(arrays)
        return enc

    def _build(self, config: EncoderConfig, head: str, seed: int) -> np.random.Generator:
        """Everything but the parameter values, which stay the store's
        zeros; returns the generator the initializer draws from."""
        self.config = config
        self.head = _known_head(head)
        self.store = ParamStore(self._param_shapes(), dtype=config.dtype)
        init_seed, dropout_seed = np.random.SeedSequence(seed).spawn(2)
        self._dropout_rng = np.random.default_rng(dropout_seed)
        self._pe = sinusoidal_encoding(config.max_len, config.d_model, config.dtype)
        self._layer_tensors = [
            tuple(self.store[f"layer{i}.{name}"] for name in _LAYER_PARAMS) for i in range(config.n_layers)
        ]
        # the store's views, never replaced: training and loading write into them
        self._layer_weights = [tuple(t.data for t in tensors) for tensors in self._layer_tensors]
        return np.random.default_rng(init_seed)

    # ------------------------------------------------------------------
    # parameters

    def _param_shapes(self) -> dict[str, tuple[int, ...]]:
        cfg = self.config
        d, ff, vocab = cfg.d_model, cfg.d_ff, cfg.vocab_size
        layer = {
            "attn.wq": (d, d), "attn.wk": (d, d), "attn.wv": (d, d), "attn.wo": (d, d),
            "attn.bq": (d,), "attn.bk": (d,), "attn.bv": (d,), "attn.bo": (d,),
            "ln1.gamma": (d,), "ln1.beta": (d,), "ffn.w1": (d, ff), "ffn.b1": (ff,),
            "ffn.w2": (ff, d), "ffn.b2": (d,), "ln2.gamma": (d,), "ln2.beta": (d,),
        }
        shapes = {"embed.tokens": (vocab, d)}
        for i in range(cfg.n_layers):
            shapes.update({f"layer{i}.{name}": shape for name, shape in layer.items()})
        if self.head == HEAD_CLASSIFIER:
            shapes.update({"cls.w": (2 * d, cfg.n_labels), "cls.b": (cfg.n_labels,)})
        else:
            shapes.update({"mlm.w": (d, vocab), "mlm.b": (vocab,)})
        return shapes

    def _init_params(self, rng: np.random.Generator) -> None:
        """Draw each value into its view of the store, in store order: token
        embeddings from N(0, 0.02²), matrices Glorot-uniform, layer-norm
        gains 1; biases and shifts keep the store's zeros."""
        for name, p in self.store.params.items():
            if name == "embed.tokens":
                p.data[...] = rng.normal(0.0, 0.02, size=p.shape)
            elif p.data.ndim == 2:
                limit = math.sqrt(6.0 / sum(p.shape))
                p.data[...] = rng.uniform(-limit, limit, size=p.shape)
            elif name.endswith(".gamma"):
                p.data.fill(1.0)

    # ------------------------------------------------------------------
    # shared input checks

    def _check_inputs(self, ids: np.ndarray, depths: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """A forward's ids and depths (all ``n_layers`` when None) as checked
        (batch, time) int64 arrays: each forward checks once, then trusts them."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2 or ids.shape[1] == 0:
            raise ValueError(f"expected non-empty (batch, time) token ids, got shape {ids.shape}")
        if ids.shape[1] > self.config.max_len:
            raise ValueError(f"sequence length {ids.shape[1]} exceeds max_len {self.config.max_len}")
        n = self.config.n_layers
        if depths is None:
            depths = np.full(ids.shape, n, dtype=np.int64)
        else:
            depths = np.asarray(depths)
            if not np.issubdtype(depths.dtype, np.integer):
                raise ValueError(f"depth map must hold integers, got dtype {depths.dtype}")
            depths = depths.astype(np.int64, copy=False)
            if depths.ndim == 1:
                depths = depths[None, :]
            if depths.shape != ids.shape:
                raise ValueError(f"depth map shape {depths.shape} does not match tokens {ids.shape}")
            if depths.min() < 1 or depths.max() > n:
                raise ValueError(f"depths must lie in [1, {n}], got [{depths.min()}, {depths.max()}]")
        if ids.min() < 0 or ids.max() >= self.config.vocab_size:
            raise ValueError(f"token id out of range: max id {ids.max()} for vocab {self.config.vocab_size}")
        return ids, depths

    # ------------------------------------------------------------------
    # graph (training) path

    def _draw_dropout(self, train: bool, *shapes: tuple[int, ...]) -> tuple | None:
        """When training with dropout, a keep-mask per shape, drawn in order,
        then the ``1/(1 - p)`` scale; otherwise None."""
        cfg = self.config
        if not (train and cfg.dropout > 0.0):
            return None
        masks = [dropout_mask(shape, cfg.dropout, self._dropout_rng) for shape in shapes]
        return (*masks, dropout_scale(cfg.dtype, cfg.dropout))

    def embed(self, ids: np.ndarray, train: bool = False) -> Tensor:
        """Layer-0 states of ids checked by ``_check_inputs``, as one graph
        node: ``embed_infer``, then, when training, inverted dropout with a
        boolean keep-mask. The VJP scatters the gradient into the token
        table."""
        cfg = self.config
        h = self.embed_infer(ids)
        drop = self._draw_dropout(train, h.shape)
        if drop is not None:
            h = apply_dropout(h, *drop)
        table = self.store["embed.tokens"]

        def vjp(g):
            if drop is not None:
                g = apply_dropout(g, *drop)
            g = g * math.sqrt(cfg.d_model)
            g_table = np.zeros_like(table.data)
            np.add.at(g_table, ids.reshape(-1), g.reshape(-1, cfg.d_model))
            return (g_table,)

        return ad.op(h, (table,), vjp)

    def _layer_node(
        self, h: Tensor, i: int, block: tuple[int, int], active: np.ndarray | None, train: bool
    ) -> Tensor:
        """One layer as one graph node: ``_layer_infer`` runs the forward,
        with the layer's dropout keep-masks when training, and keeps on a
        tape what ``_layer_backward``, the node's VJP, reads: per-query and
        per-row statistics, and the masks bit-packed, one bit per entry. It
        lives in the VJP's closure, which the backward drops once the VJP
        has run."""
        cfg = self.config
        drop = self._draw_dropout(train, *_layer_mask_shapes(*block, cfg.n_heads, h.shape[1], cfg.d_model))
        tape = {"drop": drop, "ln": []}
        out = self._layer_infer(h.data, i, block, active, tape)
        if drop is not None:
            tape["drop"] = (*(np.packbits(mask, axis=None) for mask in drop[:3]), drop[3])
        weights = self._layer_weights[i]
        return ad.op(
            out, (h, *self._layer_tensors[i]), lambda g: _layer_backward(h.data, weights, block, active, tape, g)
        )

    def forward_graph(
        self, ids: np.ndarray, depths: np.ndarray | None = None, train: bool = False
    ) -> tuple[list[Tensor], LayerCounts]:
        """Every executed layer's states (1..n_max), with exact work counts. A
        batch that ``_route`` sorts returns only the top layer's, the one the
        pooled loss reads, gathered back to input order; each layer node's
        first parent is the layer below it, in routed order."""
        ids, depths = self._check_inputs(ids, depths)
        order, inverse, plan, counts = _route(depths)
        h = self.embed(ids, train)
        if order is not None:
            h = _permute(h, order, inverse)
        layers: list[Tensor] = []
        for i, (block, active) in enumerate(plan):
            h = self._layer_node(h, i, block, active, train)
            layers.append(h)
        if order is not None:
            layers = [_permute(h, inverse, order)]
        return layers, counts

    def classifier_loss_graph(self, h_last: Tensor, gold: np.ndarray) -> Tensor:
        """Mean negative log-probability of the gold labels under
        ``classify_infer``, as one graph node over the final states and the
        head. The VJP goes back through the softmax, the head, the ReLU and
        both poolings (a max takes its gradient at its first position)."""
        gold = np.asarray(gold, dtype=np.int64)
        if gold.size and (gold.min() < 0 or gold.max() >= self.config.n_labels):
            raise ValueError(f"gold label out of range for {self.config.n_labels} labels")
        w, b = self.store["cls.w"], self.store["cls.b"]
        feats, probs = self._classify(h_last.data)
        rows = np.arange(gold.size)

        def vjp(g):
            h = h_last.data
            time, d = h.shape[1:]
            # the VJPs of the mean, negation, log and gold pick, then of the
            # softmax, written as the per-op chain wrote them so the bits match
            g_probs = np.zeros_like(probs)
            g_probs[rows, gold] = -np.full(gold.size, float(g) / gold.size, dtype=probs.dtype) / probs[rows, gold]
            g_logits = probs * (g_probs - (g_probs * probs).sum(axis=-1, keepdims=True))
            g_feats = g_logits @ w.data.T
            g_feats *= feats > 0
            g_h = np.repeat((g_feats[:, d:] / time)[:, None], time, axis=1)
            first_max = h.argmax(axis=1)[:, None]
            np.put_along_axis(g_h, first_max, np.take_along_axis(g_h, first_max, 1) + g_feats[:, None, :d], 1)
            return g_h, feats.T @ g_logits, g_logits.sum(axis=0)

        return ad.op((-np.log(probs[rows, gold])).mean(), (h_last, w, b), vjp)

    def mlm_anytime_loss_graph(
        self,
        ids: np.ndarray,
        masked_flat_idx: np.ndarray,
        true_ids: np.ndarray,
        train: bool = False,
    ) -> tuple[Tensor, np.ndarray, LayerCounts]:
        """Summed per-layer masked cross-entropy, averaged over masked slots.

        ``ids`` must already contain the corrupted tokens; ``masked_flat_idx``
        indexes the flattened (batch*time) positions being predicted. Runs
        every layer: depth adaptivity is never used while training the MLM.
        The loss is one graph node over every layer state and the head, its
        forward ``masked_nll_infer`` and ``anytime_loss``. Also returns the
        per-layer mean losses as plain floats and the forward's work counts.
        """
        masked_flat_idx = np.asarray(masked_flat_idx, dtype=np.int64)
        true_ids = np.asarray(true_ids, dtype=np.int64)
        if masked_flat_idx.size == 0:
            raise ValueError("anytime MLM loss needs at least one masked position")
        layers, counts = self.forward_graph(ids, None, train)
        w, b = self.store["mlm.w"], self.store["mlm.b"]
        n_masked = masked_flat_idx.size
        rows = np.arange(n_masked)
        kept, sums = [], []
        for h in layers:
            log_probs, nll = self.masked_nll_infer(h.data, masked_flat_idx, true_ids)
            kept.append(log_probs)
            sums.append(nll.sum())

        def vjp(g):
            # the NLL's gradient is -c at each gold entry, c = g/n_masked; the
            # log-softmax VJP makes that softmax·c - c there, softmax·c elsewhere
            c = g * (1.0 / n_masked)
            g_layers, g_w, g_b = [], None, None
            for h, log_probs in zip(layers, kept):
                flat = h.data.reshape(-1, h.shape[-1])
                g_logits = np.exp(log_probs, out=log_probs)
                g_logits *= c
                g_logits[rows, true_ids] -= c
                g_h = np.zeros_like(h.data)
                np.add.at(g_h.reshape(flat.shape), masked_flat_idx, g_logits @ w.data.T)
                g_layers.append(g_h)
                g_w_n, g_b_n = flat[masked_flat_idx].T @ g_logits, g_logits.sum(axis=0)
                if g_w is None:
                    g_w, g_b = g_w_n, g_b_n
                else:
                    g_w += g_w_n
                    g_b += g_b_n
            return (*g_layers, g_w, g_b)

        loss = ad.op(anytime_loss(sums, n_masked), (*layers, w, b), vjp)
        return loss, np.array([float(s) / n_masked for s in sums]), counts

    # ------------------------------------------------------------------
    # inference path (no graph, eval mode, actually skips stopped tokens)

    def embed_infer(self, ids: np.ndarray) -> np.ndarray:
        """Layer-0 states of ids checked by ``_check_inputs``."""
        table = self.store["embed.tokens"].data
        return table[ids] * self.config.dtype.type(math.sqrt(self.config.d_model)) + self._pe[: ids.shape[1]]

    def _layer_infer(
        self, h: np.ndarray, i: int, block: tuple[int, int], active: np.ndarray | None, tape: dict | None = None
    ) -> np.ndarray:
        """One layer whose active rows all lie in the leading ``block`` =
        (b, m) corner of ``h``. Keys and values come from every row; the rest
        of the layer runs on ``h[:b, :m]``. ``active`` is that corner's mask,
        or None when every corner row is active. Stopped rows, inside the
        corner or outside it, are copied bit-exactly. ``h`` is never written.

        Attention is key-major: scores are ``K·Qᵀ`` of shape (b, H, T, m),
        so the softmax reduces over the key axis -2, which numpy runs several
        times faster than a reduction over a short last axis once the block
        holds a few dozen queries. ``q`` carries the 1/√d_head scale and the
        context is normalized after the ``P·V`` product.

        This is the layer's only forward. The graph path passes ``tape``,
        its one channel to the node's VJP: a dict whose "drop" entry is None
        or holds the layer's boolean dropout keep-masks (attention
        probabilities key-major as (b, H, T, m), attention output, FFN
        output) and the ``1/(1 - p)`` scale, applied after each mask, and
        whose "ln" entry is an empty list. Only statistics are stored in it:
        the (b, H, 1, m) per-query maximum the softmax subtracts and the key
        sums of the exponentiated scores, and each layer norm's normalized
        rows and standard deviations. ``_layer_backward`` remakes Q, K, V,
        the exponentiated scores, the context, the first norm's output and
        the FFN's ReLU output. Without a tape nothing extra is computed or
        kept.
        """
        batch, time, _ = h.shape
        b, m = block
        weights = self._layer_weights[i]
        wo, bo, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = weights[6:]
        drop = None if tape is None else tape["drop"]
        saved = () if tape is None else (tape["ln"],)
        # every elementwise step below writes into an array this layer made
        qh, kh, vh = _qkv_heads(h, block, self.config.n_heads, weights)
        scores = np.matmul(kh, qh)
        key_max = np.maximum.reduce(scores, axis=-2, keepdims=True)
        scores -= key_max
        np.exp(scores, out=scores)
        ctx = np.matmul(vh, scores if drop is None else apply_dropout(scores, drop[0], drop[3]))
        key_sums = np.add.reduce(scores, axis=-2, keepdims=True)
        ctx /= key_sums
        attn = _heads_to_rows(ctx) @ wo
        attn += bo
        if drop is not None:
            attn *= drop[1]
            attn *= drop[3]
        attn += h[:b, :m]
        hr = _layer_norm_np(attn, ln1_g, ln1_b, *saved)
        hid = hr @ w1
        hid += b1
        np.maximum(hid, 0, out=hid)
        out = hid @ w2
        out += b2
        if drop is not None:
            out *= drop[2]
            out *= drop[3]
        out += hr
        _layer_norm_np(out, ln2_g, ln2_b, *saved)
        if tape is not None:
            tape.update(key_max=key_max, key_sums=key_sums)
        if active is None and (b, m) == (batch, time):
            return out
        new = h.copy()
        np.copyto(new[:b, :m], out, where=True if active is None else active[..., None])
        return new

    def forward_infer(
        self,
        ids: np.ndarray,
        depths: np.ndarray | None = None,
        collect_layers: bool = False,
    ) -> tuple[np.ndarray | list[np.ndarray], LayerCounts]:
        """Final (or every executed layer's) states, in input order, with
        exact work counts; routed by ``_route``."""
        ids, depths = self._check_inputs(ids, depths)
        order, inverse, plan, counts = _route(depths)
        h = self.embed_infer(ids)
        shape, flat = h.shape, (ids.size, self.config.d_model)
        if order is not None:
            h = h.reshape(flat)[order].reshape(shape)
        layers: list[np.ndarray] = []
        for i, (block, active) in enumerate(plan):
            h = self._layer_infer(h, i, block, active)
            if collect_layers:
                layers.append(h)
        out = layers if collect_layers else [h]
        if order is not None:
            out = [x.reshape(flat)[inverse].reshape(shape) for x in out]
        return (out if collect_layers else out[0]), counts

    def _classify(self, h_last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rectified max- and mean-pooled features and the label
        probabilities."""
        feats = np.concatenate([h_last.max(axis=1), h_last.mean(axis=1)], axis=-1)
        np.maximum(feats, 0.0, out=feats)
        return feats, _softmax_np(feats @ self.store["cls.w"].data + self.store["cls.b"].data)

    def classify_infer(self, h_last: np.ndarray) -> np.ndarray:
        return self._classify(h_last)[1]

    def predict(
        self, ids: np.ndarray, depths: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, LayerCounts]:
        """Labels, probabilities and exact compute counts for one batch."""
        h, counts = self.forward_infer(ids, depths)
        probs = self.classify_infer(h)
        return probs.argmax(axis=-1), probs, counts

    def mlm_log_probs_infer(self, rows: np.ndarray) -> np.ndarray:
        """Vocabulary log-probabilities for a matrix of state rows."""
        return _log_softmax_np(rows @ self.store["mlm.w"].data + self.store["mlm.b"].data)

    def masked_nll_infer(
        self, h: np.ndarray, flat_idx: np.ndarray, true_ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The MLM head's log-probabilities at the flat (batch*time)
        positions ``flat_idx`` of the states ``h``, and the negative
        log-probabilities of ``true_ids`` there: the per-layer loss that
        training, the held-out score and the reconstruction profiles read."""
        log_probs = self.mlm_log_probs_infer(h.reshape(-1, h.shape[-1])[flat_idx])
        return log_probs, -log_probs[np.arange(len(flat_idx)), true_ids]

    # ------------------------------------------------------------------
    # persistence

    def save(self, path, extra_meta: dict[str, str] | None = None) -> None:
        meta = self.config.to_meta()
        meta["head"] = self.head
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(path, self.store.state_arrays(), meta)

    @classmethod
    def load(cls, path) -> tuple["AdaptiveEncoder", dict[str, str]]:
        arrays, meta = load_checkpoint(path)
        return cls.from_arrays(EncoderConfig.from_meta(meta), meta_value(meta, "head", _known_head), arrays), meta
