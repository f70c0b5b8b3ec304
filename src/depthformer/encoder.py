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
masks and a tape of the intermediates that its hand-written backward,
``_layer_backward``, reads, so gradients flow through the copy routing.

The rest of the model is written once too. The embedding, the permutation
into routed order and back, the classifier loss and the anytime MLM loss
are one graph node each, whose forward is the inference code
(``embed_infer``, a row gather, ``classify_infer``, ``masked_nll_infer``)
and whose VJP is written beside it. A training step's graph is those
nodes and the layer nodes; each node releases what its VJP read once
that VJP has run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .checkpoint import load_checkpoint, save_checkpoint
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
        parse = {"int": int, "float": float, "str": str}  # field annotations, as strings
        return cls(**{f.name: parse[f.type](meta[f.name]) for f in fields(cls)})


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

    The variance is ``np.var``'s own arithmetic (mean of squared deviations),
    so the result is bit-identical to ``(x - mean) / sqrt(var + eps) * gamma + beta``.
    When ``saved`` is a list, a copy of the normalized rows and their
    standard deviations are appended to it for the backward pass.
    """
    x -= x.mean(axis=-1, keepdims=True)
    var = np.square(x).sum(axis=-1, keepdims=True)
    var /= x.shape[-1]
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


def _layer_backward(
    h: np.ndarray, block: tuple[int, int], active: np.ndarray | None, tape: dict, g: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The VJP of one ``_layer_infer`` call on ``h`` that filled ``tape``:
    from the gradient ``g`` of its output, the gradients of ``h`` and of the
    layer's weights in ``_LAYER_PARAMS`` order. Attention is key-major, as
    in the forward. Keys and values take gradient only in the first ``b``
    sentences, the ones they were read in; stopped rows pass ``g`` straight
    through, and active corner rows take only what flows back through the
    block. The dropped probabilities and the context rows are remade from
    the tape with the forward's own operations. No array on the tape is
    written, and neither is ``g``; the tape is emptied once read, so the
    graph keeps no intermediates once its backward has run."""
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
    g_ff = g_hr if drop is None else ad.apply_dropout(g_hr, drop[2], drop[3])
    g_w2, g_b2 = _weight_grad(hid, g_ff), g_ff.sum(axis=(0, 1))
    g_hid = g_ff @ w2.T
    g_hid *= hid > 0
    g_w1, g_b1 = _weight_grad(hr, g_hid), g_hid.sum(axis=(0, 1))
    g_hr += g_hid @ w1.T
    g_ln1_g, g_ln1_b, g_hq = _layer_norm_backward(g_hr, ln1_g, xhat1, std1)
    g_attn = g_hq if drop is None else ad.apply_dropout(g_hq, drop[1], drop[3])
    g_wo, g_bo = _weight_grad(_heads_to_rows(ctx), g_attn), g_attn.sum(axis=(0, 1))
    g_ctx = (g_attn @ wo.T).reshape(b, m, heads, d_head).transpose(0, 2, 3, 1)

    # ctx = V·(E⊙M)/s, E the exponentiated scores, M the probabilities'
    # dropout mask and s the key sums of E. The softmax VJP over keys is
    # dS = P⊙(dP − Σ_k P·dP), with Σ_k P·dP = Σ_j ctx·dctx; both it and
    # dctx are divided by s here, on (b, H, ·, m) blocks, not on P.
    inner = (g_ctx * ctx).sum(axis=-2, keepdims=True)
    inner /= key_sums
    g_ctx = g_ctx / key_sums
    # the head gradients are written straight into (b, rows, H, d_head)
    g_q, g_k, g_v = (np.empty((b, rows, heads, d_head), dtype=h.dtype) for rows in (m, time, time))
    kept = scores if drop is None else ad.apply_dropout(scores, drop[0], drop[3])
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


class AdaptiveEncoder:
    """Encoder stack plus one task head (pooled classifier or shared MLM)."""

    def __init__(self, config: EncoderConfig, head: str, seed: int = 0):
        if head not in (HEAD_CLASSIFIER, HEAD_MLM):
            raise ValueError(f"unknown head {head!r}")
        self.config = config
        self.head = head
        self.store = ParamStore(self._param_shapes(), dtype=config.dtype)
        init_seed, dropout_seed = np.random.SeedSequence(seed).spawn(2)
        self._dropout_rng = np.random.default_rng(dropout_seed)
        self._init_params(np.random.default_rng(init_seed))
        self._pe = sinusoidal_encoding(config.max_len, config.d_model, config.dtype)
        self._layer_tensors = [
            tuple(self.store[f"layer{i}.{name}"] for name in _LAYER_PARAMS) for i in range(config.n_layers)
        ]

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
        return ids, depths

    # ------------------------------------------------------------------
    # graph (training) path

    def embed(self, ids: np.ndarray, train: bool = False) -> Tensor:
        """Layer-0 states as one graph node: ``embed_infer``, then, when
        training, inverted dropout with a boolean keep-mask. The VJP scatters
        the gradient into the token table and releases the ids and the mask."""
        ids, _ = self._check_inputs(ids, None)
        cfg = self.config
        h = self.embed_infer(ids)
        tape = {"ids": ids, "drop": None}
        if train and cfg.dropout > 0.0:
            tape["drop"] = (
                ad.dropout_mask(h.shape, cfg.dtype, cfg.dropout, self._dropout_rng),
                ad.dropout_scale(cfg.dtype, cfg.dropout),
            )
            h = ad.apply_dropout(h, *tape["drop"])
        table = self.store["embed.tokens"]

        def vjp(g):
            ids, drop = tape.pop("ids"), tape.pop("drop")
            if drop is not None:
                g = ad.apply_dropout(g, *drop)
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
        tape what ``_layer_backward``, the node's VJP, reads and then
        releases; after the backward the node holds only its output and
        gradient."""
        cfg = self.config
        drop = None
        if train and cfg.dropout > 0.0:
            # drawn in forward order, the attention probabilities query-major
            # as (b, H, m, T), then laid out key-major like the scores
            b, m = block
            shapes = ((b, cfg.n_heads, m, h.shape[1]), (b, m, cfg.d_model), (b, m, cfg.d_model))
            probs, attn, ffn = (ad.dropout_mask(s, cfg.dtype, cfg.dropout, self._dropout_rng) for s in shapes)
            scale = ad.dropout_scale(cfg.dtype, cfg.dropout)
            drop = (np.ascontiguousarray(probs.transpose(0, 1, 3, 2)), attn, ffn, scale)
        tape = {"drop": drop, "ln": []}
        out = self._layer_infer(h.data, i, block, active, tape)
        return ad.op(out, (h, *self._layer_tensors[i]), lambda g: _layer_backward(h.data, block, active, tape, g))

    def forward_graph(
        self, ids: np.ndarray, depths: np.ndarray | None = None, train: bool = False
    ) -> tuple[list[Tensor], LayerCounts]:
        """All executed layer states (1..n_max), in input order, with exact
        work counts; routed as ``forward_infer`` routes them."""
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
            layers = [_permute(x, inverse, order) for x in layers]
        return layers, counts

    def classifier_loss_graph(self, h_last: Tensor, gold: np.ndarray) -> Tensor:
        """Mean negative log-probability of the gold labels under
        ``classify_infer``, as one graph node over the final states and the
        head. The VJP goes back through the softmax, the head, the ReLU and
        both poolings (a max takes its gradient at its first position) and
        releases the features and probabilities it read."""
        gold = np.asarray(gold, dtype=np.int64)
        if gold.size and (gold.min() < 0 or gold.max() >= self.config.n_labels):
            raise ValueError(f"gold label out of range for {self.config.n_labels} labels")
        w, b = self.store["cls.w"], self.store["cls.b"]
        feats, probs = self._classify(h_last.data)
        rows = np.arange(gold.size)
        tape = {"feats": feats, "probs": probs}

        def vjp(g):
            feats, probs = tape.pop("feats"), tape.pop("probs")
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
    ) -> tuple[Tensor, np.ndarray]:
        """Summed per-layer masked cross-entropy, averaged over masked slots.

        ``ids`` must already contain the corrupted tokens; ``masked_flat_idx``
        indexes the flattened (batch*time) positions being predicted. Runs
        every layer: depth adaptivity is never used while training the MLM.
        The loss is one graph node over every layer state and the head, its
        forward ``masked_nll_infer`` and ``anytime_loss``; the VJP releases
        the log-probabilities it read. Also returns the per-layer mean
        losses as plain floats.
        """
        masked_flat_idx = np.asarray(masked_flat_idx, dtype=np.int64)
        true_ids = np.asarray(true_ids, dtype=np.int64)
        if masked_flat_idx.size == 0:
            raise ValueError("anytime MLM loss needs at least one masked position")
        layers, _ = self.forward_graph(ids, None, train)
        w, b = self.store["mlm.w"], self.store["mlm.b"]
        n_masked = masked_flat_idx.size
        rows = np.arange(n_masked)
        tape: dict = {"log_probs": []}
        sums = []
        for h in layers:
            log_probs, nll = self.masked_nll_infer(h.data, masked_flat_idx, true_ids)
            tape["log_probs"].append(log_probs)
            sums.append(nll.sum())

        def vjp(g):
            # the NLL's gradient is -c at each gold entry, c = g/n_masked; the
            # log-softmax VJP makes that softmax·c - c there, softmax·c elsewhere
            c = g * (1.0 / n_masked)
            g_layers, g_w, g_b = [], None, None
            for h, log_probs in zip(layers, tape.pop("log_probs")):
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
        return loss, np.array([float(s) / n_masked for s in sums])

    # ------------------------------------------------------------------
    # inference path (no graph, eval mode, actually skips stopped tokens)

    def embed_infer(self, ids: np.ndarray) -> np.ndarray:
        ids, _ = self._check_inputs(ids, None)
        table = self.store["embed.tokens"].data
        if ids.min() < 0 or ids.max() >= table.shape[0]:
            raise ValueError(f"token id out of range: max id {ids.max()} for vocab {table.shape[0]}")
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

        This is the layer's only forward. The graph path passes ``tape``, a
        dict whose "drop" entry is None or holds the layer's boolean dropout
        keep-masks (attention probabilities key-major as (b, H, T, m),
        attention output, FFN output) and the ``1/(1 - p)`` scale, applied
        after each mask, and whose "ln" entry is an empty list; the
        intermediates ``_layer_backward`` reads are stored in it. Products it
        can remake cheaply (the dropped probabilities, the context rows) are
        not. Without a tape nothing extra is computed or kept.
        """
        cfg = self.config
        batch, time, _ = h.shape
        b, m = block
        heads, d_head = cfg.n_heads, cfg.d_head
        weights = tuple(t.data for t in self._layer_tensors[i])
        wq, bq, wk, bk, wv, bv, wo, bo, ln1_g, ln1_b, w1, b1, w2, b2, ln2_g, ln2_b = weights
        drop = None if tape is None else tape["drop"]
        saved = () if tape is None else (tape["ln"],)
        k = h @ wk
        k += bk
        v = h @ wv
        v += bv
        # every elementwise step below writes into an array this layer made
        hq = h[:b, :m]
        q = hq @ wq
        q += bq
        q *= 1.0 / math.sqrt(d_head)
        qh = q.reshape(b, m, heads, d_head).transpose(0, 2, 3, 1)
        kh = k[:b].reshape(b, time, heads, d_head).transpose(0, 2, 1, 3)
        vh = v[:b].reshape(b, time, heads, d_head).transpose(0, 2, 3, 1)
        scores = np.matmul(kh, qh)
        scores -= scores.max(axis=-2, keepdims=True)
        np.exp(scores, out=scores)
        ctx = np.matmul(vh, scores if drop is None else ad.apply_dropout(scores, drop[0], drop[3]))
        key_sums = scores.sum(axis=-2, keepdims=True)
        ctx /= key_sums
        attn = _heads_to_rows(ctx) @ wo
        attn += bo
        if drop is not None:
            attn *= drop[1]
            attn *= drop[3]
        attn += hq
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
            tape.update(w=weights, qh=qh, kh=kh, vh=vh, scores=scores, key_sums=key_sums, ctx=ctx, hr=hr, hid=hid)
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
        config = EncoderConfig.from_meta(meta)
        enc = cls(config, head=meta["head"], seed=0)
        enc.store.load_arrays(arrays)
        return enc, meta
