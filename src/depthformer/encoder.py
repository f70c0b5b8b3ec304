"""Transformer encoder with per-token depth-adaptive execution.

Every token carries a precomputed depth. At layer ``n`` only tokens whose
depth is at least ``n`` are transformed; the rest copy their state upward
unchanged but keep supplying keys and values, so active tokens always
attend over the full sentence. The layer loop stops at the largest depth
present in the batch.

Two forward implementations share the same parameters: a graph-building
path used for training (gradients flow through the copy routing) and a
plain-numpy inference path that actually skips the work for stopped
tokens, which is what the speed benchmarks measure. The inference path has
one layer kernel: keys and values come from every row, and the rest of
the layer runs on the whole batch when every row is active, otherwise
once per sentence on that sentence's active rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.precision not in _PRECISIONS:
            raise ValueError(f"precision must be one of {sorted(_PRECISIONS)}")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be set")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_PRECISIONS[self.precision])

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    def to_meta(self) -> dict[str, str]:
        return {
            "vocab_size": str(self.vocab_size),
            "n_labels": str(self.n_labels),
            "n_layers": str(self.n_layers),
            "d_model": str(self.d_model),
            "n_heads": str(self.n_heads),
            "d_ff": str(self.d_ff),
            "dropout": str(self.dropout),
            "max_len": str(self.max_len),
            "precision": self.precision,
        }

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "EncoderConfig":
        return cls(
            vocab_size=int(meta["vocab_size"]),
            n_labels=int(meta["n_labels"]),
            n_layers=int(meta["n_layers"]),
            d_model=int(meta["d_model"]),
            n_heads=int(meta["n_heads"]),
            d_ff=int(meta["d_ff"]),
            dropout=float(meta["dropout"]),
            max_len=int(meta["max_len"]),
            precision=meta["precision"],
        )


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
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _layer_norm_np(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


class AdaptiveEncoder:
    """Encoder stack plus one task head (pooled classifier or shared MLM)."""

    def __init__(self, config: EncoderConfig, head: str, seed: int = 0):
        if head not in (HEAD_CLASSIFIER, HEAD_MLM):
            raise ValueError(f"unknown head {head!r}")
        self.config = config
        self.head = head
        self.store = ParamStore(dtype=config.dtype)
        init_seed, dropout_seed = np.random.SeedSequence(seed).spawn(2)
        self._dropout_rng = np.random.default_rng(dropout_seed)
        self._init_params(np.random.default_rng(init_seed))
        self._pe = sinusoidal_encoding(config.max_len, config.d_model, config.dtype)

    # ------------------------------------------------------------------
    # parameters

    def _glorot(self, rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.config
        d, ff = cfg.d_model, cfg.d_ff
        self.store.add("embed.tokens", rng.normal(0.0, 0.02, size=(cfg.vocab_size, d)))
        for i in range(cfg.n_layers):
            p = f"layer{i}."
            for name in ("attn.wq", "attn.wk", "attn.wv", "attn.wo"):
                self.store.add(p + name, self._glorot(rng, d, d))
            for name in ("attn.bq", "attn.bk", "attn.bv", "attn.bo"):
                self.store.add(p + name, np.zeros(d))
            self.store.add(p + "ln1.gamma", np.ones(d))
            self.store.add(p + "ln1.beta", np.zeros(d))
            self.store.add(p + "ffn.w1", self._glorot(rng, d, ff))
            self.store.add(p + "ffn.b1", np.zeros(ff))
            self.store.add(p + "ffn.w2", self._glorot(rng, ff, d))
            self.store.add(p + "ffn.b2", np.zeros(d))
            self.store.add(p + "ln2.gamma", np.ones(d))
            self.store.add(p + "ln2.beta", np.zeros(d))
        if self.head == HEAD_CLASSIFIER:
            self.store.add("cls.w", self._glorot(rng, 2 * d, cfg.n_labels))
            self.store.add("cls.b", np.zeros(cfg.n_labels))
        else:
            self.store.add("mlm.w", self._glorot(rng, d, cfg.vocab_size))
            self.store.add("mlm.b", np.zeros(cfg.vocab_size))

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
        """Layer-0 states: scaled token embeddings plus positional code."""
        ids, _ = self._check_inputs(ids, None)
        e = ad.scale(ad.embedding(self.store["embed.tokens"], ids), math.sqrt(self.config.d_model))
        pe = Tensor(self._pe[: ids.shape[1]])
        return ad.dropout(ad.add(e, pe), self.config.dropout, self._dropout_rng, train)

    def _split_heads(self, x: Tensor, batch: int, time: int) -> Tensor:
        cfg = self.config
        return ad.transpose(ad.reshape(x, (batch, time, cfg.n_heads, cfg.d_head)), (0, 2, 1, 3))

    def _layer_graph(self, h: Tensor, i: int, train: bool) -> Tensor:
        cfg = self.config
        batch, time, d = h.shape
        p = self.store
        rate, rng = cfg.dropout, self._dropout_rng

        q = ad.add(ad.matmul(h, p[f"layer{i}.attn.wq"]), p[f"layer{i}.attn.bq"])
        k = ad.add(ad.matmul(h, p[f"layer{i}.attn.wk"]), p[f"layer{i}.attn.bk"])
        v = ad.add(ad.matmul(h, p[f"layer{i}.attn.wv"]), p[f"layer{i}.attn.bv"])
        qh = self._split_heads(q, batch, time)
        kh = self._split_heads(k, batch, time)
        vh = self._split_heads(v, batch, time)
        scores = ad.scale(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(cfg.d_head))
        probs = ad.dropout(ad.softmax(scores, -1), rate, rng, train)
        ctx = ad.reshape(ad.transpose(ad.matmul(probs, vh), (0, 2, 1, 3)), (batch, time, d))
        attn = ad.add(ad.matmul(ctx, p[f"layer{i}.attn.wo"]), p[f"layer{i}.attn.bo"])
        h = ad.layer_norm(
            ad.add(h, ad.dropout(attn, rate, rng, train)),
            p[f"layer{i}.ln1.gamma"],
            p[f"layer{i}.ln1.beta"],
        )
        hidden = ad.relu(ad.add(ad.matmul(h, p[f"layer{i}.ffn.w1"]), p[f"layer{i}.ffn.b1"]))
        ff = ad.add(ad.matmul(hidden, p[f"layer{i}.ffn.w2"]), p[f"layer{i}.ffn.b2"])
        return ad.layer_norm(
            ad.add(h, ad.dropout(ff, rate, rng, train)),
            p[f"layer{i}.ln2.gamma"],
            p[f"layer{i}.ln2.beta"],
        )

    def forward_graph(
        self, ids: np.ndarray, depths: np.ndarray | None = None, train: bool = False
    ) -> tuple[list[Tensor], LayerCounts]:
        """All executed layer states (1..n_max) with exact work counts."""
        ids, depths = self._check_inputs(ids, depths)
        batch, time = ids.shape
        h = self.embed(ids, train)
        n_max = int(depths.max())
        counts = LayerCounts(n_max=n_max, n_tokens=ids.size)
        layers: list[Tensor] = []
        for n in range(1, n_max + 1):
            h_new = self._layer_graph(h, n - 1, train)
            active = depths >= n
            counts.ffn_applications += int(active.sum())
            counts.kv_projections += batch * time
            h = h_new if active.all() else ad.where_mask(active, h_new, h)
            layers.append(h)
        return layers, counts

    def classify_graph(self, h_last: Tensor) -> Tensor:
        """Label distribution from pooled final states."""
        feats = ad.relu(ad.concat([ad.max_pool(h_last, 1), ad.mean_pool(h_last, 1)], axis=-1))
        logits = ad.add(ad.matmul(feats, self.store["cls.w"]), self.store["cls.b"])
        return ad.softmax(logits, -1)

    def task_loss_graph(self, probs: Tensor, gold: np.ndarray) -> Tensor:
        """Mean negative log-probability of the gold labels."""
        gold = np.asarray(gold, dtype=np.int64)
        if gold.size and (gold.min() < 0 or gold.max() >= self.config.n_labels):
            raise ValueError(f"gold label out of range for {self.config.n_labels} labels")
        return ad.mean_all(ad.neg(ad.log(ad.pick(probs, gold))))

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
        Also returns the per-layer mean losses as plain floats.
        """
        masked_flat_idx = np.asarray(masked_flat_idx, dtype=np.int64)
        true_ids = np.asarray(true_ids, dtype=np.int64)
        if masked_flat_idx.size == 0:
            raise ValueError("anytime MLM loss needs at least one masked position")
        ids, _ = self._check_inputs(ids, None)
        batch, time = ids.shape
        layers, _ = self.forward_graph(ids, None, train)
        n_masked = masked_flat_idx.size

        total: Tensor | None = None
        per_layer = np.zeros(len(layers), dtype=np.float64)
        for n, h in enumerate(layers):
            rows = ad.take_rows(ad.reshape(h, (batch * time, self.config.d_model)), masked_flat_idx)
            logits = ad.add(ad.matmul(rows, self.store["mlm.w"]), self.store["mlm.b"])
            nll = ad.neg(ad.pick(ad.log_softmax(logits, -1), true_ids))
            layer_sum = ad.sum_all(nll)
            per_layer[n] = float(layer_sum.data) / n_masked
            total = layer_sum if total is None else ad.add(total, layer_sum)
        return ad.scale(total, 1.0 / n_masked), per_layer

    # ------------------------------------------------------------------
    # inference path (no graph, eval mode, actually skips stopped tokens)

    def embed_infer(self, ids: np.ndarray) -> np.ndarray:
        ids, _ = self._check_inputs(ids, None)
        table = self.store["embed.tokens"].data
        if ids.min() < 0 or ids.max() >= table.shape[0]:
            raise ValueError(f"token id out of range: max id {ids.max()} for vocab {table.shape[0]}")
        return table[ids] * self.config.dtype.type(math.sqrt(self.config.d_model)) + self._pe[: ids.shape[1]]

    def _layer_infer(self, h: np.ndarray, i: int, active: np.ndarray) -> np.ndarray:
        """One layer for the active rows; stopped rows are copied bit-exactly
        yet still contribute keys/values for everyone else's attention."""
        cfg = self.config
        batch, time, d = h.shape
        w = {name: self.store[f"layer{i}.{name}"].data for name in _LAYER_PARAMS}
        k = h @ w["attn.wk"] + w["attn.bk"]
        v = h @ w["attn.wv"] + w["attn.bv"]

        def rows(hq: np.ndarray, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
            # (B, M, d) query rows attending over (B, T, d) keys/values
            b, m, _ = hq.shape
            q = hq @ w["attn.wq"] + w["attn.bq"]
            qh = q.reshape(b, m, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
            kh = keys.reshape(b, time, cfg.n_heads, cfg.d_head).transpose(0, 2, 3, 1)
            vh = values.reshape(b, time, cfg.n_heads, cfg.d_head).transpose(0, 2, 1, 3)
            probs = _softmax_np(np.matmul(qh, kh) / math.sqrt(cfg.d_head))
            ctx = np.matmul(probs, vh).transpose(0, 2, 1, 3).reshape(b, m, d)
            attn = ctx @ w["attn.wo"] + w["attn.bo"]
            hr = _layer_norm_np(hq + attn, w["ln1.gamma"], w["ln1.beta"])
            ff = np.maximum(hr @ w["ffn.w1"] + w["ffn.b1"], 0.0) @ w["ffn.w2"] + w["ffn.b2"]
            return _layer_norm_np(hr + ff, w["ln2.gamma"], w["ln2.beta"])

        if active.all():
            return rows(h, k, v)
        out = h.copy()
        for b in range(batch):
            idx = np.nonzero(active[b])[0]
            if idx.size:
                out[b, idx] = rows(h[b, idx][None], k[b : b + 1], v[b : b + 1])[0]
        return out

    def forward_infer(
        self,
        ids: np.ndarray,
        depths: np.ndarray | None = None,
        collect_layers: bool = False,
    ) -> tuple[np.ndarray | list[np.ndarray], LayerCounts]:
        ids, depths = self._check_inputs(ids, depths)
        batch, time = ids.shape
        h = self.embed_infer(ids)
        n_max = int(depths.max())
        counts = LayerCounts(n_max=n_max, n_tokens=ids.size)
        layers: list[np.ndarray] = []
        for n in range(1, n_max + 1):
            active = depths >= n
            h = self._layer_infer(h, n - 1, active)
            counts.kv_projections += batch * time
            counts.ffn_applications += int(active.sum())
            if collect_layers:
                layers.append(h)
        return (layers if collect_layers else h), counts

    def classify_infer(self, h_last: np.ndarray) -> np.ndarray:
        feats = np.concatenate([h_last.max(axis=1), h_last.mean(axis=1)], axis=-1)
        feats = np.maximum(feats, 0.0)
        logits = feats @ self.store["cls.w"].data + self.store["cls.b"].data
        return _softmax_np(logits)

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
