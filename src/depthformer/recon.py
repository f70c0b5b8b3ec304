"""Depth estimation from masked-reconstruction loss.

An anytime-prediction masked language model (one shared vocabulary
classifier read at every layer, per-layer losses summed with equal
weights) is trained on the task corpus. To estimate a token's depth, the
token is replaced by ``<MASK>``, the sentence runs through the full
stack, and the layer whose reconstruction loss -- plus a linear penalty
``penalty * layer`` that biases the choice shallow -- is smallest becomes
the token's depth. Labels are never consulted, so this estimator also
covers the test split and unlabeled text.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import autodiff as ad
from .corpus import SPECIAL_TOKENS, Corpus, Vocab
from .encoder import HEAD_MLM, AdaptiveEncoder, EncoderConfig, LayerCounts, anytime_loss
from .train import FitSettings, StepRecord, fit, length_buckets

# masked variants per profile forward; 4 to 64 all timed alike at T=128
PROFILE_CHUNK_ROWS = 32


def mask_batch(
    ids: np.ndarray,
    mask_id: int,
    vocab_size: int,
    rng: np.random.Generator,
    mask_rate: float = 0.15,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BERT-style corruption: per sentence pick ~rate positions, then
    80% become <MASK>, 10% a random non-special word, 10% stay unchanged.

    Returns (corrupted ids, flat indices into batch*time, true ids).
    """
    if mask_rate <= 0 or mask_rate >= 1:
        raise ValueError(f"mask rate must be in (0, 1), got {mask_rate}")
    if vocab_size <= len(SPECIAL_TOKENS):
        raise ValueError("vocabulary has no regular words to sample replacements from")
    batch, time = ids.shape
    corrupted = ids.copy()
    flat_idx: list[int] = []
    true_ids: list[int] = []
    n_mask = max(1, int(round(mask_rate * time)))
    for b in range(batch):
        positions = rng.choice(time, size=n_mask, replace=False)
        for t in positions:
            flat_idx.append(b * time + int(t))
            true_ids.append(int(ids[b, t]))
            roll = rng.random()
            if roll < 0.8:
                corrupted[b, t] = mask_id
            elif roll < 0.9:
                corrupted[b, t] = rng.integers(len(SPECIAL_TOKENS), vocab_size)
    return corrupted, np.asarray(flat_idx, dtype=np.int64), np.asarray(true_ids, dtype=np.int64)


def anytime_loss_on_docs(
    encoder: AdaptiveEncoder,
    docs_tokens: list[np.ndarray],
    vocab: Vocab,
    seed: int = 0,
    mask_rate: float = 0.15,
    batch_size: int = 32,
) -> float:
    """Deterministic summed anytime loss over a document slice.

    Masking uses its own generator seeded here, so evaluation never
    perturbs a caller's RNG stream. Returns the per-masked-position loss
    summed over layers, averaged over all batches by masked count: the
    training loss's value, from the inference path, building no graph.
    """
    rng = np.random.default_rng(seed)
    lengths = [len(t) for t in docs_tokens]
    total = 0.0
    n_masked = 0
    for idx in length_buckets(lengths, batch_size):
        ids = np.stack([docs_tokens[i] for i in idx])
        corrupted, flat_idx, true_ids = mask_batch(
            ids, vocab.mask_id, len(vocab), rng, mask_rate
        )
        layers, _ = encoder.forward_infer(corrupted, None, collect_layers=True)
        sums = [encoder.masked_nll_infer(h, flat_idx, true_ids)[1].sum() for h in layers]
        total += float(anytime_loss(sums, flat_idx.size)) * flat_idx.size
        n_masked += flat_idx.size
    return total / n_masked


@dataclass
class MlmTrainResult:
    encoder: AdaptiveEncoder
    log: list[StepRecord]
    heldout_log: list[tuple[int, float]]  # (step, held-out anytime loss), from step 0 to the last


def train_mlm(
    corpus: Corpus,
    config: EncoderConfig,
    settings: FitSettings,
    seed: int = 0,
    mask_rate: float = 0.15,
    heldout_fraction: float = 0.1,
    eval_every: int = 0,
) -> MlmTrainResult:
    """Train the anytime MLM from scratch at full depth.

    A trailing slice of the corpus, ``heldout_fraction`` of it (in (0, 1),
    at least one document), is held out from the sampled batches and
    scored before and after training, and every ``eval_every`` steps when
    that is positive; with ``settings.steps == 0`` the returned checkpoint
    is exactly the initialization.
    """
    if not 0.0 < heldout_fraction < 1.0:  # also rejects NaN
        raise ValueError(f"heldout_fraction must be in (0, 1), got {heldout_fraction}")
    if eval_every < 0:
        raise ValueError(f"eval_every must be >= 0, got {eval_every}")
    model_seed, data_seed, eval_seed = np.random.SeedSequence(seed).spawn(3)
    encoder = AdaptiveEncoder(config, HEAD_MLM, seed=int(model_seed.generate_state(1)[0]))
    data_rng = np.random.default_rng(data_seed)
    eval_seed = int(eval_seed.generate_state(1)[0])

    n_heldout = max(1, int(len(corpus.documents) * heldout_fraction))
    train_docs = [d.tokens for d in corpus.documents[:-n_heldout]]
    heldout_docs = [d.tokens for d in corpus.documents[-n_heldout:]]
    if not train_docs:
        raise ValueError("corpus too small to hold out an evaluation slice")

    def heldout_loss() -> float:
        return anytime_loss_on_docs(encoder, heldout_docs, corpus.vocab, seed=eval_seed, mask_rate=mask_rate)

    heldout_log: list[tuple[int, float]] = [(0, heldout_loss())]

    def batch_loss(idx: np.ndarray) -> tuple[ad.Tensor, LayerCounts]:
        ids = np.stack([train_docs[i] for i in idx])
        corrupted, flat_idx, true_ids = mask_batch(
            ids, corpus.vocab.mask_id, len(corpus.vocab), data_rng, mask_rate
        )
        loss, _, counts = encoder.mlm_anytime_loss_graph(corrupted, flat_idx, true_ids, train=True)
        return loss, counts

    def after_step(step: int) -> None:
        if eval_every and step % eval_every == 0:
            heldout_log.append((step, heldout_loss()))

    lengths = [len(t) for t in train_docs]
    log = fit(encoder, batch_loss, lengths, settings, data_rng, after_step)
    if heldout_log[-1][0] != len(log):
        heldout_log.append((len(log), heldout_loss()))
    return MlmTrainResult(encoder=encoder, log=log, heldout_log=heldout_log)


# ---------------------------------------------------------------------------
# depth selection


def sentence_profiles(encoder: AdaptiveEncoder, tokens: np.ndarray, mask_id: int) -> np.ndarray:
    """Loss profiles for every position of an (n, T) stack of equal-length
    sentences, shape (n, T, N); one sentence as a vector gives (T, N).

    Each variant masks exactly one position; the variants, in (sentence,
    position) order, are merely batched together, ``PROFILE_CHUNK_ROWS`` at
    a time and across sentence boundaries, for throughput. Every row of a
    forward is computed on its own, so a profile does not depend on its
    neighbours, save that BLAS may sum a row of the head product in another
    order when the product has another number of rows.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    stack = tokens if tokens.ndim == 2 else tokens[None, :]
    n, time = stack.shape
    flat = stack.reshape(-1)  # variant r masks sentence r // T at position r % T
    profiles = np.empty((n * time, encoder.config.n_layers), dtype=np.float64)
    for start in range(0, n * time, PROFILE_CHUNK_ROWS):
        stop = min(start + PROFILE_CHUNK_ROWS, n * time)
        variant = np.arange(start, stop)
        rows, pos = variant - start, variant % time
        variants = stack[variant // time]
        variants[rows, pos] = mask_id
        layer_states, _ = encoder.forward_infer(variants, None, collect_layers=True)
        masked = rows * time + pos  # flat index of variant r's masked position
        for layer, h in enumerate(layer_states):
            profiles[start:stop, layer] = encoder.masked_nll_infer(h, masked, flat[start:stop])[1]
    return profiles.reshape(*tokens.shape, encoder.config.n_layers)


def check_penalty(penalty: float) -> None:
    if not penalty >= 0:  # also rejects NaN
        raise ValueError(f"penalty must be >= 0, got {penalty}")


def _penalized_argmin(profiles: np.ndarray, penalty: float) -> np.ndarray:
    """The depth of each row of an (n, N) float64 array of profiles: the
    1-based argmin of the row plus ``penalty`` per layer, the shallowest of
    ties. The linear term charges each extra layer ``penalty``, so raising
    the penalty can only move the choice shallower."""
    if not np.all(np.isfinite(profiles)):
        raise ValueError("profile contains non-finite losses")
    scores = profiles + penalty * np.arange(1, profiles.shape[1] + 1, dtype=np.float64)
    return scores.argmin(axis=1) + 1


def select_depth(profile: np.ndarray, penalty: float) -> int:
    """Penalized argmin over the layers of one profile, 1-based; ties go to
    the shallowest (``_penalized_argmin``)."""
    check_penalty(penalty)
    profile = np.asarray(profile, dtype=np.float64)
    if profile.ndim != 1 or profile.size < 1:
        raise ValueError(f"profile must be a non-empty vector, got shape {profile.shape}")
    return int(_penalized_argmin(profile[None, :], penalty)[0])


def depths_from_profiles(profiles: list[np.ndarray], penalty: float) -> list[np.ndarray]:
    """Each sentence's depths from its (T, N) profiles: one penalized
    argmin over the split's profiles, cut into one view per sentence."""
    check_penalty(penalty)
    if not profiles:
        return []
    lengths = [len(p) for p in profiles]
    stacked = np.concatenate(profiles, dtype=np.float64)
    if stacked.ndim != 2 or stacked.shape[1] < 1:
        raise ValueError(f"profiles must be (tokens, layers) arrays with a layer, got shape {stacked.shape}")
    flat = _penalized_argmin(stacked, penalty)
    return [flat[end - n : end] for n, end in zip(lengths, accumulate(lengths))]


def corpus_profiles(encoder: AdaptiveEncoder, corpus: Corpus) -> list[np.ndarray]:
    """Loss profiles for every sentence of a split, in corpus order; the
    sentences of each length are profiled together. Label-free."""
    lengths = [len(doc.tokens) for doc in corpus.documents]
    profiles: dict[int, np.ndarray] = {}
    for idx in length_buckets(lengths, max(len(lengths), 1)):
        stack = np.stack([corpus.documents[i].tokens for i in idx])
        profiles.update(zip(idx.tolist(), sentence_profiles(encoder, stack, corpus.vocab.mask_id)))
    return [profiles[i] for i in range(len(corpus.documents))]


def average_depth(depth_maps: list[np.ndarray]) -> float:
    """The mean depth over every token of every map, from one sum."""
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *depth_maps])
    return int(flat.sum()) / flat.size if flat.size else 0.0
