"""Output checks. Each check is one op: a check that fails or raises
counts as a failed op and makes the run incorrect.

Expected values are derived independently of the program where that is
cheap: token counts from whitespace splitting of the generated text,
batch-coupling cost from the depth files alone.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .pipeline import Pipeline
from .stats import expected_kv_projections
from .workloads import N_LAYERS, RECON_PENALTY

# Untrained and briefly trained classifiers sit near p=0.5, where an argmax
# comparison could flip on rounding, so probabilities are compared instead.
# float32 logits summed in a different batch layout agree to about 1e-6.
PROB_ATOL = 1e-5
# Layer-normed float32 states of order 1 from the inference and graph paths
# agree to about 2e-6; a wrong row or a missed mask is off by order 1.
STATE_ATOL = 1e-4
SAMPLE_BATCH = 15
PENALTIES = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str


def _doc_lengths(tsv: Path, max_len: int) -> list[int]:
    return [min(len(line.split("\t", 1)[1].split()), max_len) for line in tsv.read_text(encoding="utf-8").splitlines()]


def _read_depths(path: Path) -> list[list[int]]:
    return [[int(tok) for tok in line.split()] for line in path.read_text(encoding="utf-8").splitlines()]


def _depth_file_problem(path: Path, lengths: list[int]) -> str | None:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != len(lengths):
        return f"{path.name}: {len(lines)} lines for {len(lengths)} documents"
    for i, (line, n) in enumerate(zip(lines, lengths)):
        toks = line.split()
        if len(toks) != n:
            return f"{path.name}:{i + 1}: {len(toks)} depths for {n} tokens"
        if not all(t.isdigit() and 1 <= int(t) <= N_LAYERS for t in toks):
            return f"{path.name}:{i + 1}: depth outside integers 1..{N_LAYERS}: {line!r}"
    return None


def _finite_log(path: Path, steps: int) -> str | None:
    losses = [float(line.split("\t")[1]) for line in path.read_text(encoding="utf-8").splitlines()]
    if len(losses) != steps:
        return f"{path.name}: {len(losses)} steps logged, {steps} requested"
    bad = [x for x in losses if not math.isfinite(x)]
    return f"{path.name}: non-finite losses {bad[:3]}" if bad else None


def run_checks(p: Pipeline) -> list[Check]:
    checks: list[Check] = []

    def check(name: str, fn) -> None:
        try:
            problem = fn()
            checks.append(Check(name, problem is None, problem or "ok"))
        except Exception:
            checks.append(Check(name, False, traceback.format_exc(limit=2).strip()))

    def ran(*stages: str) -> bool:
        return all(p.stages[s].stdout and not p.stages[s].error for s in stages)

    w = p.w
    check("setup_reruns_identical", lambda: None if len(set(p.setup_digests)) == 1 else "gen-data output differs")
    for stage in p.stages.values():
        if stage.stdout:
            check(f"{stage.name}_reruns_identical",
                  lambda s=stage: None if len(set(s.digests)) == 1 else f"{len(set(s.digests))} distinct outputs")

    if ran("depths_mi"):
        check("mi_depths_integer_aligned", lambda: (
            _depth_file_problem(p.mi_dir / "train.depths", _doc_lengths(p.train_tsv, w.cls.max_len))
            or _depth_file_problem(p.mi_dir / "test.depths", _doc_lengths(p.test_tsv, w.cls.max_len))))
    if ran("train_mlm"):
        check("mlm_losses_finite", lambda: _finite_log(Path(f"{p.mlm_ckpt}.log"), w.mlm.steps))
        if w.heldout_must_fall:
            check("mlm_heldout_loss_falls", lambda: _heldout_falls(p.stages["train_mlm"].stdout[0]))
    if ran("depths_recon"):
        check("recon_depths_integer_aligned", lambda: (
            _depth_file_problem(p.recon_dir / "train.depths", _doc_lengths(p.recon_train_tsv, w.mlm.max_len))
            or _depth_file_problem(p.recon_dir / "test.depths", _doc_lengths(p.recon_test_tsv, w.mlm.max_len))))
        check("recon_penalty_never_deepens", lambda: _penalty_sweep(p))
    if ran("train_cls"):
        check("cls_losses_finite", lambda: _finite_log(Path(f"{p.cls_ckpt}.log"), w.cls.steps))
        check("full_depth_bit_identical", lambda: _full_depth_identical(p))
        check("infer_states_match_graph", lambda: _infer_matches_graph(p))
        check("batch_probs_match_single", lambda: _batch_vs_single(p))
    if ran("eval"):
        fields = p.eval_fields("eval")
        depths = _read_depths(p.mi_dir / "test.depths")
        check("eval_ffn_equals_depth_sum", lambda: _equal(
            "ffn_applications", int(fields["ffn_applications"]), sum(map(sum, depths))))
        check("eval_kv_matches_batch_coupling", lambda: _equal(
            "kv_projections", int(fields["kv_projections"]), expected_kv_projections(depths, w.eval_batch)))
        if w.accuracy_floor is not None:
            check("accuracy_floor", lambda: None if float(fields["accuracy"]) >= w.accuracy_floor
                  else f"accuracy {fields['accuracy']} < floor {w.accuracy_floor}")
    if ran("eval_fixed"):
        fields = p.eval_fields("eval_fixed")
        full = N_LAYERS * w.n_test * w.doc_len
        check("eval_fixed_counts_full_depth", lambda: _equal("ffn_applications", int(fields["ffn_applications"]), full)
              or _equal("kv_projections", int(fields["kv_projections"]), full))
    return checks


def _equal(what: str, got: int, want: int) -> str | None:
    return None if got == want else f"{what} {got} != expected {want}"


def _heldout_falls(stdout: str) -> str | None:
    for line in stdout.splitlines():
        parts = line.split("\t")
        if parts[0] == "heldout_anytime_loss":
            initial, final = float(parts[2]), float(parts[4])
            return None if final < initial else f"held-out loss {initial} -> {final}"
    return "no heldout_anytime_loss line"


def _load(ckpt: Path, tsv: Path):
    """A checkpoint and a split tokenized with its sidecars, as the CLI does."""
    from depthformer.corpus import TokenizerConfig, Vocab, load_tsv
    from depthformer.encoder import AdaptiveEncoder

    encoder, meta = AdaptiveEncoder.load(ckpt)
    vocab = Vocab.read(f"{ckpt}.vocab.tsv")
    config = TokenizerConfig(max_len=int(meta["max_len"]), lowercase=meta["lowercase"] == "True",
                             min_freq=int(meta["min_freq"]))
    return encoder, load_tsv(tsv, config, vocab=vocab, labels=meta["labels"].split(","))


def _sample(p: Pipeline):
    """The classifier and the first test sentences with their MI depths."""
    encoder, corpus = _load(p.cls_ckpt, p.test_tsv)
    n = min(SAMPLE_BATCH, len(corpus.documents))
    ids = np.stack([d.tokens for d in corpus.documents[:n]])
    depths = np.asarray(_read_depths(p.mi_dir / "test.depths")[:n])
    return encoder, ids, depths


def _full_depth_identical(p: Pipeline) -> str | None:
    """A regression guard: ``forward_infer`` turns ``depths=None`` into the
    all-N map, so both calls take the full-layer path today. It fails when
    a depth-given call stops taking that path at full depth."""
    encoder, ids, _ = _sample(p)
    fixed, _ = encoder.forward_infer(ids, None)
    adaptive, _ = encoder.forward_infer(ids, np.full(ids.shape, encoder.config.n_layers))
    return None if np.array_equal(fixed, adaptive) else "all-depth-N states differ from the fixed pass"


def _infer_matches_graph(p: Pipeline) -> str | None:
    """Top-layer states of the inference path at MI depths (partial layers,
    stopped rows copied) against the graph path, a separate implementation
    that computes every row and masks the update."""
    encoder, ids, depths = _sample(p)
    inferred, _ = encoder.forward_infer(ids, depths)
    graph = encoder.forward_graph(ids, depths)[0][-1].data
    worst = float(np.abs(inferred - graph).max())
    return None if worst <= STATE_ATOL else f"max |h_infer - h_graph| = {worst:.3g} > {STATE_ATOL}"


def _batch_vs_single(p: Pipeline) -> str | None:
    encoder, ids, depths = _sample(p)
    _, batched, _ = encoder.predict(ids, depths)
    single = np.concatenate([encoder.predict(ids[i : i + 1], depths[i : i + 1])[1] for i in range(len(ids))])
    worst = float(np.abs(batched - single).max())
    return None if worst <= PROB_ATOL else f"max |p_batch - p_single| = {worst:.3g} > {PROB_ATOL}"


def _penalty_sweep(p: Pipeline) -> str | None:
    """Profiles scored once; larger penalties must never deepen the
    average, and the stage's own penalty must reproduce its depth file."""
    from depthformer import recon

    encoder, corpus = _load(p.mlm_ckpt, p.recon_test_tsv)
    profiles = recon.corpus_profiles(encoder, corpus)
    written = _read_depths(p.recon_dir / "test.depths")
    if [m.tolist() for m in recon.depths_from_profiles(profiles, RECON_PENALTY)] != written:
        return "depths from reused profiles differ from the written depth file"
    averages = [recon.average_depth(recon.depths_from_profiles(profiles, lam)) for lam in PENALTIES]
    rises = [(a, b) for a, b in zip(averages, averages[1:]) if b > a]
    return f"average depth rose with the penalty: {averages}" if rises else None
