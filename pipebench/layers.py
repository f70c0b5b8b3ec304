"""Which public functions the traced run wraps, and the per-layer metrics
computed from one traced pass of the pipeline.

Layers are the modules of ``src/depthformer/``; ``synth`` and ``cli``
only produce inputs or dispatch, so they get no spans.
"""

from __future__ import annotations

import inspect
import os
from statistics import median
from collections import defaultdict

from .spans import Span, Target, self_times_ns
from .stats import tail_percentile


def _record_predict(args, kwargs, result, span: Span) -> None:
    encoder, ids = args[0], args[1]
    depths = args[2] if len(args) > 2 else kwargs.get("depths")
    counts = result[2]
    span.attrs.update(
        adaptive=depths is not None,
        ffn=counts.ffn_applications,
        kv=counts.kv_projections,
        tokens=int(getattr(ids, "size", 0)),
        n_layers=encoder.config.n_layers,
    )


def _record_forward_graph(args, kwargs, result, span: Span) -> None:
    counts = result[1]
    span.attrs.update(rows_active=counts.ffn_applications, rows_computed=counts.kv_projections)


def _adam_recorder(adam_step):
    signature = inspect.signature(adam_step)

    def record(args, kwargs, result, span: Span) -> None:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        span.attrs.update(grad_norm=float(result), clip=float(bound.arguments["clip"]))

    return record


def _record_depth_maps(args, kwargs, result, span: Span) -> None:
    span.attrs.update(depth_sum=sum(int(m.sum()) for m in result), tokens=sum(len(m) for m in result))


def _record_save(args, kwargs, result, span: Span) -> None:
    path = args[0] if args else kwargs["path"]
    span.attrs.update(bytes=os.path.getsize(path))


def targets() -> list[Target]:
    from depthformer import autodiff, bench, checkpoint, corpus, mi, optim, recon, train
    from depthformer.encoder import AdaptiveEncoder

    return [
        Target(corpus, "load_tsv", "corpus.load_tsv"),
        Target(corpus, "collect_stats", "corpus.collect_stats"),
        Target(mi, "build_mi_table", "mi.build_mi_table"),
        Target(mi, "corpus_depth_maps", "mi.corpus_depth_maps", _record_depth_maps),
        Target(mi, "write_depth_file", "mi.write_depth_file"),
        Target(AdaptiveEncoder, "forward_infer", "encoder.forward_infer"),
        Target(AdaptiveEncoder, "predict", "encoder.predict", _record_predict),
        Target(AdaptiveEncoder, "mlm_log_probs_infer", "encoder.mlm_log_probs_infer"),
        Target(AdaptiveEncoder, "forward_graph", "encoder.forward_graph", _record_forward_graph),
        Target(AdaptiveEncoder, "mlm_anytime_loss_graph", "encoder.mlm_anytime_loss_graph"),
        Target(autodiff, "backward", "autodiff.backward"),
        Target(optim, "adam_step", "optim.adam_step", _adam_recorder(optim.adam_step)),
        Target(train, "train_classifier", "train.train_classifier"),
        Target(recon, "train_mlm", "recon.train_mlm"),
        Target(recon, "sentence_profiles", "recon.sentence_profiles"),
        Target(checkpoint, "save_checkpoint", "checkpoint.save", _record_save),
        Target(checkpoint, "load_checkpoint", "checkpoint.load"),
        Target(bench, "evaluate_classifier", "bench.evaluate_classifier"),
    ]


SELF_MS = (
    "corpus.load_tsv",
    "corpus.collect_stats",
    "mi.build_mi_table",
    "mi.corpus_depth_maps",
    "mi.write_depth_file",
    "encoder.forward_infer",
    "encoder.predict",
    "encoder.mlm_log_probs_infer",
    "encoder.forward_graph",
    "encoder.mlm_anytime_loss_graph",
    "autodiff.backward",
    "optim.adam_step",
    "train.train_classifier",
    "recon.train_mlm",
    "recon.sentence_profiles",
    "checkpoint.save",
    "checkpoint.load",
    "bench.evaluate_classifier",
)
CALLS = ("encoder.forward_infer", "encoder.forward_graph", "autodiff.backward")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS: dict[str, str] = {
    **{f"{name}.self_ms": "ms" for name in SELF_MS},
    **{f"{name}.calls": "count" for name in CALLS},
    "encoder.ffn_applications": "count",
    "encoder.kv_projections": "count",
    "encoder.useful_ratio": "fraction",
    "encoder.count_ratio": "fraction",
    "encoder.forward_graph.rows_computed": "count",
    "encoder.forward_graph.rows_active": "count",
    "recon.profile_ms_p50": "ms",
    "optim.grad_norm_p50": "norm",
    "optim.clipped_steps": "count",
    "train.step_ms_p50": "ms",
    "train.step_ms_tail": "ms",
    "mi.avg_depth": "layers",
    "checkpoint.bytes": "bytes",
    "trace.overhead_pct": "%",
}


def per_layer_metrics(spans: list[Span]) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer values from the spans of one traced pipeline pass, plus
    notes naming the percentile the tail figures stand for."""
    selfs = self_times_ns(spans)
    self_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span, own in zip(spans, selfs):
        self_ns[span.name] += own
        calls[span.name] += 1
        by_name[span.name].append(span)

    out: dict[str, float] = {f"{name}.self_ms": self_ns[name] / 1e6 for name in SELF_MS}
    out.update({f"{name}.calls": calls[name] for name in CALLS})

    adaptive = [s.attrs for s in by_name["encoder.predict"] if s.attrs["adaptive"]]
    ffn = sum(a["ffn"] for a in adaptive)
    kv = sum(a["kv"] for a in adaptive)
    full = sum(a["n_layers"] * a["tokens"] for a in adaptive)
    out["encoder.ffn_applications"] = ffn
    out["encoder.kv_projections"] = kv
    out["encoder.useful_ratio"] = ffn / kv if kv else 0.0
    out["encoder.count_ratio"] = ffn / full if full else 0.0

    graph = [s.attrs for s in by_name["encoder.forward_graph"]]
    out["encoder.forward_graph.rows_computed"] = sum(a["rows_computed"] for a in graph)
    out["encoder.forward_graph.rows_active"] = sum(a["rows_active"] for a in graph)

    profiles = [s.duration_ns / 1e6 for s in by_name["recon.sentence_profiles"]]
    out["recon.profile_ms_p50"] = median(profiles) if profiles else 0.0

    adam = [s.attrs for s in by_name["optim.adam_step"]]
    out["optim.grad_norm_p50"] = median([a["grad_norm"] for a in adam]) if adam else 0.0
    out["optim.clipped_steps"] = sum(a["grad_norm"] > a["clip"] for a in adam)

    notes: dict[str, str] = {}
    steps = classifier_step_ms(spans)
    out["train.step_ms_p50"] = median(steps) if steps else 0.0
    tail = tail_percentile(steps)
    out["train.step_ms_tail"] = tail[1] if tail else max(steps, default=0.0)
    notes["train.step_ms_tail"] = f"p{tail[0]:g} of {len(steps)} steps" if tail else f"max of {len(steps)} steps"

    maps = [s.attrs for s in by_name["mi.corpus_depth_maps"]]
    tokens = sum(a["tokens"] for a in maps)
    out["mi.avg_depth"] = sum(a["depth_sum"] for a in maps) / tokens if tokens else 0.0
    out["checkpoint.bytes"] = sum(s.attrs["bytes"] for s in by_name["checkpoint.save"])
    notes["trace.spans"] = f"{len(spans)} spans in run {spans[0].run_id}" if spans else "no spans"
    return out, notes


def classifier_step_ms(spans: list[Span]) -> list[float]:
    """Per-step time of classifier training: from the start of each
    forward_graph to the end of the adam_step that follows it, for the
    calls made directly by train_classifier."""
    steps: list[float] = []
    for i, span in enumerate(spans):
        if span.name != "train.train_classifier":
            continue
        kids = [s for s in spans if s.parent == i]
        starts = [s.start_ns for s in kids if s.name == "encoder.forward_graph"]
        ends = [s.end_ns for s in kids if s.name == "optim.adam_step"]
        steps.extend((end - start) / 1e6 for start, end in zip(starts, ends))
    return steps
