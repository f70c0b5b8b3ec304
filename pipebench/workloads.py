"""The three generated workloads and why each was chosen.

Every workload runs the whole user pipeline, through the CLI, on a corpus
that ``gen-data`` writes:

    gen-data -> depths --mode mi -> train --task mlm -> depths --mode recon
             -> train --task cls (adaptive, MI depths) -> eval -> eval (fixed)

What differs is the input shape and where the time budget goes: stages
repeat in proportion to ``shares``, so the stage a workload exists for is
measured longest.

The workload seed draws the test split (and so the eval and recon inputs)
and the MLM's initialisation and batch order. The train split, and the
classifier trained on it, always come from ``TRAIN_CORPUS_SEED``: the MI
estimator bins words by fixed-width bins of -log MI whose range is set by
the near-zero-MI words, so the depth table, and with it the adaptive work
per token, swings by 10-15% from one generated train split to the next
even at several thousand documents; adaptive training also runs each
batch to its deepest token, so its batch order sets its work and memory.
Throughput is stated for one depth table; the test sentences it is
applied to vary with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("depths_mi", "train_mlm", "depths_recon", "train_cls", "eval", "eval_fixed")

N_LAYERS = 12  # CLI default encoder depth and MI bin count
TRAIN_CORPUS_SEED = 0
HELDOUT_FRACTION = 0.1  # CLI default for train --task mlm
RECON_PENALTY = 0.1  # CLI default for depths --mode recon


@dataclass(frozen=True)
class TrainShape:
    docs: int  # leading documents of the train split used for training
    steps: int
    batch: int
    d_model: int
    d_ff: int
    max_len: int  # tokenizer clip, as --max-len
    lr: float = 1e-3
    warmup: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    doc_len: int
    n_train: int
    n_test: int
    eval_batch: int
    mlm: TrainShape
    cls: TrainShape
    recon_docs: int  # sentences profiled from each split
    shares: dict[str, float]
    accuracy_floor: float | None = None
    heldout_must_fall: bool = False  # needs enough MLM steps to be a fair check

    def __post_init__(self) -> None:
        if set(self.shares) != set(STAGES):
            raise ValueError(f"{self.name}: shares must name every stage")
        # every training batch is full, so steps * batch * T is the exact
        # token count a training stage processes
        mlm_train = self.mlm.docs - max(1, int(self.mlm.docs * HELDOUT_FRACTION))
        if mlm_train % self.mlm.batch or self.cls.docs % self.cls.batch:
            raise ValueError(f"{self.name}: training splits must divide into full batches")
        if self.cls.docs != self.n_train:
            raise ValueError(f"{self.name}: the classifier trains on the whole split its depth file covers")
        if self.cls.max_len < self.doc_len:
            raise ValueError(f"{self.name}: the classifier must see whole documents")
        if max(self.mlm.docs, 2 * self.recon_docs) > self.n_train:
            raise ValueError(f"{self.name}: slices exceed the train split")

    @property
    def mlm_len(self) -> int:
        """Tokens per document as the MLM and recon stages see them."""
        return min(self.doc_len, self.mlm.max_len)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="short-pipeline",
            why=(
                "T=12 over a 46-word vocabulary: per-op Python overhead (graph building, "
                "backward, adam_step) dominates, BLAS work is small; eval at batch 1"
            ),
            doc_len=12,
            n_train=960,
            n_test=300,
            eval_batch=1,
            mlm=TrainShape(docs=160, steps=20, batch=16, d_model=48, d_ff=128, max_len=32),
            cls=TrainShape(docs=960, steps=20, batch=16, d_model=64, d_ff=256, max_len=32, lr=3e-3, warmup=5),
            recon_docs=40,
            shares={"depths_mi": 3, "train_mlm": 4, "depths_recon": 4, "train_cls": 5, "eval": 5, "eval_fixed": 5},
            accuracy_floor=0.9,
            heldout_must_fall=True,
        ),
        Workload(
            name="long-eval",
            why=(
                "T=128 inference: MI depths average 3.8 and about a quarter of sentences reach "
                "layer 12, but every batch of 15 does, so batch coupling is maximal; fixed eval is the control"
            ),
            doc_len=128,
            n_train=1300,
            n_test=90,
            eval_batch=15,
            mlm=TrainShape(docs=44, steps=2, batch=4, d_model=48, d_ff=128, max_len=32),
            cls=TrainShape(docs=1300, steps=2, batch=4, d_model=64, d_ff=256, max_len=128),
            recon_docs=1,
            shares={"depths_mi": 5, "train_mlm": 3, "depths_recon": 3, "train_cls": 3, "eval": 6, "eval_fixed": 4},
        ),
        Workload(
            name="mid-recon",
            why=(
                "T=64 full-depth paths on large arrays: MLM graph plus backward is BLAS-bound "
                "and recon profiles read every layer, never skipping a token"
            ),
            doc_len=64,
            n_train=400,
            n_test=100,
            eval_batch=4,
            mlm=TrainShape(docs=160, steps=6, batch=16, d_model=48, d_ff=128, max_len=64),
            cls=TrainShape(docs=400, steps=3, batch=16, d_model=64, d_ff=256, max_len=64),
            recon_docs=2,
            shares={"depths_mi": 3, "train_mlm": 5, "depths_recon": 5, "train_cls": 3, "eval": 4, "eval_fixed": 4},
            heldout_must_fall=True,
        ),
    )
}
