"""What the benchmark under ``pipebench/`` reads from the package, checked in
tier-1 so that a rename fails here rather than in a traced benchmark run.

``pipebench/layers.targets()`` names every function the traced run
(``--trace 1``) wraps, by owner and attribute; its checks read the
top-layer states of ``forward_graph`` as ``forward_graph(...)[0][-1].data``.
Nothing under ``pipebench/`` is changed here.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from depthformer import optim  # noqa: E402
from depthformer.encoder import AdaptiveEncoder, EncoderConfig  # noqa: E402
from pipebench.layers import targets  # noqa: E402


def test_every_traced_target_is_its_owners_own_attribute():
    # the tracer swaps ``owner.__dict__[attr]``, so an attribute that moved,
    # was renamed or is only inherited fails the traced run
    missing = [f"{t.owner.__name__}.{t.attr}" for t in targets() if t.attr not in vars(t.owner)]
    assert missing == []


def test_adam_step_takes_clip_by_name():
    # the tracer's Adam recorder binds the call to the signature and reads "clip"
    assert "clip" in inspect.signature(optim.adam_step).parameters


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("routed", [False, True], ids=["unrouted", "routed"])
def test_graph_top_state_is_the_inference_state(precision, routed):
    # the benchmark's infer_states_match_graph check reads exactly this
    cfg = EncoderConfig(vocab_size=20, n_labels=2, n_layers=3, d_model=16, n_heads=2, d_ff=32, precision=precision)
    enc = AdaptiveEncoder(cfg, head="cls", seed=1)
    gen = np.random.default_rng(2)
    ids = gen.integers(3, 20, size=(4, 7))
    depths = gen.integers(1, 4, size=ids.shape) if routed else None
    graph = enc.forward_graph(ids, depths)[0][-1].data
    inferred, _ = enc.forward_infer(ids, depths)
    assert graph.shape == inferred.shape == (4, 7, 16)
    assert graph.dtype == inferred.dtype == cfg.dtype
    assert np.array_equal(graph, inferred)
