import tracemalloc

import numpy as np
import pytest

from depthformer import autodiff as ad
from depthformer.autodiff import Tensor
from depthformer.encoder import AdaptiveEncoder, EncoderConfig
from depthformer.optim import ADAM_BLOCK, ParamStore, adam_step

import reference_graph as ops


def make_store():
    store = ParamStore({"a": (3,), "b": (1, 2)}, dtype=np.float64)
    store["a"].data[...] = [1.0, 2.0, 3.0]
    store["b"].data[...] = [[0.5, -0.5]]
    return store


class TestParamStore:
    def test_zero_grad_fills_zeros(self):
        store = make_store()
        store.grad[:] = 7.0
        store.zero_grad()
        assert all(np.all(p.grad == 0) for p in store.params.values())

    def test_moments_match_shapes(self):
        store = make_store()
        for flat in (store.data, store.grad, store.m, store.v):
            assert flat.shape == (5,) and flat.dtype == np.float64
        assert [p.data.shape for p in store.params.values()] == [(3,), (1, 2)]
        np.testing.assert_array_equal(store.data, [1.0, 2.0, 3.0, 0.5, -0.5])

    def test_load_arrays_validates_shape(self):
        store = make_store()
        with pytest.raises(ValueError, match="shape"):
            store.load_arrays({"a": np.zeros((2, 2))})

    def test_load_arrays_rejects_missing_names(self):
        store = make_store()
        with pytest.raises(ValueError, match="missing parameters: b"):
            store.load_arrays({"a": np.zeros(3)})

    def test_load_arrays_rejects_unknown_names(self):
        store = make_store()
        arrays = {**store.state_arrays(), "x": np.zeros(1), "y": np.zeros(1)}
        with pytest.raises(ValueError, match="unknown parameters: x, y"):
            store.load_arrays(arrays)


class TestClipping:
    # adam_step clips the gradient in place before it updates
    def test_norm_below_threshold_untouched(self):
        store = make_store()
        store.zero_grad()
        store.params["a"].grad[:] = [3.0, 0.0, 0.0]
        norm = adam_step(store, lr=1e-3, clip=5.0)
        assert norm == pytest.approx(3.0)
        np.testing.assert_allclose(store.params["a"].grad, [3.0, 0.0, 0.0])

    def test_global_norm_fifty_rescaled_to_five(self):
        store = ParamStore({"w": (4,)}, dtype=np.float64)
        store.zero_grad()
        store.params["w"].grad[:] = [30.0, 40.0, 0.0, 0.0]  # norm 50
        norm = adam_step(store, lr=1e-3, clip=5.0)
        assert norm == pytest.approx(50.0)
        np.testing.assert_allclose(store.params["w"].grad, [3.0, 4.0, 0.0, 0.0])

    def test_non_finite_gradient_fails_fast(self):
        store = make_store()
        store.zero_grad()
        store.params["a"].grad[0] = np.nan
        before = store.data.copy()
        with pytest.raises(FloatingPointError):
            adam_step(store, lr=1e-3, clip=5.0)
        assert np.array_equal(store.data, before) and not store.m.any() and store.step_count == 0


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        store = make_store()
        before = {n: p.data.copy() for n, p in store.params.items()}
        store.zero_grad()
        adam_step(store, lr=1e-3)
        for name, p in store.params.items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_step_count_increments(self):
        store = make_store()
        store.zero_grad()
        adam_step(store, lr=1e-3)
        adam_step(store, lr=1e-3)
        assert store.step_count == 2

    def test_quadratic_loss_decreases_monotonically(self):
        store = ParamStore({"w": (1,)}, dtype=np.float64)
        w = store["w"]
        target = Tensor(np.array([-3.0]))
        losses = []
        for _ in range(100):
            diff = ops.add(w, target)
            loss = ops.sum_all(ops.mul(diff, diff))
            losses.append(float(loss.data))
            store.zero_grad()
            ad.backward(loss)
            adam_step(store, lr=1e-3)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_first_step_matches_hand_computation(self):
        # with bias correction the very first update is lr * g/(|g| + eps)
        store = ParamStore({"w": (2,)}, dtype=np.float64)
        store["w"].data[...] = [1.0, -1.0]
        store.zero_grad()
        store.params["w"].grad[:] = [0.3, -0.2]
        adam_step(store, lr=0.01, clip=100.0)
        expected = np.array([1.0, -1.0]) - 0.01 * np.sign([0.3, -0.2])
        np.testing.assert_allclose(store.params["w"].data, expected, atol=1e-6)


class PerParameterAdam:
    """The store before the flat arrays: a fresh zeroed gradient per tensor
    each step, and clipping and Adam run tensor by tensor."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.data = {name: a.copy() for name, a in arrays.items()}
        self.grad = {name: None for name in arrays}
        self.m = {name: np.zeros_like(a) for name, a in arrays.items()}
        self.v = {name: np.zeros_like(a) for name, a in arrays.items()}
        self.step_count = 0

    def zero_grad(self):
        for name, a in self.data.items():
            self.grad[name] = np.zeros_like(a)

    def adam_step(self, lr, clip, beta1=0.9, beta2=0.999, eps=1e-8):
        total = 0.0
        for g in self.grad.values():
            total += float(np.sum(g.astype(np.float64) ** 2))
        norm = float(np.sqrt(total))
        if norm > clip:
            factor = clip / norm
            for g in self.grad.values():
                g *= factor
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t
        for name, g in self.grad.items():
            m, v = self.m[name], self.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * g * g
            self.data[name] = self.data[name] - lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
        return norm


def encoder_store(precision):
    config = EncoderConfig(
        vocab_size=30, n_labels=3, n_layers=3, d_model=16, n_heads=2, d_ff=24, max_len=8, precision=precision
    )
    return AdaptiveEncoder(config, head="cls", seed=5).store


class TestFlatArena:
    @pytest.mark.parametrize("precision", ["f32", "f64"])
    def test_matches_the_per_parameter_loop_bit_for_bit(self, precision):
        store = encoder_store(precision)
        ref = PerParameterAdam(store.state_arrays())
        gen = np.random.default_rng(7)
        clipped = 0
        for step in range(24):
            store.zero_grad()
            ref.zero_grad()
            for name, p in store.params.items():
                # gradients arrive as backward adds them: into the zeroed buffer
                g = gen.normal(0.0, 0.5, size=p.data.shape).astype(store.dtype)
                p.grad += g
                ref.grad[name] += g
            lr = 1e-3 * min(1.0, (step + 1) / 5)
            norm = adam_step(store, lr=lr, clip=5.0)
            assert norm == ref.adam_step(lr=lr, clip=5.0)
            clipped += norm > 5.0
        assert clipped >= 20
        for name, p in store.params.items():
            assert p.data.tobytes() == ref.data[name].tobytes(), name
        assert store.m.tobytes() == np.concatenate([a.ravel() for a in ref.m.values()]).tobytes()
        assert store.v.tobytes() == np.concatenate([a.ravel() for a in ref.v.values()]).tobytes()

    @pytest.mark.parametrize("precision", [np.float32, np.float64])
    def test_blocked_update_matches_the_per_parameter_loop_bit_for_bit(self, precision):
        # a store spanning one full block and a partial one, 60 steps that
        # alternate between clipping and not
        shapes = {"w1": (257, 300), "b1": (300,), "w2": (300, 97)}
        store = ParamStore(shapes, dtype=precision)
        assert store.data.size > ADAM_BLOCK and store.data.size % ADAM_BLOCK
        gen = np.random.default_rng(11)
        for p in store.params.values():
            p.data[...] = gen.normal(0.0, 0.1, size=p.shape)
        ref = PerParameterAdam(store.state_arrays())
        clipped = 0
        for step in range(60):
            store.zero_grad()
            ref.zero_grad()
            for name, p in store.params.items():
                g = gen.normal(0.0, 0.5 if step % 2 else 0.005, size=p.shape).astype(precision)
                p.grad += g
                ref.grad[name] += g
            lr = 1e-3 * min(1.0, (step + 1) / 5)
            norm = adam_step(store, lr=lr, clip=5.0)
            assert norm == ref.adam_step(lr=lr, clip=5.0), step
            clipped += norm > 5.0
            for flat, parts in ((store.grad, ref.grad), (store.m, ref.m), (store.v, ref.v), (store.data, ref.data)):
                assert np.array_equal(flat, np.concatenate([a.ravel() for a in parts.values()])), step
        assert clipped == 30

    def test_tensors_stay_views_of_the_flat_arrays(self):
        store = encoder_store("f32")
        bound = {name: (p.data, p.grad) for name, p in store.params.items()}

        def assert_bound():
            for name, p in store.params.items():
                assert p.data is bound[name][0] and p.grad is bound[name][1], name
                assert np.shares_memory(p.data, store.data) and np.shares_memory(p.grad, store.grad), name

        assert_bound()
        store.zero_grad()
        for p in store.params.values():
            p.grad += 1.0
        adam_step(store, lr=1e-2)
        assert_bound()
        assert np.all(store.data != encoder_store("f32").data)
        store.load_arrays({name: np.full(a.shape, 0.25) for name, a in store.state_arrays().items()})
        assert_bound()
        assert np.all(store.data == 0.25)


def whole_store_grad_norm(store):
    """The clip norm as it was computed from one float64 square of the
    whole flat gradient: per-tensor sums of that array, in tensor order."""
    squares = np.square(store.grad, dtype=np.float64)
    total = 0.0
    for span in store._spans:
        total += float(np.add.reduce(squares[span]))
    return float(np.sqrt(total))


class TestGradNorm:
    @pytest.mark.parametrize("precision", [np.float32, np.float64])
    def test_matches_the_whole_store_square_bit_for_bit(self, precision):
        shapes = {"one": (1,), "w": (ADAM_BLOCK + 777,), "b": (1,), "m": (33, 9), "last": (1,)}
        store = ParamStore(shapes, dtype=precision)
        gen = np.random.default_rng(3)
        for _ in range(5):
            scale = 10.0 ** gen.uniform(-20, 15, size=store.grad.size)
            store.grad[:] = gen.standard_normal(store.grad.size) * scale
            assert store.global_grad_norm() == whole_store_grad_norm(store)


def short_pipeline_classifier():
    # the short-pipeline benchmark's classifier: 603,202 parameters
    config = EncoderConfig(vocab_size=49, n_labels=2, n_layers=12, d_model=64, n_heads=4, d_ff=256, max_len=32)
    return AdaptiveEncoder(config, head="cls", seed=0).store


class TestStepMemory:
    def test_traced_peak_is_one_tensor_not_the_store(self):
        store = short_pipeline_classifier()
        assert store.data.size == 603_202
        store.grad[:] = np.random.default_rng(0).standard_normal(store.grad.size)
        largest = max(p.data.size for p in store.params.values())
        scratch = sum(x.nbytes for x in store._scratch)
        tracemalloc.start()
        try:
            adam_step(store, lr=1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole-store float64 square alone was 8 bytes per parameter
        assert peak < 8 * largest + scratch < 8 * store.data.size

