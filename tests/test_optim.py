import numpy as np
import pytest

from depthformer import autodiff as ad
from depthformer.autodiff import Tensor
from depthformer.optim import ParamStore, adam_step, clip_gradients


def make_store():
    store = ParamStore(dtype=np.float64)
    store.add("a", np.array([1.0, 2.0, 3.0]))
    store.add("b", np.array([[0.5, -0.5]]))
    return store


class TestParamStore:
    def test_duplicate_name_rejected(self):
        store = make_store()
        with pytest.raises(ValueError, match="duplicate"):
            store.add("a", np.zeros(2))

    def test_zero_grad_fills_zeros(self):
        store = make_store()
        store.zero_grad()
        assert all(np.all(p.grad == 0) for p in store.params.values())

    def test_moments_match_shapes(self):
        store = make_store()
        for name, p in store.params.items():
            assert store.m[name].shape == p.data.shape
            assert store.v[name].shape == p.data.shape

    def test_load_arrays_validates_shape(self):
        store = make_store()
        with pytest.raises(ValueError, match="shape"):
            store.load_arrays({"a": np.zeros((2, 2))})

    def test_load_arrays_rejects_missing_names(self):
        store = make_store()
        with pytest.raises(ValueError, match="missing parameters: b"):
            store.load_arrays({"a": np.zeros(3)})


class TestClipping:
    def test_norm_below_threshold_untouched(self):
        store = make_store()
        store.zero_grad()
        store.params["a"].grad[:] = [3.0, 0.0, 0.0]
        norm = clip_gradients(store, 5.0)
        assert norm == pytest.approx(3.0)
        np.testing.assert_allclose(store.params["a"].grad, [3.0, 0.0, 0.0])

    def test_global_norm_fifty_rescaled_to_five(self):
        store = ParamStore(dtype=np.float64)
        store.add("w", np.zeros(4))
        store.zero_grad()
        store.params["w"].grad[:] = [30.0, 40.0, 0.0, 0.0]  # norm 50
        norm = clip_gradients(store, 5.0)
        assert norm == pytest.approx(50.0)
        np.testing.assert_allclose(store.params["w"].grad, [3.0, 4.0, 0.0, 0.0])

    def test_non_finite_gradient_fails_fast(self):
        store = make_store()
        store.zero_grad()
        store.params["a"].grad[0] = np.nan
        with pytest.raises(FloatingPointError):
            clip_gradients(store, 5.0)


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
        store = ParamStore(dtype=np.float64)
        w = store.add("w", np.array([0.0]))
        target = Tensor(np.array([-3.0]))
        losses = []
        for _ in range(100):
            diff = ad.add(w, target)
            loss = ad.sum_all(ad.mul(diff, diff))
            losses.append(float(loss.data))
            store.zero_grad()
            ad.backward(loss)
            adam_step(store, lr=1e-3)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_first_step_matches_hand_computation(self):
        # with bias correction the very first update is lr * g/(|g| + eps)
        store = ParamStore(dtype=np.float64)
        store.add("w", np.array([1.0, -1.0]))
        store.zero_grad()
        store.params["w"].grad[:] = [0.3, -0.2]
        adam_step(store, lr=0.01, clip=100.0)
        expected = np.array([1.0, -1.0]) - 0.01 * np.sign([0.3, -0.2])
        np.testing.assert_allclose(store.params["w"].data, expected, atol=1e-6)
