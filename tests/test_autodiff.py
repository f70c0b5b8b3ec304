import numpy as np
import pytest

from depthformer import autodiff as ad
from depthformer.autodiff import Tensor
from depthformer.encoder import AdaptiveEncoder, EncoderConfig, apply_dropout, dropout_mask, dropout_scale

import reference_graph as ops


def rng():
    return np.random.default_rng(0)


def finite_difference(loss_fn, arrays, eps=1e-6):
    """Central differences of a scalar function wrt every array entry."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gflat = arr.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
        grads.append(g)
    return grads


def check_op(build, arrays, eps=1e-6, tol=1e-6):
    """Compare autodiff gradients of sum(op * R) against finite differences.

    ``build`` maps leaf Tensors to the op output; a fixed random projection
    R makes the scalar sensitive to every output entry.
    """
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    proj = rng().normal(size=out.data.shape)

    loss = ops.sum_all(ops.mul(out, Tensor(proj)))
    ad.backward(loss)

    def scalar():
        vals = [Tensor(a) for a in arrays]
        return float((build(*vals).data * proj).sum())

    for leaf, fd in zip(leaves, finite_difference(scalar, arrays, eps)):
        assert leaf.grad is not None
        np.testing.assert_allclose(leaf.grad, fd, rtol=tol, atol=tol)


class TestElementwiseOps:
    def test_add_broadcast_bias(self):
        check_op(ops.add, [rng().normal(size=(3, 4)), rng().normal(size=(4,))])

    def test_mul_broadcast(self):
        check_op(ops.mul, [rng().normal(size=(2, 3, 4)), rng().normal(size=(3, 4))])

    def test_scale_and_neg(self):
        check_op(lambda a: ops.neg(ops.scale(a, 1.7)), [rng().normal(size=(5,))])

    def test_log(self):
        check_op(ops.log, [rng().uniform(0.5, 2.0, size=(4, 3))])

    def test_relu_away_from_kink(self):
        x = rng().normal(size=(6, 5))
        x[np.abs(x) < 0.05] = 0.5
        check_op(ops.relu, [x])

    def test_add_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
            ops.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))


class TestMatmul:
    def test_plain_2d(self):
        check_op(ops.matmul, [rng().normal(size=(3, 4)), rng().normal(size=(4, 5))])

    def test_batched_with_shared_weight(self):
        check_op(ops.matmul, [rng().normal(size=(2, 3, 4)), rng().normal(size=(4, 5))])

    def test_batched_4d(self):
        check_op(ops.matmul, [rng().normal(size=(2, 2, 3, 4)), rng().normal(size=(2, 2, 4, 3))])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="matmul shape mismatch"):
            ops.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestNormalizers:
    def test_softmax_rows_sum_to_one(self):
        s = ops.softmax(Tensor(rng().normal(size=(4, 7)) * 5), -1)
        np.testing.assert_allclose(s.data.sum(-1), 1.0, atol=1e-6)
        assert np.all(s.data > 0) and np.all(s.data < 1)

    def test_softmax_uniform_on_constant_rows(self):
        s = ops.softmax(Tensor(np.zeros((1, 3))), -1)
        np.testing.assert_allclose(s.data, 1 / 3, atol=1e-12)

    def test_softmax_gradient(self):
        check_op(lambda a: ops.softmax(a, -1), [rng().normal(size=(3, 5))])

    def test_log_softmax_matches_log_of_softmax(self):
        x = rng().normal(size=(3, 6)) * 3
        np.testing.assert_allclose(
            ops.log_softmax(Tensor(x), -1).data,
            np.log(ops.softmax(Tensor(x), -1).data),
            atol=1e-10,
        )

    def test_log_softmax_gradient(self):
        check_op(lambda a: ops.log_softmax(a, -1), [rng().normal(size=(4, 5))])

    def test_layer_norm_gradient(self):
        check_op(
            ops.layer_norm,
            [rng().normal(size=(2, 3, 8)), rng().normal(size=(8,)), rng().normal(size=(8,))],
        )


class TestGatherOps:
    def test_embedding_gradient_scatters(self):
        ids = np.array([[0, 2, 2], [1, 0, 3]])
        check_op(lambda t: ops.embedding(t, ids), [rng().normal(size=(4, 5))])

    def test_embedding_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            ops.embedding(Tensor(np.zeros((4, 5))), np.array([4]))

    def test_take_rows(self):
        check_op(lambda t: ops.take_rows(t, np.array([0, 2, 2])), [rng().normal(size=(4, 3))])

    def test_pick(self):
        check_op(lambda t: ops.pick(t, np.array([1, 0, 2])), [rng().normal(size=(3, 4))])


class TestPooling:
    def test_mean_pool(self):
        check_op(lambda t: ops.mean_pool(t, 1), [rng().normal(size=(2, 5, 3))])

    def test_max_pool_values(self):
        out = ops.max_pool(Tensor(np.array([[[1.0, 4.0], [3.0, 2.0]]])), 1)
        assert out.data.tolist() == [[3.0, 4.0]]

    def test_mean_pool_values(self):
        out = ops.mean_pool(Tensor(np.array([[[1.0, 4.0], [3.0, 2.0]]])), 1)
        assert out.data.tolist() == [[2.0, 3.0]]

    def test_max_pool_gradient(self):
        x = rng().normal(size=(2, 5, 3))
        check_op(lambda t: ops.max_pool(t, 1), [x])

    def test_concat_gradient(self):
        check_op(
            lambda a, b: ops.concat([a, b], axis=-1),
            [rng().normal(size=(3, 2)), rng().normal(size=(3, 4))],
        )


class TestRoutingOps:
    def test_reshape_transpose_roundtrip_gradient(self):
        check_op(
            lambda a: ops.reshape(ops.transpose(ops.reshape(a, (2, 3, 2, 2)), (0, 2, 1, 3)), (2, 2, 6)),
            [rng().normal(size=(2, 3, 4))],
        )

    def test_dropout_eval_is_identity(self):
        x = Tensor(rng().normal(size=(5, 5)))
        assert ops.dropout(x, 0.5, np.random.default_rng(0), train=False) is x
        assert ops.dropout(x, 0.0, np.random.default_rng(0), train=True) is x

    def test_dropout_train_scales_kept_entries(self):
        x = Tensor(np.ones((1000,)))
        out = ops.dropout(x, 0.25, np.random.default_rng(0), train=True)
        kept = out.data != 0
        np.testing.assert_allclose(out.data[kept], 1 / 0.75)
        assert 0.70 < kept.mean() < 0.80

    def test_dropout_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones(3)), 1.0, np.random.default_rng(0), train=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_apply_dropout_matches_the_boolean_mask_multiply_bit_for_bit(self, dtype):
        gen = rng()
        x = gen.standard_normal(4000) * 10.0 ** gen.uniform(-300, 300, size=4000)
        x[:8] = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324]
        keep = dropout_mask((8, 25, 20), 0.3, gen)
        scale = dropout_scale(dtype, 0.3)
        # f32 casts past the range, inf·0 and x·scale past the range
        with np.errstate(invalid="ignore", over="ignore"):
            x = x.astype(dtype).reshape(keep.shape)
            got = apply_dropout(x, keep, scale)
            want = x * keep * scale
        assert got.dtype == x.dtype and not np.shares_memory(got, x)
        assert np.array_equal(got, want, equal_nan=True)
        numbers = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


class TestBackward:
    def test_linear_map_gradient_structure(self):
        w = Tensor(rng().normal(size=(3, 4)), requires_grad=True)
        x = np.array([1.0, -2.0, 0.5])
        loss = ops.sum_all(ops.matmul(Tensor(x[None, :]), w))
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, np.tile(x[:, None], (1, 4)))

    def test_grad_accumulates_over_shared_use(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        loss = ops.sum_all(ops.add(a, a))
        ad.backward(loss)
        np.testing.assert_allclose(a.grad, [2.0])

    @pytest.mark.parametrize("shared_first", [True, False], ids=["shared-first", "shared-last"])
    def test_gradient_handed_to_two_parents_is_not_shared(self, shared_first):
        # add hands its one gradient array to both parents, then mul gives
        # each parent a second contribution, added in place; neither may
        # leak into the other, whichever term backward reaches first
        arrays = [rng().normal(size=(3, 4)), np.random.default_rng(1).normal(size=(3, 4))]
        r1, r2 = np.random.default_rng(2).normal(size=(2, 3, 4))

        def build(a, b):
            shared = ops.sum_all(ops.mul(ops.add(a, b), Tensor(r1)))
            other = ops.sum_all(ops.mul(ops.mul(a, b), Tensor(r2)))
            return ops.add(shared, other) if shared_first else ops.add(other, shared)

        a, b = (Tensor(x, requires_grad=True) for x in arrays)
        ad.backward(build(a, b))
        fd = finite_difference(lambda: float(build(*map(Tensor, arrays)).data), arrays)
        for leaf, want in zip((a, b), fd):
            np.testing.assert_allclose(leaf.grad, want, rtol=1e-6, atol=1e-6)
        assert not np.shares_memory(a.grad, b.grad)

    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ops.relu(a))

    def test_backward_twice_rejected(self):
        a = Tensor(np.ones(3), requires_grad=True)
        loss = ops.sum_all(a)
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(loss)
        # an encoder loss, whose nodes no longer hold their VJPs
        cfg = EncoderConfig(vocab_size=12, n_labels=2, n_layers=2, d_model=8, n_heads=2, d_ff=16, max_len=8)
        enc = AdaptiveEncoder(cfg, head="mlm", seed=0)
        loss, _, _ = enc.mlm_anytime_loss_graph(np.arange(3, 9)[None], np.array([2]), np.array([7]), train=True)
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="already ran"):
            ad.backward(loss)

    def test_backward_through_a_finished_graph_rejected(self):
        # a second loss on states whose graph the first backward consumed
        a = Tensor(np.ones(3), requires_grad=True)
        h = ops.relu(a)
        ad.backward(ops.sum_all(h))
        with pytest.raises(RuntimeError, match="already ran through this graph"):
            ad.backward(ops.sum_all(h))
        cfg = EncoderConfig(vocab_size=12, n_labels=2, n_layers=2, d_model=8, n_heads=2, d_ff=16, max_len=8)
        enc = AdaptiveEncoder(cfg, head="cls", seed=0)
        layers, _ = enc.forward_graph(np.arange(3, 9)[None], None, train=True)
        ad.backward(enc.classifier_loss_graph(layers[-1], np.array([1])))
        grad = enc.store.grad.copy()
        with pytest.raises(RuntimeError, match="already ran through this graph"):
            ad.backward(enc.classifier_loss_graph(layers[-1], np.array([1])))
        assert np.array_equal(enc.store.grad, grad)  # rejected before any gradient moved

    def test_unreached_tensor_keeps_none_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ad.backward(ops.sum_all(a))
        assert a.grad is not None and b.grad is None
