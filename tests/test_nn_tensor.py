"""Unit tests and gradient checks for the autodiff engine (repro.nn.tensor)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def numeric_gradient(func, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued function of an array."""
    grad = np.zeros_like(x, dtype=float)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        plus = flat.copy()
        minus = flat.copy()
        plus[i] += eps
        minus[i] -= eps
        grad_flat[i] = (
            func(plus.reshape(x.shape)) - func(minus.reshape(x.shape))
        ) / (2 * eps)
    return grad


def check_gradient(build, x: np.ndarray, atol: float = 1e-6) -> None:
    """Compare autodiff gradients of ``build(Tensor)`` against finite differences."""
    t = Tensor(x, requires_grad=True)
    out = build(t)
    out.backward()
    numeric = numeric_gradient(lambda arr: build(Tensor(arr)).item(), x)
    np.testing.assert_allclose(t.grad, numeric, atol=atol, rtol=1e-4)


class TestForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose((a + b).data, [[2, 3, 4], [2, 3, 4]])

    def test_scalar_operations(self):
        a = Tensor(np.array([1.0, 2.0]))
        np.testing.assert_allclose((a * 2 + 1).data, [3, 5])
        np.testing.assert_allclose((a / 2).data, [0.5, 1])

    def test_matmul(self):
        a = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        b = Tensor(np.arange(12, dtype=float).reshape(3, 4))
        np.testing.assert_allclose((a @ b).data, a.data @ b.data)

    def test_relu_and_sigmoid(self):
        x = Tensor(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(x.relu().data, [0, 0, 3])
        np.testing.assert_allclose(x.sigmoid().data, 1 / (1 + np.exp(-x.data)))

    def test_sigmoid_extreme_values_are_stable(self):
        x = Tensor(np.array([-1000.0, 1000.0]))
        out = x.sigmoid().data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_reductions(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert x.sum().item() == 15
        assert x.mean().item() == pytest.approx(2.5)
        np.testing.assert_allclose(x.max(axis=1).data, [2, 5])
        np.testing.assert_allclose(x.sum(axis=0).data, [3, 5, 7])

    def test_item(self):
        assert Tensor(np.array([3.0])).item() == 3.0

    def test_gather_last(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0]]))
        out = x.gather_last(np.array([2, 0, 0, 1]))
        np.testing.assert_allclose(out.data, [[3, 1, 1, 2]])

    def test_segment_sum(self):
        x = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
        out = x.segment_sum(np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(out.data, [[3, 7]])

    def test_segment_max(self):
        x = Tensor(np.array([[1.0, 5.0, 3.0, 4.0]]))
        out = x.segment_max(np.array([0, 0, 1, 1]), 2)
        np.testing.assert_allclose(out.data, [[5, 4]])

    def test_requires_grad_propagation(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3))
        assert (a + b).requires_grad
        assert not (b * 2).requires_grad

    def test_detach_stops_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert not a.detach().requires_grad

    def test_matmul_shape_validation(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestBackward:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_backward_requires_grad(self):
        x = Tensor(np.ones(3))
        with pytest.raises(ValueError):
            x.sum().backward()

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3 + x * 4  # dy/dx = 7
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_zero_grad(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    @pytest.mark.parametrize(
        "build",
        [
            lambda t: (t * 3.0).sum(),
            lambda t: (t + t * t).mean(),
            lambda t: (t @ np.arange(12, dtype=float).reshape(4, 3)).sum(),
            lambda t: t.relu().sum(),
            lambda t: t.sigmoid().mean(),
            lambda t: t.max(axis=-1).sum(),
            lambda t: (t / (t.sum(axis=-1, keepdims=True) + 1.0)).sum(),
            lambda t: t.max(),
        ],
    )
    def test_gradients_match_finite_differences(self, build, rng):
        x = rng.random((3, 4)) + 0.5
        check_gradient(build, x)

    def test_gather_last_gradient(self, rng):
        index = np.array([0, 2, 2, 1])
        x = rng.random((2, 3))
        check_gradient(lambda t: (t.gather_last(index) * np.arange(1.0, 5.0)).sum(), x)

    def test_segment_sum_gradient(self, rng):
        seg = np.array([0, 0, 1, 2, 2])
        x = rng.random((2, 5))
        check_gradient(lambda t: (t.segment_sum(seg, 3) * t.segment_sum(seg, 3)).sum(), x)

    def test_segment_max_gradient(self, rng):
        seg = np.array([0, 0, 1, 2, 2])
        x = rng.random((2, 5))
        check_gradient(lambda t: (t.segment_max(seg, 3) * np.array([1.0, 2.0, 3.0])).sum(), x)

    def test_te_loss_shaped_expression_gradient(self, rng):
        """Composite expression shaped like the actual TE loss."""
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        incidence = rng.random((7, 4))
        demand = rng.random((2, 3)) + 0.5

        def build(t):
            sums = t.segment_sum(seg, 3)
            ratios = t / sums.gather_last(seg)
            per_path_demand = Tensor(demand).gather_last(seg)
            flows = (ratios * per_path_demand) @ incidence
            mlu = flows.max(axis=-1).mean()
            smax = (ratios * 2.0).segment_max(seg, 3)
            return mlu + 0.1 * smax.sum()

        x = rng.random((2, 7)) + 0.2
        check_gradient(build, x)

    def test_broadcast_gradient_shapes(self, rng):
        bias = Tensor(rng.random(4), requires_grad=True)
        x = Tensor(rng.random((3, 4)), requires_grad=True)
        (x + bias).sum().backward()
        assert bias.grad.shape == (4,)
        assert x.grad.shape == (3, 4)
        np.testing.assert_allclose(bias.grad, 3.0)
