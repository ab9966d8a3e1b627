"""Unit tests for neural network layers and optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Adam, Linear, Module, ReLU, Sequential, Sigmoid, Tensor, clip_gradient_norm


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(rng.random((4, 5))))
        assert out.shape == (4, 3)

    def test_linear_parameters_registered(self, rng):
        layer = Linear(5, 3, rng=rng)
        params = layer.parameters()
        assert len(params) == 2
        assert layer.num_parameters() == 5 * 3 + 3

    def test_linear_validation(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_linear_initialisation_bounds(self, rng):
        layer = Linear(100, 50, rng=rng)
        bound = 1.0 / np.sqrt(100)
        assert np.abs(layer.weight.data).max() <= bound
        assert np.abs(layer.bias.data).max() <= bound

    def test_sequential_composition(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng), Sigmoid())
        out = model(Tensor(rng.random((3, 4))))
        assert out.shape == (3, 2)
        assert ((out.data > 0) & (out.data < 1)).all()

    def test_sequential_requires_modules(self):
        with pytest.raises(ValueError):
            Sequential()

    def test_sequential_collects_nested_parameters(self, rng):
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        assert len(model.parameters()) == 4

    def test_zero_grad_clears_all(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 1, rng=rng))
        out = model(Tensor(rng.random((2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_round_trip(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 1, rng=rng))
        other = Sequential(Linear(4, 4, rng=np.random.default_rng(99)), ReLU(), Linear(4, 1, rng=np.random.default_rng(98)))
        x = Tensor(rng.random((2, 4)))
        state = model.state_dict()
        other.load_state_dict(state)
        np.testing.assert_allclose(model(x).data, other(x).data)

    def test_load_state_dict_shape_mismatch(self, rng):
        model = Linear(4, 4, rng=rng)
        other = Linear(4, 5, rng=rng)
        with pytest.raises(ValueError):
            other.load_state_dict(model.state_dict())


class _Quadratic(Module):
    """Minimise ||x - target||^2: a tiny optimisation problem for optimizer tests."""

    def __init__(self, start: np.ndarray) -> None:
        self.x = Tensor(start, requires_grad=True)

    def loss(self, target: np.ndarray) -> Tensor:
        diff = self.x - target
        return (diff * diff).sum()


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        target = np.array([2.0, -1.0, 0.5, 4.0])
        model = _Quadratic(np.zeros(4))
        opt = Adam(model.parameters(), lr=0.05)
        for _ in range(500):
            loss = model.loss(target)
            opt.zero_grad()
            loss.backward()
            opt.step()
        np.testing.assert_allclose(model.x.data, target, atol=1e-3)

    def test_adam_skips_parameters_without_grad(self):
        param = Tensor(np.ones(3), requires_grad=True)
        opt = Adam([param], lr=0.1)
        opt.step()  # no gradient accumulated; should be a no-op
        np.testing.assert_allclose(param.data, 1.0)

    def test_invalid_hyperparameters(self):
        param = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([param], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([param], betas=(1.2, 0.9))

    def test_clip_gradient_norm(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        a.grad = np.full(3, 3.0)
        b.grad = np.full(2, 4.0)
        norm = clip_gradient_norm([a, b], max_norm=1.0)
        assert norm == pytest.approx(np.sqrt(9 * 3 + 16 * 2))
        new_norm = np.sqrt(np.sum(a.grad**2) + np.sum(b.grad**2))
        assert new_norm == pytest.approx(1.0)

    def test_clip_noop_when_under_threshold(self):
        a = Tensor(np.ones(2), requires_grad=True)
        a.grad = np.array([0.1, 0.1])
        clip_gradient_norm([a], max_norm=10.0)
        np.testing.assert_allclose(a.grad, [0.1, 0.1])

    def test_clip_requires_positive_max_norm(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with pytest.raises(ValueError):
            clip_gradient_norm([a], max_norm=0.0)
