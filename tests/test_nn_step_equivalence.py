"""The training step against the formulas it replaced, bit for bit.

``Adam.step`` walks parameters in cache-sized blocks, ``Tensor._accumulate``
adopts the first gradient instead of adding it into zeros,
``clip_gradient_norm`` squares into a kept scratch and the three segment ops
are a CSR product / ``reduceat``.  None of that may change a single bit of a
trained weight.  The old whole-array / zero-fill / ``ufunc.at`` code is kept
here, verbatim, as the reference; the properties compare the shipped code
with it (``tobytes()`` on weights and moments; gradients by value, because an
adopted ``-0.0`` keeps the sign that ``0.0 + -0.0`` loses).

The memory bounds at the bottom are the deterministic form of the speed-up:
tier-1 takes no timing asserts, but ``tracemalloc`` sees NumPy's buffers and
its peaks repeat exactly.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.trainer as trainer_module
from repro.core import Dote, Figret, TealLike, TrainingConfig
from repro.core.trainer import Trainer, train_step
from repro.datasets import registry
from repro.nn import Adam, Tensor, clip_gradient_norm
from repro.nn import optim as optim_module
from repro.nn.layers import Linear, Sequential

BLOCK = optim_module._BLOCK


# ---------------------------------------------------------------------- #
# The reference: what src/repro/nn did before the step was blocked
# ---------------------------------------------------------------------- #
def reference_adam_step(self) -> None:
    self._step += 1
    bias1 = 1.0 - self.beta1**self._step
    bias2 = 1.0 - self.beta2**self._step
    for param, m, v in zip(self.parameters, self._m, self._v):
        if param.grad is None:
            continue
        grad = param.grad
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def reference_clip_gradient_norm(parameters, max_norm: float) -> float:
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float(np.sum(param.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad *= scale
    return norm


def reference_accumulate(self, grad, owned=False) -> None:
    if not self.requires_grad:
        return
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += grad


def reference_gather_last(self, index):
    index = np.asarray(index, dtype=np.int64)
    out_data = self.data[..., index]

    def backward(grad):
        local = np.zeros_like(self.data)
        flat_local = local.reshape(-1, self.data.shape[-1])
        flat_grad = grad.reshape(-1, index.shape[0])
        rows = np.arange(flat_local.shape[0])[:, None]
        np.add.at(flat_local, (rows, index[None, :]), flat_grad)
        self._accumulate(flat_local.reshape(self.data.shape))

    return self._make(out_data, (self,), backward)


def reference_segment_sum(self, segment_ids, num_segments):
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    out_shape = self.data.shape[:-1] + (num_segments,)
    flat_in = self.data.reshape(-1, self.data.shape[-1])
    flat_out = np.zeros((flat_in.shape[0], num_segments))
    rows = np.arange(flat_in.shape[0])[:, None]
    np.add.at(flat_out, (rows, segment_ids[None, :]), flat_in)
    out_data = flat_out.reshape(out_shape)

    def backward(grad):
        self._accumulate(grad[..., segment_ids])

    return self._make(out_data, (self,), backward)


def reference_segment_max(self, segment_ids, num_segments):
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    flat_in = self.data.reshape(-1, self.data.shape[-1])
    batch, num_items = flat_in.shape
    flat_out = np.full((batch, num_segments), -np.inf)
    rows = np.arange(batch)[:, None]
    np.maximum.at(flat_out, (rows, segment_ids[None, :]), flat_in)
    out_data = flat_out.reshape(self.data.shape[:-1] + (num_segments,))

    max_per_item = flat_out[rows, segment_ids[None, :]]
    is_max = flat_in >= max_per_item
    candidate = np.where(is_max, np.arange(num_items)[None, :], num_items)
    first_argmax = np.full((batch, num_segments), num_items, dtype=np.int64)
    np.minimum.at(first_argmax, (rows, segment_ids[None, :]), candidate)

    def backward(grad):
        grad_flat = grad.reshape(batch, num_segments)
        local = np.zeros((batch, num_items + 1))
        batch_rows = np.arange(batch)[:, None]
        np.add.at(local, (batch_rows, first_argmax), grad_flat)
        self._accumulate(local[:, :num_items].reshape(self.data.shape))

    return self._make(out_data, (self,), backward)


def use_reference_tensor_ops(patcher) -> None:
    """Swap the old accumulation and segment ops onto ``Tensor``."""
    patcher.setattr(Tensor, "_accumulate", reference_accumulate)
    patcher.setattr(Tensor, "gather_last", reference_gather_last)
    patcher.setattr(Tensor, "segment_sum", reference_segment_sum)
    patcher.setattr(Tensor, "segment_max", reference_segment_max)


def use_reference_step(patcher) -> None:
    """Swap in every old piece of the training step."""
    use_reference_tensor_ops(patcher)
    patcher.setattr(Adam, "step", reference_adam_step)
    patcher.setattr(trainer_module, "clip_gradient_norm", reference_clip_gradient_norm)


def random_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Values over many magnitudes with exact zeros of both signs mixed in."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 4, size=shape)
    kind = rng.integers(0, 8, size=shape)
    values = np.where(kind == 0, 0.0, values)
    return np.where(kind == 1, -0.0, values)


# ---------------------------------------------------------------------- #
# Adam and clipping
# ---------------------------------------------------------------------- #
#: Below, equal to, above and not a multiple of the block; 0-d and 1-d; a
#: matrix whose rows do not divide the block.
PARAMETER_SHAPES = [
    (),
    (1,),
    (7,),
    (BLOCK - 1,),
    (BLOCK,),
    (BLOCK + 1,),
    (2 * BLOCK,),
    (2 * BLOCK + 5,),
    (130, 130),
    (3, 5, 7),
]


def _parameter(rng, shape, non_contiguous):
    """A parameter and, for a non-contiguous one, the array it is a view of."""
    if non_contiguous and len(shape) >= 1:
        base = rng.standard_normal(shape[:-1] + (2 * shape[-1],))
        param = Tensor(np.zeros(1), requires_grad=True)
        param.data = base[..., ::2]
        if len(shape) >= 2:
            param.data = np.swapaxes(param.data, 0, 1)
        assert not param.data.flags.c_contiguous or param.data.size <= 1
        return param, base
    return Tensor(rng.standard_normal(shape), requires_grad=True), None


def _twin_optimizers(seed, shapes, non_contiguous):
    twins = []
    for _ in range(2):
        rng = np.random.default_rng(seed)
        built = [_parameter(rng, shape, flag) for shape, flag in zip(shapes, non_contiguous)]
        params = [param for param, _ in built]
        twins.append((Adam(params, lr=1e-3), params, [base for _, base in built]))
    return twins


def _bytes(array) -> bytes:
    return np.ascontiguousarray(array).tobytes()


class TestAdamAndClipping:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shapes=st.lists(st.sampled_from(PARAMETER_SHAPES), min_size=1, max_size=4),
        non_contiguous=st.lists(st.booleans(), min_size=4, max_size=4),
        steps=st.lists(
            st.tuples(
                st.sampled_from([1e-3, 2e-3, 5e-4, 1.0, 1e-12]),  # lr of this step
                st.sampled_from(["backward", "external", "none", "view"]),  # first grad
                st.booleans(),  # load_state_dict before the step
                st.sampled_from([None, 5.0, 1e-3]),  # gradient clip
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_hypothesis_blocked_step_has_the_bits_of_the_whole_array_step(
        self, seed, shapes, non_contiguous, steps
    ):
        (shipped, params_s, bases_s), (reference, params_r, bases_r) = _twin_optimizers(
            seed, shapes, non_contiguous
        )
        rng = np.random.default_rng(seed + 1)
        for lr, first_grad, reload_weights, clip in steps:
            for index, (p_s, p_r) in enumerate(zip(params_s, params_r)):
                grad = random_values(rng, p_s.data.shape)
                source = first_grad if index == 0 else "external"
                if source == "none":
                    p_s.grad = p_r.grad = None
                elif source == "view":
                    # An externally assigned, non-contiguous gradient.
                    wide = np.repeat(np.asarray(grad)[..., None], 2, axis=-1)
                    p_s.grad, p_r.grad = wide.copy()[..., 0], wide.copy()[..., 0]
                elif source == "backward":
                    p_s.grad = p_r.grad = None
                    (p_s * grad).sum().backward()
                    reference_accumulate(p_r, grad)
                else:
                    p_s.grad, p_r.grad = grad.copy(), grad.copy()
                if reload_weights:
                    # What Module.load_state_dict does: rebind, not write into.
                    value = rng.standard_normal(p_s.data.shape)
                    p_s.data, p_r.data = value.copy(), value.copy()
            shipped.lr = reference.lr = lr
            if clip is not None:
                norm_s = clip_gradient_norm(params_s, clip)
                norm_r = reference_clip_gradient_norm(params_r, clip)
                assert norm_s == norm_r
            shipped.step()
            reference_adam_step(reference)
            for index, (p_s, p_r) in enumerate(zip(params_s, params_r)):
                assert _bytes(p_s.data) == _bytes(p_r.data)
                assert _bytes(shipped._m[index]) == _bytes(reference._m[index])
                assert _bytes(shipped._v[index]) == _bytes(reference._v[index])
                if p_s.grad is not None:
                    np.testing.assert_array_equal(p_s.grad, p_r.grad)
        # A view that was never rebound was updated through, not copied.
        for base_s, base_r in zip(bases_s, bases_r):
            if base_s is not None:
                assert base_s.tobytes() == base_r.tobytes()

    def test_load_state_dict_between_steps_is_seen_by_the_next_step(self):
        def run(step):
            rng = np.random.default_rng(5)
            model = Sequential(Linear(300, 70, rng=rng), Linear(70, 3, rng=rng))
            optimizer = Adam(model.parameters(), lr=1e-2)
            saved = model.state_dict()
            for round_ in range(3):
                for param in model.parameters():
                    param.grad = random_values(rng, param.data.shape)
                step(optimizer)
                if round_ == 1:
                    model.load_state_dict(saved)
            return model.state_dict()

        shipped, reference = run(Adam.step), run(reference_adam_step)
        assert [a.tobytes() for a in shipped.values()] == [b.tobytes() for b in reference.values()]


# ---------------------------------------------------------------------- #
# Gradient accumulation over random expression DAGs
# ---------------------------------------------------------------------- #
#: Every pair of these broadcasts, and no result leaves the family.
LEAF_SHAPES = [(), (1,), (3,), (1, 3), (2, 1), (2, 3), (1, 1)]
BINARY_OPS = ["add", "sub", "mul", "div", "rsub"]
UNARY_OPS = [
    "neg",
    "relu",
    "sigmoid",
    "square",
    "sum_all",
    "sum_first",
    "sum_last_keep",
    "mean_all",
    "max_first",
    "max_all",
    "unit_axis",
    "matmul",
    "gather_last",
    "segment_sum",
    "segment_max",
]

instructions = st.lists(
    st.tuples(
        st.sampled_from(BINARY_OPS + UNARY_OPS),
        st.integers(0, 63),  # first operand (modulo the nodes so far)
        st.integers(0, 63),  # second operand
        st.lists(st.integers(0, 2), min_size=3, max_size=3),  # segment ids / index
    ),
    min_size=1,
    max_size=10,
)


def _apply(op, a, b, ids, weight):
    ids = np.array(ids)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "rsub":
        return 1.5 - a
    if op == "mul":
        return a * b
    if op == "div":
        return a / (b * b + 1.0)
    if op == "neg":
        return -a
    if op == "relu":
        return a.relu()
    if op == "sigmoid":
        return a.sigmoid()
    if op == "square":
        return a**2
    if op == "sum_all":
        return a.sum()
    if op == "mean_all":
        return a.mean()
    if op == "max_all":
        return a.max()
    if op == "unit_axis":
        return a.reshape(1, *a.shape) if a.ndim < 2 else a.reshape(-1, a.shape[-1])
    if a.ndim == 0:
        return a * 2.0
    if op == "sum_first":
        return a.sum(axis=0)
    if op == "sum_last_keep":
        return a.sum(axis=-1, keepdims=True)
    if op == "max_first":
        return a.max(axis=0)
    if op == "gather_last":
        return a.gather_last(ids % a.shape[-1])
    if a.shape[-1] != 3:
        return a + a
    if op == "matmul":
        return a @ weight if a.ndim == 2 else a.reshape(1, 3) @ weight
    if op == "segment_sum":
        return a.segment_sum(ids, 3)
    if op == "segment_max":
        return a.segment_max(ids, 3)
    raise AssertionError(op)


def _run_program(seed, leaf_shapes, program, root_grad):
    """Build the DAG, backpropagate, return every node (leaves first)."""
    rng = np.random.default_rng(seed)
    nodes = [Tensor(rng.uniform(-2.0, 2.0, size=shape), requires_grad=True) for shape in leaf_shapes]
    nodes.append(Tensor(rng.uniform(-2.0, 2.0, size=(2, 3))))  # a constant: no grad
    weight = Tensor(rng.uniform(-1.0, 1.0, size=(3, 3)), requires_grad=True)
    with np.errstate(all="ignore"):
        for op, i, j, ids in program:
            nodes.append(_apply(op, nodes[i % len(nodes)], nodes[j % len(nodes)], ids, weight))
        root = nodes[-1]
        if not root.requires_grad:
            root = root + nodes[0]
            nodes.append(root)
        upstream = np.broadcast_to(root_grad, root.shape).copy()
        root.backward(upstream)
    return nodes + [weight], upstream


class TestGradientAccumulation:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        leaf_shapes=st.lists(st.sampled_from(LEAF_SHAPES), min_size=1, max_size=4),
        program=instructions,
        root_grad=st.sampled_from([1.0, -0.5, 0.0, 3.0]),
    )
    def test_hypothesis_adopted_gradients_equal_zero_fill_then_add(
        self, seed, leaf_shapes, program, root_grad
    ):
        with pytest.MonkeyPatch.context() as patcher:
            use_reference_tensor_ops(patcher)
            expected, _ = _run_program(seed, leaf_shapes, program, root_grad)
        nodes, upstream = _run_program(seed, leaf_shapes, program, root_grad)
        upstream_before = upstream.copy()

        assert len(nodes) == len(expected)
        for node, reference in zip(nodes, expected):
            np.testing.assert_array_equal(node.data, reference.data)
            assert (node.grad is None) == (reference.grad is None)
            if node.grad is not None:
                assert isinstance(node.grad, np.ndarray)
                assert node.grad.shape == node.data.shape == reference.grad.shape
                assert node.grad.flags.c_contiguous == reference.grad.flags.c_contiguous
                assert node.grad.flags.f_contiguous == reference.grad.flags.f_contiguous
                np.testing.assert_array_equal(node.grad, reference.grad)

        # No two buffers share memory, nor does any share the caller's array:
        # writing into each gradient in turn changes nothing else.
        graded = [node for node in nodes if node.grad is not None]
        for victim in graded:
            others = [(n, n.grad.copy()) for n in graded if n is not victim]
            victim.grad[...] = 12345.0
            for other, before in others:
                np.testing.assert_array_equal(other.grad, before)
            np.testing.assert_array_equal(upstream, upstream_before)

    def test_shared_operand_of_an_addition_is_not_corrupted(self):
        # ``x + y`` hands one array to both parents; a second use of ``x``
        # then accumulates into x's buffer in place.  If x had adopted the
        # shared array, y's gradient would silently become 1 + 2 = 3.
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        y = Tensor(np.ones((2, 3)), requires_grad=True)
        ((x + y) + x * 2.0).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((2, 3), 3.0))
        np.testing.assert_array_equal(y.grad, np.ones((2, 3)))


# ---------------------------------------------------------------------- #
# Segment ops
# ---------------------------------------------------------------------- #
segment_cases = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(), (1,), (2,), (4,), (2, 3)]),  # leading batch dimensions
    st.integers(1, 6),  # segments
    st.lists(st.integers(0, 5), min_size=1, max_size=14),  # ids before the modulo
    st.booleans(),  # round the values so that maxima tie
)


def _segment_inputs(case):
    seed, lead, num_segments, raw_ids, ties = case
    rng = np.random.default_rng(seed)
    ids = np.array(raw_ids) % num_segments  # unsorted; some segments stay empty
    values = random_values(rng, lead + (len(ids),))
    if ties:
        values = np.round(values)
    return rng, ids, num_segments, values


def _both(method, reference, values, upstream, *args):
    """``(output, input gradient)`` of the shipped op and of its reference."""
    outputs = []
    for op in (method, reference):
        x = Tensor(values.copy(), requires_grad=True)
        with pytest.MonkeyPatch.context() as patcher:
            if op is reference:
                use_reference_tensor_ops(patcher)
            out = op(x, *args)
            out.backward(upstream)
        outputs.append((out.data, x.grad))
    return outputs


class TestSegmentOps:
    @settings(max_examples=150, deadline=None)
    @given(case=segment_cases)
    def test_hypothesis_segment_sum_keeps_item_order(self, case):
        rng, ids, num_segments, values = _segment_inputs(case)
        grad = random_values(rng, values.shape[:-1] + (num_segments,))
        (out, dx), (ref_out, ref_dx) = _both(
            Tensor.segment_sum, reference_segment_sum, values, grad, ids, num_segments
        )
        assert out.shape == ref_out.shape and out.flags.c_contiguous
        assert out.tobytes() == ref_out.tobytes()  # same additions in the same order
        np.testing.assert_array_equal(dx, ref_dx)

    @settings(max_examples=150, deadline=None)
    @given(case=segment_cases)
    def test_hypothesis_gather_last_backward_keeps_item_order(self, case):
        rng, ids, num_segments, _ = _segment_inputs(case)
        # Here the ids index the *input*: entries may repeat or go unused.
        lead = case[1]
        values = random_values(rng, lead + (num_segments,))
        grad = random_values(rng, lead + (len(ids),))
        (out, dx), (ref_out, ref_dx) = _both(
            Tensor.gather_last, reference_gather_last, values, grad, ids
        )
        assert out.tobytes() == ref_out.tobytes()
        # Equal finite values are equal bits but for the sign of a zero, so
        # this is the item-order statement for the backward sum.
        np.testing.assert_array_equal(dx, ref_dx)

    @settings(max_examples=150, deadline=None)
    @given(case=segment_cases)
    def test_hypothesis_segment_max_and_first_argmax(self, case):
        rng, ids, num_segments, values = _segment_inputs(case)
        grad = rng.standard_normal(values.shape[:-1] + (num_segments,))
        (out, dx), (ref_out, ref_dx) = _both(
            Tensor.segment_max, reference_segment_max, values, grad, ids, num_segments
        )
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(dx, ref_dx)
        empty = np.setdiff1d(np.arange(num_segments), ids)
        assert np.all(np.isneginf(out[..., empty]))


# ---------------------------------------------------------------------- #
# End to end: whole trainings, reference step against shipped step
# ---------------------------------------------------------------------- #
def _fit_all():
    scenario = registry.load("meta_pod_db_small", seed=3, num_intervals=60)
    train, _ = scenario.split()
    config = TrainingConfig(
        history_len=scenario.history_len, epochs=3, seed=3, warmup_steps=2, lr_decay=0.9
    )
    fitted = {}
    for name, scheme in (
        ("figret", Figret(scenario.paths, config.replace(robustness_weight=0.15))),
        ("dote", Dote(scenario.paths, config)),
        ("teal", TealLike(scenario.paths, config)),
    ):
        scheme.precompute(train)
        trainer = scheme._trainer
        weights = trainer.model.state_dict()
        history = (
            trainer.history.epoch_losses,
            trainer.history.epoch_mlu_losses,
            trainer.history.epoch_sensitivity_losses,
        )
        fitted[name] = ({key: value.tobytes() for key, value in weights.items()}, history)
    return fitted


def test_trainings_are_bytewise_those_of_the_reference_step():
    # Same process, so this holds whatever BLAS the runner has; a recorded
    # digest would not.
    with pytest.MonkeyPatch.context() as patcher:
        use_reference_step(patcher)
        expected = _fit_all()
    shipped = _fit_all()
    assert shipped.keys() == expected.keys()
    for name in expected:
        assert shipped[name][1] == expected[name][1], name
        assert shipped[name][0] == expected[name][0], name
    assert all(np.isfinite(shipped["figret"][1][2])) and shipped["figret"][1][2][0] > 0


# ---------------------------------------------------------------------- #
# A loss that is not a number stops the training
# ---------------------------------------------------------------------- #
class TestNonFiniteLoss:
    SCENARIO = dict(seed=3, num_intervals=60)

    @pytest.mark.parametrize("scheme_class", [Figret, TealLike])
    def test_overflowing_training_raises_instead_of_returning_nan_weights(self, scheme_class):
        scenario = registry.load("meta_pod_db_small", **self.SCENARIO)
        train, _ = scenario.split()
        config = TrainingConfig(
            history_len=scenario.history_len, epochs=2, learning_rate=1e300, seed=3
        )
        scheme = scheme_class(scenario.paths, config)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite training loss \(nan\) at epoch 1, step 2"
        ):
            scheme.precompute(train)

    def test_no_update_is_applied_at_the_failing_step(self, mesh4_paths):
        trainer = Trainer(mesh4_paths, TrainingConfig(history_len=2, epochs=1))
        before = trainer.model.state_dict()
        inputs = np.full((4, trainer.model.input_dim), np.inf)
        demands = np.ones((4, mesh4_paths.num_sd_pairs))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="epoch 7, step 9"):
            train_step(
                trainer.model, trainer.loss, trainer.optimizer, inputs, demands, None,
                gradient_clip=5.0, epoch=7, step=9,
            )
        after = trainer.model.state_dict()
        assert all(before[key].tobytes() == after[key].tobytes() for key in before)


# ---------------------------------------------------------------------- #
# Memory: the deterministic gate for the gain
# ---------------------------------------------------------------------- #
def _peak_bytes(action) -> int:
    """Peak of newly traced memory while ``action`` runs."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        action()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start


class TestStepMemory:
    def test_adam_step_and_clipping_allocate_no_parameter_sized_temporary(self):
        rng = np.random.default_rng(0)
        param = Tensor(rng.standard_normal((2048, 128)), requires_grad=True)  # 2 MB
        param.grad = rng.standard_normal(param.data.shape)
        optimizer = Adam([param])
        clip_gradient_norm([param], 1.0)
        optimizer.step()  # warm-up: scratch arrays exist from here on
        # The whole-array forms peak at 4x / 1x the parameter (8.4 / 2.1 MB).
        assert _peak_bytes(optimizer.step) < 64 * 1024
        assert _peak_bytes(lambda: clip_gradient_norm([param], 1.0)) < 64 * 1024

    def test_a_training_step_peaks_below_three_times_its_largest_parameter(self, mesh4_paths):
        # 12 pairs x H = 352 -> a 4224 x 128 first layer, 4.3 MB.
        config = TrainingConfig(history_len=352, epochs=1, robustness_weight=0.1, seed=1)
        variance = np.linspace(1.0, 2.0, mesh4_paths.num_sd_pairs)
        trainer = Trainer(mesh4_paths, config, pair_variance=variance)
        largest = max(param.data.nbytes for param in trainer.model.parameters())
        assert largest >= 4 * 2**20
        rng = np.random.default_rng(1)
        inputs = rng.random((config.batch_size, trainer.model.input_dim))
        demands = rng.random((config.batch_size, mesh4_paths.num_sd_pairs))

        def step():
            train_step(
                trainer.model, trainer.loss, trainer.optimizer, inputs, demands, None,
                gradient_clip=config.gradient_clip, epoch=1, step=1,
            )

        step()  # warm-up
        # New gradients (1.3x) plus the batch; the whole-array Adam alone
        # added 4x on top of them.
        assert _peak_bytes(step) < 3 * largest
