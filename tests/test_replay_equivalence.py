"""Replay on array-backed traces and a tape-free forward, bit for bit.

A ``TrafficMatrixSequence`` is one ``(T, pairs)`` array instead of a list of
``TrafficMatrix`` objects, the two fluctuations build their result with
``from_flat`` instead of one matrix per interval, and inference runs the
layer chain on plain arrays instead of recording an autodiff tape.  None of
that may change a bit of a record.  The list-backed sequence, the per-row
perturbation and the taped forward are kept here, verbatim, as the
references; the properties compare the shipped code with them through
``tobytes()``.

The allocation gate is the deterministic form of the speed-up (tier-1 takes
no timing asserts): a perturbed replay plus a streaming replay constructs no
``TrafficMatrix`` and no ``Tensor``.  The digests at the bottom were recorded
at the parent commit, before any source was touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import Figret, TrainingConfig
from repro.core.model import FigretNet
from repro.evaluation.engine import EvaluationEngine
from repro.nn import Linear, Tensor
from repro.paths.ksp import build_ksp_path_set
from repro.solvers.lp import OptimalMLUCache
from repro.topology import generators
from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence
from repro.traffic.perturb import gaussian_fluctuation, reverse_rank_fluctuation


# ---------------------------------------------------------------------- #
# The reference: src/repro/traffic before the trace became one array
# ---------------------------------------------------------------------- #
class ReferenceMatrix:
    def __init__(self, matrix) -> None:
        data = np.asarray(matrix, dtype=float).copy()
        if data.ndim != 2 or data.shape[0] != data.shape[1]:
            raise ValueError(f"demand matrix must be square, got shape {data.shape}")
        if np.any(data < 0):
            raise ValueError("demand matrix entries must be non-negative")
        np.fill_diagonal(data, 0.0)
        self._data = data

    @property
    def num_nodes(self) -> int:
        return self._data.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._data.copy()

    def flat(self) -> np.ndarray:
        n = self.num_nodes
        mask = ~np.eye(n, dtype=bool)
        return self._data[mask]


class ReferenceSequence:
    def __init__(self, matrices, interval_seconds: float = 60.0, name: str = "trace") -> None:
        if isinstance(matrices, np.ndarray) and matrices.ndim == 3:
            items = [ReferenceMatrix(m) for m in matrices]
        else:
            items = [m if isinstance(m, ReferenceMatrix) else ReferenceMatrix(m) for m in matrices]
        if not items:
            raise ValueError("a traffic matrix sequence cannot be empty")
        num_nodes = items[0].num_nodes
        if any(m.num_nodes != num_nodes for m in items):
            raise ValueError("all demand matrices must have the same number of nodes")
        self._matrices = items
        self.interval_seconds = float(interval_seconds)
        self.name = name
        self._flat_cache = None

    def __len__(self) -> int:
        return len(self._matrices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ReferenceSequence(
                self._matrices[index], interval_seconds=self.interval_seconds, name=self.name
            )
        return self._matrices[index]

    def __iter__(self):
        return iter(self._matrices)

    @property
    def num_nodes(self) -> int:
        return self._matrices[0].num_nodes

    def as_array(self) -> np.ndarray:
        return np.stack([m.matrix for m in self._matrices])

    def flat_demands(self) -> np.ndarray:
        if self._flat_cache is None:
            self._flat_cache = np.stack([m.flat() for m in self._matrices])
            self._flat_cache.setflags(write=False)
        return self._flat_cache

    def pair_variance(self) -> np.ndarray:
        return self.flat_demands().var(axis=0)

    def pair_std(self) -> np.ndarray:
        return self.flat_demands().std(axis=0)

    def pair_mean(self) -> np.ndarray:
        return self.flat_demands().mean(axis=0)

    def split(self, train_fraction: float = 0.75):
        if not 0.0 < train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        cut = int(round(len(self) * train_fraction))
        cut = max(1, min(len(self) - 1, cut))
        return self[:cut], self[cut:]

    def segment(self, start_fraction: float, end_fraction: float):
        if not 0.0 <= start_fraction < end_fraction <= 1.0:
            raise ValueError("need 0 <= start < end <= 1")
        start = int(round(len(self) * start_fraction))
        end = int(round(len(self) * end_fraction))
        end = max(end, start + 1)
        return self[start:end]

    def windows(self, history: int):
        if history < 1:
            raise ValueError("history must be at least 1")
        flat = self.flat_demands()
        for t in range(history, len(self)):
            yield flat[t - history : t], flat[t]

    def concatenate(self, other):
        if other.num_nodes != self.num_nodes:
            raise ValueError("cannot concatenate sequences with different node counts")
        return ReferenceSequence(
            list(self._matrices) + list(other._matrices),
            interval_seconds=self.interval_seconds,
            name=self.name,
        )


def _reference_flat_to_matrix(flat: np.ndarray, num_nodes: int) -> np.ndarray:
    matrix = np.zeros((num_nodes, num_nodes))
    matrix[~np.eye(num_nodes, dtype=bool)] = flat
    return matrix


def reference_gaussian_fluctuation(sequence, alpha, reference_std, seed=0):
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    rng = np.random.default_rng(seed)
    flats = sequence.flat_demands()
    std = np.asarray(reference_std, dtype=float)
    if std.shape != (flats.shape[1],):
        raise ValueError("reference_std must have one entry per SD pair")
    noise = rng.normal(0.0, 1.0, size=flats.shape) * std * alpha
    perturbed = np.clip(flats + noise, 0.0, None)
    matrices = [
        ReferenceMatrix(_reference_flat_to_matrix(row, sequence.num_nodes)) for row in perturbed
    ]
    return ReferenceSequence(
        matrices,
        interval_seconds=sequence.interval_seconds,
        name=f"{sequence.name}-fluct{alpha}",
    )


def reference_reverse_rank_fluctuation(sequence, alpha, reference_std, seed=0):
    std = np.asarray(reference_std, dtype=float)
    order = np.argsort(std)
    reversed_std = np.empty_like(std)
    reversed_std[order] = std[order[::-1]]
    return reference_gaussian_fluctuation(sequence, alpha, reversed_std, seed=seed)


# ---------------------------------------------------------------------- #
# The reference: FigretNet inference through the autodiff tape
# ---------------------------------------------------------------------- #
def reference_split_ratios(self, history_window, input_scale=1.0):
    window = np.asarray(history_window, dtype=float).reshape(1, -1)
    raw = self.forward(Tensor(window / input_scale)).numpy()[0]
    sums = np.zeros(self.path_set.num_sd_pairs)
    np.add.at(sums, self.path_set.path_sd_index, raw)
    sums = np.maximum(sums, 1e-12)
    return raw / sums[self.path_set.path_sd_index]


def reference_split_ratios_batch(self, windows, input_scale=1.0):
    arr = np.asarray(windows, dtype=float)
    if arr.ndim == 3:
        arr = arr.reshape(arr.shape[0], -1)
    raw = self.forward(Tensor(arr / input_scale)).numpy()
    sums = (self.path_set.sd_to_path @ raw.T).T
    dead = sums <= 1e-18
    denominator = np.where(dead, 1.0, sums)
    ratios = raw / denominator[:, self.path_set.path_sd_index]
    if dead.any():
        counts = np.asarray(self.path_set.sd_to_path.sum(axis=1)).ravel()
        uniform = 1.0 / counts[self.path_set.path_sd_index]
        ratios = np.where(dead[:, self.path_set.path_sd_index], uniform, ratios)
    return ratios


# ---------------------------------------------------------------------- #
# Strategies and comparison helpers
# ---------------------------------------------------------------------- #
@st.composite
def demand_cubes(draw, min_intervals: int = 1):
    """A ``(T, n, n)`` demand array with zeros, a non-zero diagonal and a wide range."""
    seed = draw(st.integers(0, 2**32 - 1))
    intervals = draw(st.integers(min_intervals, 12))
    nodes = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    cube = rng.random((intervals, nodes, nodes)) * 10.0 ** rng.integers(-3, 4)
    cube[rng.random(cube.shape) < 0.2] = 0.0
    return cube


#: How a caller can hand the same trace to the constructors.
SOURCES = ("cube", "fortran_cube", "list", "objects", "from_flat", "from_flat_strided")


def build(source: str, cube: np.ndarray, **meta) -> TrafficMatrixSequence:
    nodes = cube.shape[1]
    if source == "cube":
        return TrafficMatrixSequence(cube, **meta)
    if source == "fortran_cube":
        return TrafficMatrixSequence(np.asfortranarray(cube), **meta)
    if source == "list":
        return TrafficMatrixSequence(list(cube), **meta)
    if source == "objects":
        return TrafficMatrixSequence([TrafficMatrix(m) for m in cube], **meta)
    flat = ReferenceSequence(cube).flat_demands()
    if source == "from_flat_strided":
        flat = np.asfortranarray(flat)
    return TrafficMatrixSequence.from_flat(flat, nodes, **meta)


def assert_stored_trace(sequence: TrafficMatrixSequence) -> None:
    flat = sequence.flat_demands()
    assert flat.flags.c_contiguous and not flat.flags.writeable
    assert flat is sequence.flat_demands()


def assert_same_trace(got: TrafficMatrixSequence, want: ReferenceSequence) -> None:
    """Every array a caller can read off a sequence, byte for byte."""
    assert_stored_trace(got)
    assert (len(got), got.num_nodes) == (len(want), want.num_nodes)
    assert (got.name, got.interval_seconds) == (want.name, want.interval_seconds)
    assert got.flat_demands().shape == want.flat_demands().shape
    assert got.flat_demands().tobytes() == want.flat_demands().tobytes()
    assert got.as_array().tobytes() == want.as_array().tobytes()
    assert got.as_array().flags.writeable
    with np.errstate(all="ignore"):
        for statistic in ("pair_std", "pair_variance", "pair_mean"):
            assert getattr(got, statistic)().tobytes() == getattr(want, statistic)().tobytes()


slices = st.builds(
    slice,
    st.one_of(st.none(), st.integers(-14, 14)),
    st.one_of(st.none(), st.integers(-14, 14)),
    st.one_of(st.none(), st.integers(-3, 3).filter(bool)),
)


# ---------------------------------------------------------------------- #
# Traces
# ---------------------------------------------------------------------- #
class TestTraceEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(cube=demand_cubes(), source=st.sampled_from(SOURCES))
    def test_every_construction_path(self, cube, source):
        got = build(source, cube, interval_seconds=7.5, name="t")
        want = ReferenceSequence(cube, interval_seconds=7.5, name="t")
        assert_same_trace(got, want)
        for index in (0, len(cube) - 1, -1):
            assert isinstance(got[index], TrafficMatrix)
            assert got[index].matrix.tobytes() == want[index].matrix.tobytes()
            assert got[index].flat().tobytes() == want[index].flat().tobytes()
        assert [m.matrix.tobytes() for m in got] == [m.matrix.tobytes() for m in want]

    @settings(max_examples=150, deadline=None)
    @given(
        cube=demand_cubes(),
        source=st.sampled_from(SOURCES),
        first=slices,
        second=slices,
    )
    def test_slices_and_slices_of_slices(self, cube, source, first, second):
        got, want = build(source, cube), ReferenceSequence(cube)
        for index in (first, second):
            if len(range(*index.indices(len(want)))) == 0:
                with pytest.raises(ValueError, match="empty"):
                    got[index]
                return
            got, want = got[index], want[index]
            assert_same_trace(got, want)

    @settings(max_examples=100, deadline=None)
    @given(
        cube=demand_cubes(min_intervals=2),
        source=st.sampled_from(SOURCES),
        fraction=st.floats(0.01, 0.99),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda b: b[0] != b[1]),
    )
    def test_split_and_segment(self, cube, source, fraction, bounds):
        got, want = build(source, cube), ReferenceSequence(cube)
        for part, reference in zip(got.split(fraction), want.split(fraction)):
            assert_same_trace(part, reference)
        try:
            reference = want.segment(min(bounds), max(bounds))
        except ValueError:  # rounds to a cut past the last interval
            with pytest.raises(ValueError, match="empty"):
                got.segment(min(bounds), max(bounds))
        else:
            assert_same_trace(got.segment(min(bounds), max(bounds)), reference)

    @settings(max_examples=60, deadline=None)
    @given(
        cube=demand_cubes(),
        source=st.sampled_from(SOURCES),
        cut=slices,
        history=st.integers(1, 5),
    )
    def test_concatenate_and_windows(self, cube, source, cut, history):
        got, want = build(source, cube), ReferenceSequence(cube)
        if len(range(*cut.indices(len(want)))):
            got, want = got.concatenate(got[cut]), want.concatenate(want[cut])
        else:
            got, want = got.concatenate(got), want.concatenate(want)
        assert_same_trace(got, want)
        got_windows, want_windows = list(got.windows(history)), list(want.windows(history))
        assert len(got_windows) == len(want_windows)
        for (got_h, got_t), (want_h, want_t) in zip(got_windows, want_windows):
            assert got_h.tobytes() == want_h.tobytes() and got_t.tobytes() == want_t.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        cube=demand_cubes(min_intervals=2),
        source=st.sampled_from(SOURCES),
        alpha=st.sampled_from([0.0, 0.2, 1.0, 2.0]),
        seed=st.integers(0, 1000),
        worst_case=st.booleans(),
    )
    def test_both_perturbations(self, cube, source, alpha, seed, worst_case):
        got, want = build(source, cube, name="trace"), ReferenceSequence(cube, name="trace")
        train, test = got.split(0.6)
        ref_train, ref_test = want.split(0.6)
        perturb, reference = (
            (reverse_rank_fluctuation, reference_reverse_rank_fluctuation)
            if worst_case
            else (gaussian_fluctuation, reference_gaussian_fluctuation)
        )
        assert_same_trace(
            perturb(test, alpha, train.pair_std(), seed=seed),
            reference(ref_test, alpha, ref_train.pair_std(), seed=seed),
        )

    def test_a_pickled_slice_ships_its_rows_and_stays_read_only(self):
        cube = np.random.default_rng(5).random((9, 4, 4))
        part = TrafficMatrixSequence(cube, interval_seconds=3.0, name="p")[2:6]
        payload = pickle.dumps(part)
        assert len(payload) < part.flat_demands().nbytes + 512
        assert_same_trace(
            pickle.loads(payload), ReferenceSequence(cube[2:6], interval_seconds=3.0, name="p")
        )


# ---------------------------------------------------------------------- #
# Inference
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def mesh5_paths():
    return build_ksp_path_set(generators.fully_connected(5, capacity=10.0), k=3)


class TestTapeFreeInference:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        history_len=st.integers(1, 3),
        hidden_sizes=st.sampled_from([(8,), (16, 8), (5, 5, 5), (128, 128)]),
        batch=st.integers(1, 7),
        dead_pairs=st.integers(0, 4),
        input_scale=st.sampled_from([1.0, 0.37, 12.5]),
    )
    def test_split_ratios_match_the_taped_forward(
        self, mesh5_paths, seed, history_len, hidden_sizes, batch, dead_pairs, input_scale
    ):
        rng = np.random.default_rng(seed)
        model = FigretNet(
            mesh5_paths, history_len=history_len, hidden_sizes=hidden_sizes, seed=seed % 1000
        )
        # Dead pairs: every path score of the pair underflows, whatever the input.
        output = [m for m in model.network.modules if isinstance(m, Linear)][-1]
        dead = np.isin(
            mesh5_paths.path_sd_index,
            rng.choice(mesh5_paths.num_sd_pairs, size=dead_pairs, replace=False),
        )
        output.weight.data[:, dead] = 0.0
        output.bias.data[dead] = -80.0
        windows = rng.random((batch, history_len, mesh5_paths.num_sd_pairs)) * 5.0

        got = model.split_ratios_batch(windows, input_scale=input_scale)
        want = reference_split_ratios_batch(model, windows, input_scale=input_scale)
        assert got.tobytes() == want.tobytes()
        assert (want[:, dead] == 1.0 / 3.0).all()  # the uniform fallback, k = 3 paths a pair
        flattened = windows.reshape(batch, -1)
        assert model.split_ratios_batch(flattened, input_scale).tobytes() == want.tobytes()
        for window in windows[:2]:
            single = model.split_ratios(window, input_scale=input_scale)
            assert single.tobytes() == reference_split_ratios(model, window, input_scale).tobytes()

    def test_forward_tapes_tensors_only(self, mesh5_paths):
        model = FigretNet(mesh5_paths, history_len=2, hidden_sizes=(8,), seed=1)
        batch = np.random.default_rng(0).random((3, model.input_dim))
        taped = model.forward(Tensor(batch))
        plain = model.forward(batch)
        assert isinstance(taped, Tensor) and taped.requires_grad
        assert isinstance(plain, np.ndarray)
        assert plain.tobytes() == taped.data.tobytes()


# ---------------------------------------------------------------------- #
# The allocation gate
# ---------------------------------------------------------------------- #
def test_replay_builds_no_matrix_and_no_tensor(monkeypatch, mesh4_paths, mesh4_traffic):
    """Fails at the parent: one matrix per perturbed interval, a tape per pass."""
    train, test = mesh4_traffic.split(0.75)
    scheme = Figret(mesh4_paths, TrainingConfig(history_len=4, epochs=2, seed=0))
    scheme.precompute(train)
    engine = EvaluationEngine(cache=OptimalMLUCache())

    built = {TrafficMatrix: 0, Tensor: 0}
    for cls in built:
        original = cls.__init__

        def counting(self, *args, _cls=cls, _original=original, **kwargs):
            built[_cls] += 1
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)

    perturbed = reverse_rank_fluctuation(test, 1.0, train.pair_std(), seed=3)
    batched = engine.evaluate_scheme(scheme, perturbed[:12], 4)
    streamed = engine.evaluate_streaming(scheme, perturbed[:12], 4, chunk_size=3)
    assert built == {TrafficMatrix: 0, Tensor: 0}
    assert streamed.normalized_mlus.tobytes() == batched.normalized_mlus.tobytes()
    assert np.isfinite(batched.normalized_mlus).all()
    # The counters do count: indexing is where matrices still come from.
    assert isinstance(perturbed[0], TrafficMatrix) and built[TrafficMatrix] == 1


# ---------------------------------------------------------------------- #
# End to end: records equal to the parent commit's
# ---------------------------------------------------------------------- #
SEED = 7


def _scenario(name: str, intervals: int) -> dict:
    return {"name": name, "seed": SEED, "num_intervals": intervals}


def _neural(kind: str, epochs: int, **params) -> dict:
    return {"kind": kind, "epochs": epochs, "seed": SEED, **params}


def _fluctuation(alpha: float, **params) -> dict:
    return {"kind": "fluctuation", "alpha": alpha, "seed": SEED, **params}


def _sweep(*values) -> dict:
    return {"sweep": list(values)}


_THREE_NEURAL = _sweep(_neural("figret", 3), _neural("dote", 3), _neural("teal", 3))

#: perfbench's ``service_warm`` grid A and ``wan_cold`` spec at its seed 7, and
#: a ``warm_grid``-shaped grid on one scenario: batched cells, one failure
#: cell and chunked streaming cells.
SPECS = {
    "service_warm_a": {
        "scenario": _scenario("pfabric_small", 120),
        "scheme": _sweep(_neural("figret", 3), _neural("dote", 3)),
        "perturbation": _sweep({"kind": "none"}, _fluctuation(0.5), _fluctuation(1.0)),
        "max_intervals": 12,
    },
    "warm_grid_shaped": [
        {
            "scenario": _scenario("pfabric_small", 80),
            "scheme": _THREE_NEURAL,
            "perturbation": _sweep(
                {"kind": "none"}, _fluctuation(1.0), _fluctuation(1.0, worst_case=True)
            ),
            "max_intervals": 8,
        },
        {
            "scenario": _scenario("pfabric_small", 80),
            "scheme": _neural("figret", 3),
            "perturbation": {"kind": "failure", "num_failures": 1, "num_trials": 2, "seed": SEED},
            "max_intervals": 8,
        },
        {
            "scenario": _scenario("pfabric_small", 80),
            "scheme": _THREE_NEURAL,
            "perturbation": _sweep({"kind": "none"}, _fluctuation(1.0)),
            "max_intervals": 8,
            "streaming": True,
            "chunk_size": 8,
        },
    ],
    "wan_cold": {
        "scenario": _scenario("geant_small", 72),
        "scheme": _sweep(
            _neural("figret", 6, robustness_weight=0.15, learning_rate=5e-4),
            {"kind": "des_te"},
            {"kind": "pred_te"},
        ),
        "perturbation": _sweep({"kind": "none"}, _fluctuation(1.0)),
        "max_intervals": 6,
    },
}

#: sha256 of ``ResultSet.to_json()`` at the parent commit (ebe376d), default
#: backends, ``OPENBLAS_NUM_THREADS=1``, on the numeric stack named by
#: ``RECORDED_ON`` (another BLAS, libm or HiGHS rounds differently).
PARENT_DIGESTS = {
    "service_warm_a": "4af8f2db21016d77d095e3256dca60d553c53808a52ed11ed56764457c7cf8f1",
    "warm_grid_shaped": "3f6efef7f6371128cfd4ce7c8a42ef9caf1e9ebe1058d15e2614ade2d955858e",
    "wan_cold": "460e4f936bec209559e6d71b768dac89e2476430b4a02b1285ffd58c594623a7",
}
RECORDED_ON = "numpy 2.4.6, scipy 1.17.1, kernel 924f0f8608dcb85f"


def _numeric_stack() -> str:
    """Library versions plus the bits of a matmul / exp chain on this machine."""
    import scipy

    rng = np.random.default_rng(0)
    chain = np.exp(-np.abs(rng.standard_normal((64, 256)) @ rng.standard_normal((256, 128))) / 16)
    digest = hashlib.sha256(chain.tobytes()).hexdigest()[:16]
    return f"numpy {np.__version__}, scipy {scipy.__version__}, kernel {digest}"


def _digests() -> dict:
    from repro.study import Study

    digests = {"numeric_stack": _numeric_stack()}
    for name, spec in SPECS.items():
        results = Study(spec).run(engine=EvaluationEngine(cache=OptimalMLUCache()))
        digests[name] = hashlib.sha256(results.to_json().encode()).hexdigest()
    return digests


def test_records_equal_the_parent_commits():
    # A fresh interpreter: one BLAS thread (the threaded matmul sums in
    # another order) and none of the REPRO_* selectors a CI leg may have set.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).resolve().parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    if digests.pop("numeric_stack") != RECORDED_ON:
        pytest.skip(f"digests were recorded on another numeric stack ({RECORDED_ON})")
    assert digests == PARENT_DIGESTS


if __name__ == "__main__":
    print(json.dumps(_digests()))
