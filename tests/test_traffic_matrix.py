"""Unit tests for TrafficMatrix and TrafficMatrixSequence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.traffic.matrix import TrafficMatrix, TrafficMatrixSequence


class TestTrafficMatrix:
    def test_diagonal_is_zeroed(self):
        tm = TrafficMatrix(np.ones((3, 3)))
        assert tm.demand(0, 0) == 0.0
        assert tm.total() == pytest.approx(6.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            TrafficMatrix(np.ones((2, 3)))

    def test_rejects_negative_entries(self):
        data = np.ones((3, 3))
        data[0, 1] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            TrafficMatrix(data)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # nan slipped past ``data < 0`` and surfaced as nan MLUs in every record.
        data = np.ones((3, 3))
        data[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            TrafficMatrix(data)

    def test_flat_excludes_diagonal_in_row_major_order(self):
        data = np.arange(9, dtype=float).reshape(3, 3)
        tm = TrafficMatrix(data)
        np.testing.assert_allclose(tm.flat(), [1, 2, 3, 5, 6, 7])

    def test_scaled(self):
        tm = TrafficMatrix(np.ones((3, 3)))
        assert tm.scaled(2.5).total() == pytest.approx(15.0)

    def test_matrix_returns_copy(self):
        tm = TrafficMatrix(np.ones((3, 3)))
        m = tm.matrix
        m[0, 1] = 42.0
        assert tm.demand(0, 1) == 1.0

    def test_array_protocol(self):
        tm = TrafficMatrix(np.ones((3, 3)))
        arr = np.asarray(tm)
        assert arr.shape == (3, 3)
        assert arr[1, 1] == 0.0


class TestTrafficMatrixSequence:
    def test_construction_from_3d_array(self):
        seq = TrafficMatrixSequence(np.ones((5, 3, 3)))
        assert len(seq) == 5
        assert seq.num_nodes == 3

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            TrafficMatrixSequence([])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="same number of nodes"):
            TrafficMatrixSequence([np.ones((3, 3)), np.ones((4, 4))])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("source", ["cube", "list", "from_flat"])
    def test_non_finite_entries_name_the_first_interval(self, source, bad):
        cube = np.ones((6, 3, 3))
        cube[4, 0, 1] = bad
        cube[5, 2, 1] = bad
        with pytest.raises(ValueError, match=r"finite.*interval 4\b"):
            if source == "cube":
                TrafficMatrixSequence(cube)
            elif source == "list":
                TrafficMatrixSequence(list(cube))
            else:
                flat = cube.reshape(6, 9)[:, [1, 2, 3, 5, 6, 7]]
                TrafficMatrixSequence.from_flat(flat, num_nodes=3)

    def test_from_flat_round_trips_and_validates(self, simple_sequence):
        flat = simple_sequence.flat_demands()
        rebuilt = TrafficMatrixSequence.from_flat(
            flat, simple_sequence.num_nodes, interval_seconds=5.0, name="again"
        )
        assert (rebuilt.interval_seconds, rebuilt.name) == (5.0, "again")
        np.testing.assert_array_equal(rebuilt.as_array(), simple_sequence.as_array())
        np.testing.assert_array_equal(rebuilt[3].matrix, simple_sequence[3].matrix)
        with pytest.raises(ValueError, match="shape"):
            TrafficMatrixSequence.from_flat(flat, num_nodes=4)
        with pytest.raises(ValueError, match="shape"):
            TrafficMatrixSequence.from_flat(flat[0], simple_sequence.num_nodes)
        with pytest.raises(ValueError, match="empty"):
            TrafficMatrixSequence.from_flat(flat[:0], simple_sequence.num_nodes)
        with pytest.raises(ValueError, match="non-negative"):
            TrafficMatrixSequence.from_flat(flat - 100.0, simple_sequence.num_nodes)

    def test_construction_copies_its_input(self):
        cube = np.ones((4, 3, 3))
        flat = np.ones((4, 6))
        from_cube = TrafficMatrixSequence(cube)
        from_flat = TrafficMatrixSequence.from_flat(flat, 3)
        cube[:] = 7.0
        flat[:] = 7.0
        assert from_cube.flat_demands().max() == 1.0
        assert from_flat.flat_demands().max() == 1.0
        with pytest.raises(ValueError, match="read-only"):
            from_cube.flat_demands()[0, 0] = 2.0

    def test_empty_slice_rejected(self, simple_sequence):
        with pytest.raises(ValueError, match="empty"):
            simple_sequence[4:4]

    def test_indexing_and_slicing(self, simple_sequence):
        assert isinstance(simple_sequence[0], TrafficMatrix)
        sub = simple_sequence[2:5]
        assert isinstance(sub, TrafficMatrixSequence)
        assert len(sub) == 3
        assert sub[0].demand(0, 1) == simple_sequence[2].demand(0, 1)

    def test_flat_demands_shape(self, simple_sequence):
        flat = simple_sequence.flat_demands()
        assert flat.shape == (10, 6)

    def test_pair_statistics(self, simple_sequence):
        variance = simple_sequence.pair_variance()
        mean = simple_sequence.pair_mean()
        std = simple_sequence.pair_std()
        # Pair (0, 2) is constant 5 -> zero variance; pair (0, 1) grows -> max variance.
        flat = simple_sequence.flat_demands()
        np.testing.assert_allclose(variance, flat.var(axis=0))
        np.testing.assert_allclose(std, flat.std(axis=0))
        np.testing.assert_allclose(mean, flat.mean(axis=0))
        assert variance[1] == 0.0
        assert variance.argmax() == 0

    def test_split_is_chronological(self, simple_sequence):
        train, test = simple_sequence.split(0.7)
        assert len(train) == 7
        assert len(test) == 3
        assert train[0].demand(0, 1) == 1.0
        assert test[0].demand(0, 1) == 8.0

    def test_split_fraction_validation(self, simple_sequence):
        with pytest.raises(ValueError):
            simple_sequence.split(0.0)
        with pytest.raises(ValueError):
            simple_sequence.split(1.5)

    def test_segment(self, simple_sequence):
        seg = simple_sequence.segment(0.25, 0.5)
        assert len(seg) > 0
        assert len(seg) < len(simple_sequence)

    def test_segment_validation(self, simple_sequence):
        with pytest.raises(ValueError):
            simple_sequence.segment(0.5, 0.25)

    def test_windows_generation(self, simple_sequence):
        windows = list(simple_sequence.windows(3))
        assert len(windows) == 7
        history, target = windows[0]
        assert history.shape == (3, 6)
        np.testing.assert_allclose(history[0], simple_sequence[0].flat())
        np.testing.assert_allclose(target, simple_sequence[3].flat())

    def test_windows_history_validation(self, simple_sequence):
        with pytest.raises(ValueError):
            list(simple_sequence.windows(0))

    def test_concatenate(self, simple_sequence):
        joined = simple_sequence.concatenate(simple_sequence)
        assert len(joined) == 20

    def test_concatenate_size_mismatch(self, simple_sequence):
        other = TrafficMatrixSequence(np.ones((2, 4, 4)))
        with pytest.raises(ValueError):
            simple_sequence.concatenate(other)
