"""Unit tests for TensorDelta and SparseBoolTensor.apply_delta."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    SparseBoolTensor,
    TensorDelta,
    load_delta,
    save_delta,
)

SHAPE = (4, 5, 6)


def _tensor_pair(seed, density=0.2):
    """Two random tensors of SHAPE drawn from the same distribution."""
    rng = np.random.default_rng(seed)
    old = SparseBoolTensor.from_dense(
        (rng.random(SHAPE) < density).astype(np.uint8)
    )
    new = SparseBoolTensor.from_dense(
        (rng.random(SHAPE) < density).astype(np.uint8)
    )
    return old, new


class TestConstruction:
    def test_empty(self):
        delta = TensorDelta.empty(SHAPE)
        assert delta.is_empty
        assert delta.n_added == delta.n_removed == delta.n_changes == 0
        assert delta.shape == SHAPE

    def test_from_coords(self):
        delta = TensorDelta.from_coords(
            SHAPE, added=[(0, 0, 0), (1, 2, 3)], removed=[(3, 4, 5)]
        )
        assert delta.n_added == 2
        assert delta.n_removed == 1
        np.testing.assert_array_equal(
            delta.added_coords(), [[0, 0, 0], [1, 2, 3]]
        )
        np.testing.assert_array_equal(delta.removed_coords(), [[3, 4, 5]])

    def test_duplicates_collapse(self):
        delta = TensorDelta.from_coords(
            SHAPE, added=[(0, 0, 0), (0, 0, 0)], removed=[]
        )
        assert delta.n_added == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            TensorDelta.from_coords(SHAPE, added=[(4, 0, 0)], removed=[])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_flat_sets_sorted_unique(self, data):
        n_cells = int(np.prod(SHAPE))
        flat = st.lists(st.integers(0, n_cells - 1), max_size=30)
        added = data.draw(flat)
        removed = [i for i in data.draw(flat) if i not in set(added)]
        delta = TensorDelta(SHAPE, added, removed)
        assert delta.added.tolist() == sorted(set(added))
        assert delta.removed.tolist() == sorted(set(removed))
        assert delta.added.dtype == delta.removed.dtype == np.int64

    def test_int64_overflowing_shape_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            TensorDelta((2**32, 2**32, 2))

    def test_overlapping_add_remove_rejected(self):
        with pytest.raises(ValueError, match="both added and removed"):
            TensorDelta.from_coords(
                SHAPE, added=[(1, 1, 1)], removed=[(1, 1, 1)]
            )

    def test_immutable(self):
        delta = TensorDelta.empty(SHAPE)
        with pytest.raises(AttributeError):
            delta.shape = (1, 1, 1)

    def test_equality_and_hash(self):
        a = TensorDelta.from_coords(SHAPE, added=[(0, 1, 2)], removed=[])
        b = TensorDelta.from_coords(SHAPE, added=[(0, 1, 2)], removed=[])
        c = TensorDelta.from_coords(SHAPE, added=[(0, 1, 3)], removed=[])
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestBetween:
    def test_between_recovers_difference(self):
        old, new = _tensor_pair(seed=0)
        delta = TensorDelta.between(old, new)
        assert old.apply_delta(delta) == new

    def test_between_identical_is_empty(self):
        old, _ = _tensor_pair(seed=1)
        assert TensorDelta.between(old, old).is_empty

    def test_between_shape_mismatch(self):
        old, _ = _tensor_pair(seed=2)
        other = SparseBoolTensor.empty((2, 2, 2))
        with pytest.raises(ValueError):
            TensorDelta.between(old, other)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_between_then_apply_round_trips(self, seed):
        old, new = _tensor_pair(seed)
        delta = TensorDelta.between(old, new)
        assert old.apply_delta(delta) == new
        assert delta.n_changes == old.hamming_distance(new)


class TestApplyDelta:
    def test_apply_empty_is_identity(self):
        old, _ = _tensor_pair(seed=3)
        assert old.apply_delta(TensorDelta.empty(SHAPE)) == old

    def test_add_present_cell_rejected(self):
        old, _ = _tensor_pair(seed=4)
        cell = tuple(int(x) for x in old.coords[0])
        delta = TensorDelta.from_coords(SHAPE, added=[cell], removed=[])
        with pytest.raises(ValueError, match="different base"):
            old.apply_delta(delta)

    def test_remove_absent_cell_rejected(self):
        old, _ = _tensor_pair(seed=5)
        present = {tuple(int(x) for x in c) for c in old.coords}
        absent = next(
            (i, j, k)
            for i in range(SHAPE[0])
            for j in range(SHAPE[1])
            for k in range(SHAPE[2])
            if (i, j, k) not in present
        )
        delta = TensorDelta.from_coords(SHAPE, added=[], removed=[absent])
        with pytest.raises(ValueError, match="different base"):
            old.apply_delta(delta)

    def test_shape_mismatch_rejected(self):
        old, _ = _tensor_pair(seed=6)
        delta = TensorDelta.empty((2, 2, 2))
        with pytest.raises(ValueError):
            old.apply_delta(delta)


def _cells(shape):
    return [tuple(int(i) for i in c) for c in np.ndindex(*shape)]


def _tensor(shape, cells):
    return SparseBoolTensor(
        shape, np.array(sorted(cells), dtype=np.int64).reshape(-1, len(shape))
    )


def _delta(shape, added, removed):
    return TensorDelta.from_coords(
        shape,
        added=np.array(sorted(added), dtype=np.int64).reshape(-1, len(shape)),
        removed=np.array(sorted(removed), dtype=np.int64).reshape(-1, len(shape)),
    )


def _as_set(tensor):
    return {tuple(int(i) for i in c) for c in tensor.coords}


_shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def _subset(data, items):
    items = sorted(items)
    keep = data.draw(st.lists(st.booleans(), min_size=len(items), max_size=len(items)))
    return {item for item, kept in zip(items, keep) if kept}


class TestApplyDeltaReference:
    """``apply_delta`` against a set-of-tuples reference."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_tensor_and_delta(self, data):
        shape = data.draw(_shapes)
        cells = set(_cells(shape))
        present = _subset(data, cells)
        removed = _subset(data, present)
        added = _subset(data, cells - present)
        result = _tensor(shape, present).apply_delta(_delta(shape, added, removed))
        assert _as_set(result) == (present - removed) | added
        assert result == _tensor(shape, (present - removed) | added)

    @pytest.mark.parametrize("shape", [(1,), (3, 1), (2, 3, 4)])
    def test_edge_cases(self, shape):
        cells = set(_cells(shape))
        first, last = min(cells), max(cells)
        empty = _tensor(shape, set())
        full = _tensor(shape, cells)
        cases = [
            (empty, set(), set()),  # empty tensor, empty delta
            (full, set(), set()),  # empty delta
            (full, set(), cells),  # remove every cell
            (empty, cells, set()),  # fill an empty tensor
            (empty, {first, last}, set()),  # flat indices 0 and n_cells - 1
            (full, set(), {first, last}),
            (_tensor(shape, {first}), {last} - {first}, {first}),
        ]
        for base, added, removed in cases:
            result = base.apply_delta(_delta(shape, added, removed))
            assert _as_set(result) == (_as_set(base) - removed) | added

    def test_result_does_not_share_memory(self):
        old, new = _tensor_pair(seed=8)
        result = old.apply_delta(TensorDelta.between(old, new))
        assert not np.shares_memory(result.coords, old.coords)
        same = old.apply_delta(TensorDelta.empty(SHAPE))
        assert same == old
        assert not np.shares_memory(same.coords, old.coords)

    @given(seed=st.integers(0, 10_000), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_strictness_errors_report_exact_counts(self, seed, data):
        old, _ = _tensor_pair(seed, density=0.5)
        present = sorted(_as_set(old))
        absent = sorted(set(_cells(SHAPE)) - set(present))
        n_bad = data.draw(st.integers(1, min(len(present), len(absent), 8)))
        stale_removed = _delta(SHAPE, set(), set(absent[:n_bad]) | set(present[:3]))
        with pytest.raises(ValueError, match=rf"removes {n_bad} cell\(s\) not"):
            old.apply_delta(stale_removed)
        stale_added = _delta(SHAPE, set(present[-n_bad:]) | set(absent[-3:]), set())
        with pytest.raises(ValueError, match=rf"adds {n_bad} cell\(s\) already"):
            old.apply_delta(stale_added)


class TestDeltaIO:
    def test_save_load_round_trip(self, tmp_path):
        old, new = _tensor_pair(seed=7)
        delta = TensorDelta.between(old, new)
        path = tmp_path / "changes.delta"
        save_delta(delta, path)
        assert load_delta(path) == delta

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.delta"
        save_delta(TensorDelta.empty(SHAPE), path)
        assert load_delta(path) == TensorDelta.empty(SHAPE)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.delta"
        path.write_text("# delta 4 5 6\n? 0 0 0\n")
        with pytest.raises(ValueError):
            load_delta(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.delta"
        path.write_text("+ 0 0 0\n")
        with pytest.raises(ValueError):
            load_delta(path)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# delta 4 four 6\n", 1, "shape must be integers"),
            ("# delta 4 -5 6\n", 1, "negative shape"),
            ("# delta 4 5 6\n+ 1 2 x\n", 2, "coordinates must be integers"),
            ("# delta 4 5 6\n+ 0 0 0\n\n- 3 5 0\n", 4, "out of bounds"),
            ("# delta 4 5 6\n+ 0 -1 0\n", 2, "out of bounds"),
        ],
    )
    def test_bad_values_name_path_and_line(self, tmp_path, text, line, message):
        path = tmp_path / "bad.delta"
        path.write_text(text)
        with pytest.raises(ValueError) as excinfo:
            load_delta(path)
        error = str(excinfo.value)
        assert str(path) in error
        assert f"line {line}:" in error
        assert message in error
