"""Unit tests for SparseBoolTensor."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tensor.sparse as sparse_module
from repro.distengine.shuffle import estimate_bytes, stable_hash
from repro.tensor import SparseBoolTensor, TensorDelta


def random_dense_tensor(shape, seed, density=0.3):
    rng = np.random.default_rng(seed)
    return (rng.random(shape) < density).astype(np.uint8)


class TestConstruction:
    def test_empty(self):
        tensor = SparseBoolTensor.empty((2, 3, 4))
        assert tensor.nnz == 0
        assert tensor.shape == (2, 3, 4)
        assert tensor.density() == 0.0

    def test_from_dense_round_trip(self):
        dense = random_dense_tensor((4, 5, 6), seed=1)
        tensor = SparseBoolTensor.from_dense(dense)
        np.testing.assert_array_equal(tensor.to_dense(), dense)
        assert tensor.nnz == int(dense.sum())

    def test_from_nonzeros(self):
        tensor = SparseBoolTensor.from_nonzeros((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
        assert tensor.nnz == 2
        assert (0, 0, 0) in tensor
        assert (1, 1, 1) in tensor
        assert (0, 1, 0) not in tensor

    def test_duplicates_collapse(self):
        tensor = SparseBoolTensor.from_nonzeros((2, 2, 2), [(0, 0, 0), (0, 0, 0)])
        assert tensor.nnz == 1

    def test_coords_sorted(self):
        tensor = SparseBoolTensor.from_nonzeros((3, 3, 3), [(2, 0, 0), (0, 1, 2)])
        np.testing.assert_array_equal(tensor.coords[0], [0, 1, 2])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            SparseBoolTensor.from_nonzeros((2, 2, 2), [(2, 0, 0)])

    def test_negative_coordinate_rejected(self):
        with pytest.raises(ValueError):
            SparseBoolTensor((2, 2), np.array([[-1, 0]]))

    def test_negative_shape_rejected(self):
        with pytest.raises(ValueError):
            SparseBoolTensor((-1, 2))

    def test_zero_mode_rejected(self):
        with pytest.raises(ValueError):
            SparseBoolTensor(())

    def test_bad_coords_shape_rejected(self):
        with pytest.raises(ValueError):
            SparseBoolTensor((2, 2, 2), np.array([[0, 0]]))


_shapes = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple)


@st.composite
def _coord_rows(draw, shape, max_rows=40):
    """Coordinate rows in ``shape``, in any order and possibly repeated."""
    row = st.tuples(*(st.integers(0, size - 1) for size in shape))
    return draw(st.lists(row, max_size=max_rows))


def _rows_array(rows, shape):
    return np.array(rows, dtype=np.int64).reshape(-1, len(shape))


class TestCanonicalForm:
    """The sort-based constructor against the old ``np.unique(axis=0)`` rule."""

    @staticmethod
    def _reference(rows, shape):
        return np.unique(_rows_array(rows, shape), axis=0)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_unique_rows(self, data):
        shape = data.draw(_shapes)
        rows = data.draw(_coord_rows(shape))
        order = data.draw(st.permutations(range(len(rows))))
        expected = self._reference(rows, shape)
        coords = _rows_array(rows, shape)
        shuffled = coords[list(order)]
        duplicated = np.concatenate([coords, shuffled])
        for variant in (coords, shuffled, duplicated, expected):
            tensor = SparseBoolTensor(shape, variant)
            np.testing.assert_array_equal(tensor.coords, expected)
            assert tensor.coords.dtype == np.int64
            assert tensor.coords.flags.c_contiguous

    @pytest.mark.parametrize("canonical", [True, False])
    def test_caller_array_not_aliased(self, canonical):
        coords = np.array([[0, 1, 2], [1, 0, 0], [2, 2, 2]], dtype=np.int64)
        if not canonical:
            coords = coords[::-1].copy()
        tensor = SparseBoolTensor((3, 3, 3), coords)
        before = tensor.coords.copy()
        coords[:] = 0
        np.testing.assert_array_equal(tensor.coords, before)
        assert tensor.nnz == 3

    def test_int64_overflowing_shape_rejected(self):
        shape = (2**32, 2**32, 2)
        with pytest.raises(ValueError, match=r"\(4294967296, 4294967296, 2\)"):
            SparseBoolTensor(shape)

    def test_largest_int64_shape_accepted(self):
        # 454279 * 20303320287433 == 2**63 - 1, the most cells int64 can count.
        shape = (454_279, 20_303_320_287_433)
        last = (shape[0] - 1, shape[1] - 1)
        tensor = SparseBoolTensor(shape, np.array([last, (0, 0)]))
        assert last in tensor
        assert tensor.hamming_distance(SparseBoolTensor.empty(shape)) == 2
        with pytest.raises(ValueError, match="int64"):
            SparseBoolTensor((shape[0] + 1, shape[1]))


class TestProperties:
    def test_density(self):
        tensor = SparseBoolTensor.from_nonzeros((2, 2, 2), [(0, 0, 0), (1, 1, 1)])
        assert tensor.density() == pytest.approx(2 / 8)

    def test_contains_validates_arity(self):
        tensor = SparseBoolTensor.empty((2, 2, 2))
        with pytest.raises(ValueError):
            (0, 0) in tensor

    def test_contains_validates_bounds(self):
        tensor = SparseBoolTensor.empty((2, 2, 2))
        with pytest.raises(IndexError):
            (0, 0, 5) in tensor


class TestSetAlgebra:
    def setup_method(self):
        self.left_dense = random_dense_tensor((4, 4, 4), seed=2)
        self.right_dense = random_dense_tensor((4, 4, 4), seed=3)
        self.left = SparseBoolTensor.from_dense(self.left_dense)
        self.right = SparseBoolTensor.from_dense(self.right_dense)

    def test_boolean_or(self):
        result = self.left.boolean_or(self.right)
        np.testing.assert_array_equal(
            result.to_dense(), self.left_dense | self.right_dense
        )

    def test_boolean_and(self):
        result = self.left.boolean_and(self.right)
        np.testing.assert_array_equal(
            result.to_dense(), self.left_dense & self.right_dense
        )

    def test_xor(self):
        result = self.left.xor(self.right)
        np.testing.assert_array_equal(
            result.to_dense(), self.left_dense ^ self.right_dense
        )

    def test_minus(self):
        result = self.left.minus(self.right)
        np.testing.assert_array_equal(
            result.to_dense(), self.left_dense & ~self.right_dense & 1
        )

    def test_hamming_distance(self):
        expected = int((self.left_dense != self.right_dense).sum())
        assert self.left.hamming_distance(self.right) == expected

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            self.left.boolean_or(SparseBoolTensor.empty((4, 4, 5)))

    def test_or_identity_is_empty(self):
        empty = SparseBoolTensor.empty(self.left.shape)
        assert self.left.boolean_or(empty) == self.left

    def test_xor_self_is_empty(self):
        assert self.left.xor(self.left).nnz == 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_hamming_distance_is_xor_nnz(self, data):
        shape = data.draw(_shapes)
        left, right = (
            SparseBoolTensor(shape, _rows_array(data.draw(_coord_rows(shape)), shape))
            for _ in range(2)
        )
        assert left.hamming_distance(right) == left.xor(right).nnz
        assert right.hamming_distance(left) == left.xor(right).nnz

    def test_hamming_distance_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            self.left.hamming_distance(SparseBoolTensor.empty((4, 4, 5)))

    @given(st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_de_morgan_via_counts(self, seed_a, seed_b):
        left = SparseBoolTensor.from_dense(random_dense_tensor((3, 3, 3), seed_a))
        right = SparseBoolTensor.from_dense(random_dense_tensor((3, 3, 3), seed_b))
        union = left.boolean_or(right).nnz
        intersection = left.boolean_and(right).nnz
        assert union + intersection == left.nnz + right.nnz


class TestSlicing:
    def test_mode_indices(self):
        tensor = SparseBoolTensor.from_nonzeros((5, 5, 5), [(0, 1, 2), (3, 1, 2)])
        np.testing.assert_array_equal(tensor.mode_indices(0), [0, 3])
        np.testing.assert_array_equal(tensor.mode_indices(1), [1])

    def test_mode_indices_bounds(self):
        with pytest.raises(ValueError):
            SparseBoolTensor.empty((2, 2, 2)).mode_indices(5)


class TestDunder:
    def test_equality(self):
        dense = random_dense_tensor((2, 3, 2), seed=5)
        assert SparseBoolTensor.from_dense(dense) == SparseBoolTensor.from_dense(dense)

    def test_inequality_other_type(self):
        assert SparseBoolTensor.empty((1, 1)) != 42

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(SparseBoolTensor.empty((1, 1)))

    def test_repr(self):
        assert "nnz=0" in repr(SparseBoolTensor.empty((2, 2)))

    def test_copy_independent(self):
        tensor = SparseBoolTensor.from_nonzeros((2, 2, 2), [(0, 0, 0)])
        clone = tensor.copy()
        clone.coords[0, 0] = 1
        assert tensor.coords[0, 0] == 0


class _CoordinateLayout:
    """A tensor as it was laid out before flat-built tensors: two slots.

    Named like ``SparseBoolTensor`` so that pickle records the same class.
    """

    __slots__ = ("shape", "coords")
    __module__ = SparseBoolTensor.__module__
    __qualname__ = SparseBoolTensor.__qualname__


def _pre_change_fingerprint(shape, coords):
    """``(pickle bytes, stable_hash, estimate_bytes)`` of the two-slot layout.

    The stand-in is pickled under ``SparseBoolTensor``'s own name, so the
    bytes are what a tensor over these cells pickled to before tensors could
    store flat indices.
    """
    legacy = _CoordinateLayout()
    legacy.shape, legacy.coords = shape, coords
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sparse_module, "SparseBoolTensor", _CoordinateLayout)
        return (
            pickle.dumps(legacy, protocol=4), stable_hash(legacy),
            estimate_bytes(legacy),
        )


class TestFlatBuilt:
    """Tensors advanced by ``apply_delta`` store flat indices only.

    A chain of random deltas is checked against a set-of-cells reference
    and against the coordinate-built tensor over the same cells.
    """

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_delta_chain_matches_reference(self, data):
        shape = data.draw(_shapes)
        n_cells = int(np.prod(shape))
        tensor = SparseBoolTensor(shape, _rows_array(data.draw(_coord_rows(shape)), shape))
        cells = set(tensor.flat.tolist())
        cell = st.integers(0, n_cells - 1)
        for flips in data.draw(st.lists(st.lists(cell, max_size=6), min_size=1, max_size=4)):
            flips = set(flips)
            delta = TensorDelta(shape, sorted(flips - cells), sorted(flips & cells))
            tensor = tensor.apply_delta(delta)
            cells ^= flips
            assert tensor._coords is None

            flat = np.array(sorted(cells), dtype=np.int64)
            coords = np.stack(np.unravel_index(flat, shape), axis=1).reshape(-1, len(shape))
            built = SparseBoolTensor(shape, coords)
            np.testing.assert_array_equal(tensor.flat, flat)
            np.testing.assert_array_equal(tensor.coords, coords)
            assert tensor.coords.dtype == np.int64
            assert tensor.nnz == built.nnz == len(cells)
            assert tensor == built and built == tensor
            for flipped in flips:
                coordinate = np.unravel_index(flipped, shape)
                assert (coordinate in tensor) == (flipped in cells)
            assert tensor.hamming_distance(built) == 0
            assert built.hamming_distance(tensor) == 0
            np.testing.assert_array_equal(tensor.to_dense(), built.to_dense())

            clone = tensor.copy()
            assert clone == tensor and clone._coords is None
            if clone.nnz:
                clone.flat[:] = clone.flat[0]
                np.testing.assert_array_equal(tensor.flat, flat)

            assert pickle.dumps(tensor, protocol=4) == pickle.dumps(built, protocol=4)
            assert stable_hash(tensor) == stable_hash(built)
            assert estimate_bytes(tensor) == estimate_bytes(built)
            assert (
                pickle.dumps(built, protocol=4), stable_hash(built), estimate_bytes(built)
            ) == _pre_change_fingerprint(shape, built.coords)
            assert pickle.loads(pickle.dumps(tensor)) == built

    def test_set_algebra_builds_flat_tensors(self):
        left = SparseBoolTensor.from_dense(random_dense_tensor((3, 4, 5), seed=8))
        right = SparseBoolTensor.from_dense(random_dense_tensor((3, 4, 5), seed=9))
        dense_left, dense_right = left.to_dense(), right.to_dense()
        for result, expected in (
            (left.boolean_or(right), dense_left | dense_right),
            (left.boolean_and(right), dense_left & dense_right),
            (left.xor(right), dense_left ^ dense_right),
            (left.minus(right), dense_left & ~dense_right),
        ):
            assert result._coords is None
            assert result == SparseBoolTensor.from_dense(expected)

    def test_from_flat_validates(self):
        tensor = SparseBoolTensor.from_flat((2, 3), [5, 0, 5, 3])
        np.testing.assert_array_equal(tensor.coords, [[0, 0], [1, 0], [1, 2]])
        with pytest.raises(ValueError, match="out of bounds"):
            SparseBoolTensor.from_flat((2, 3), [6])
        with pytest.raises(ValueError, match="negative dimension"):
            SparseBoolTensor.from_flat((-1, 3), [])
        source = np.array([0, 4], dtype=np.int64)
        tensor = SparseBoolTensor.from_flat((2, 3), source)
        source[0] = 1
        np.testing.assert_array_equal(tensor.flat, [0, 4])
