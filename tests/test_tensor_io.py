"""Unit tests for tensor text I/O."""

import re

import numpy as np
import pytest

from repro.tensor import SparseBoolTensor, load_tensor, random_tensor, save_tensor
from repro.tensor.io import load_matrix


class TestIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        tensor = random_tensor((6, 7, 8), density=0.1, rng=rng)
        path = tmp_path / "tensor.tns"
        save_tensor(tensor, path)
        assert load_tensor(path) == tensor

    def test_empty_tensor_round_trip(self, tmp_path):
        tensor = SparseBoolTensor.empty((3, 4, 5))
        path = tmp_path / "empty.tns"
        save_tensor(tensor, path)
        loaded = load_tensor(path)
        assert loaded == tensor
        assert loaded.shape == (3, 4, 5)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "hand.tns"
        path.write_text("# shape 2 2 2\n\n# a comment\n0 0 0\n1 1 1\n")
        tensor = load_tensor(path)
        assert tensor.nnz == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tns"
        path.write_text("0 0 0\n")
        with pytest.raises(ValueError):
            load_tensor(path)

    def test_wrong_arity_rejected(self, tmp_path):
        path = tmp_path / "bad2.tns"
        path.write_text("# shape 2 2 2\n0 0\n")
        with pytest.raises(ValueError):
            load_tensor(path)

    def test_out_of_bounds_coordinate_rejected(self, tmp_path):
        path = tmp_path / "bad3.tns"
        path.write_text("# shape 2 2 2\n0 0 5\n")
        with pytest.raises(ValueError):
            load_tensor(path)


def _rejects(loader, tmp_path, text, line):
    """``loader`` raises ValueError naming ``path:line`` for ``text``."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}:{line}: "):
        loader(path)


class TestMalformedInput:
    """Every rejection names the file and the offending line."""

    @pytest.mark.parametrize(
        "text, line",
        [
            ("# shape 2 2 2\n0 -1 0\n", 2),
            ("# shape 2 2 2\n0 0 0\n1 1 2\n", 3),
            ("# shape 2 2 2\n0 x 0\n", 2),
            ("# shape 2 2 2\n0 1.5 0\n", 2),
            ("# shape 2 2 2\n0 0\n", 2),
            ("0 0 0\n", 1),
            ("# shape\n", 1),
            ("# shape 2 two 2\n", 1),
            ("# shape 2 -2 2\n", 1),
        ],
        ids=[
            "negative-index", "out-of-range", "non-integer", "float",
            "arity", "no-header", "empty-shape", "non-integer-header",
            "negative-shape",
        ],
    )
    def test_tensor(self, tmp_path, text, line):
        _rejects(load_tensor, tmp_path, text, line)

    @pytest.mark.parametrize(
        "text, line",
        [
            # Used to wrap around and set the last row.
            ("# matrix 3 2\n-1 1\n", 2),
            ("# matrix 3 2\n0 0\n0 2\n", 3),
            ("# matrix 3 2\n3 0\n", 2),
            ("# matrix 3 2\n0 one\n", 2),
            ("# matrix 3 2\n0 1 1\n", 2),
            ("# shape 3 2\n", 1),
            ("# matrix 3\n", 1),
            ("# matrix 3 2 1\n", 1),
            ("# matrix 3 b\n", 1),
            ("# matrix -3 2\n", 1),
        ],
        ids=[
            "negative-row", "column-out-of-range", "row-out-of-range",
            "non-integer", "arity", "wrong-header", "short-header",
            "long-header", "non-integer-header", "negative-header",
        ],
    )
    def test_matrix(self, tmp_path, text, line):
        _rejects(load_matrix, tmp_path, text, line)

    def test_valid_matrix_loads(self, tmp_path):
        path = tmp_path / "ok.mtx"
        path.write_text("# matrix 3 2\n# comment\n\n2 1\n0 0\n")
        np.testing.assert_array_equal(
            load_matrix(path).to_dense(), [[1, 0], [0, 0], [0, 1]]
        )
