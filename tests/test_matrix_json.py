"""Matrix files round-trip bit for bit, signed zeros included.

A null entry is named by its row and column; any other malformed entry
raises the TypeError or ValueError that the command line turns into an
input error.
"""

import json

import numpy as np
import pytest

from freeconv.serialize import matrix_from_json, matrix_to_json


def test_matrix_entries_round_trip_bit_for_bit():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    m[0, 0] = complex(-0.0, -0.0)
    m[1, 2] = complex(1e-310, -1e300)
    back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
    assert back.dtype == complex and back.shape == m.shape
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))
    assert matrix_from_json({"rows": 1, "cols": 2, "entries": [[[1, 2], [3, 4.5]]]}).tolist() \
        == [[1 + 2j, 3 + 4.5j]]
    assert matrix_from_json({"dim": 0, "entries": []}).shape == (0, 0)


def test_numpy_scalar_entries_are_read():
    data = {"dim": 1, "entries": [[[np.float64(1.5), np.int64(-2)]]]}
    assert matrix_from_json(data).tolist() == [[1.5 - 2j]]


def test_a_null_entry_is_named_by_its_row_and_column():
    data = matrix_to_json(np.arange(6.0).reshape(2, 3) + 0j)
    data["entries"][1][2][1] = None
    with pytest.raises(ValueError, match=r"matrix entry \(1, 2\) is null"):
        matrix_from_json(data)


@pytest.mark.parametrize("entry", [["1", 0.0], [1.0, "x"], [1.0, 2.0, 3.0], [1.0], 1.0,
                                   [[1.0], [2.0]], {"re": 1.0, "im": 0.0}])
def test_a_malformed_entry_raises(entry):
    data = matrix_to_json(np.eye(2, dtype=complex))
    data["entries"][0][1] = entry
    with pytest.raises((TypeError, ValueError)):
        matrix_from_json(data)
