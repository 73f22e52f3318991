"""MTXC text format round-trips and validation."""

import numpy as np
import pytest

from nearcomm import InvalidInputError
from nearcomm import mtxc


def test_round_trip_exact():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5)) * 1e3 + 1j * rng.standard_normal((5, 5)) * 1e-7
    back = mtxc.loads(mtxc.dumps(m))
    assert np.array_equal(back, m)


def test_round_trip_extreme_values():
    m = np.array(
        [
            [1e-308 + 1j * 0.1, 1e300],
            [-0.1 + 1j * (1 + 2**-52), np.pi],
        ],
        dtype=complex,
    )
    back = mtxc.loads(mtxc.dumps(m))
    assert np.array_equal(back, m)


def test_round_trip_keeps_signed_zeros():
    # -0.0 == 0.0, so compare the bit patterns
    m = np.array(
        [
            [complex(-0.0, 1.0), complex(0.5, -0.0)],
            [complex(-0.0, -0.0), complex(0.0, -0.0)],
        ]
    )
    back = mtxc.loads(mtxc.dumps(m))
    assert np.array_equal(back.view(np.uint64), m.view(np.uint64))


def test_file_round_trip(tmp_path):
    m = np.diag([1j, -1j, 0.5])
    path = tmp_path / "u.mtxc"
    mtxc.write(path, m)
    assert np.array_equal(mtxc.read(path), m)


def test_header_form():
    text = mtxc.dumps(np.eye(2))
    first = text.splitlines()[0]
    assert first == "MTXC 1 2"


def test_rejects_bad_header():
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTX 1 2\n0 0 0 0\n0 0 0 0\n")
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 2 2\n0 0 0 0\n0 0 0 0\n")
    with pytest.raises(InvalidInputError):
        mtxc.loads("")


def test_rejects_row_count_mismatch():
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 2\n0 0 0 0\n")


def test_rejects_field_count_mismatch():
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 2\n0 0 0\n0 0 0 0\n")


def test_rejects_non_numeric_and_non_finite():
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 1\n0 abc\n")
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 1\nnan 0\n")
