"""MTXC text format round-trips and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    # an extra row is not dropped
    with pytest.raises(InvalidInputError, match="expected 2 rows, found 3"):
        mtxc.loads("MTXC 1 2\n0 0 0 0\n0 0 0 0\n1 0 0 0\n")


def test_rejects_field_count_mismatch():
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 2\n0 0 0\n0 0 0 0\n")
    # 2n + 1 and 2n - 1 values hold 2n^2 in all, but shifted
    for rows, i, found in [("1 2 3 4 5\n6 7 8", 0, 5), ("1 2 3\n4 5 6 7 8", 0, 3)]:
        with pytest.raises(InvalidInputError, match=f"row {i}: expected 4 values, found {found}"):
            mtxc.loads(f"MTXC 1 2\n{rows}\n")


def test_rejects_non_numeric_and_non_finite():
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 1\n0 abc\n")
    with pytest.raises(InvalidInputError):
        mtxc.loads("MTXC 1 1\nnan 0\n")


def reference_dumps(m):
    """The per-element writer MTXC had before dumps formatted whole rows at once."""
    a = np.asarray(m, dtype=np.complex128)
    lines = [f"{mtxc.MAGIC} {mtxc.VERSION} {a.shape[0]}"]
    for row in a:
        parts = []
        for z in row:
            parts.append(f"{z.real:.17g}")
            parts.append(f"{z.imag:.17g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308, 5e300,
               1 + 2**-52, np.finfo(float).max]


@st.composite
def finite_matrices(draw):
    """n x n complex matrices, n in 1..8, over all finite floats and the edge values."""
    n = draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    part = st.one_of(st.sampled_from(EDGE_FLOATS), finite)
    return draw(arrays(np.float64, (n, 2 * n), elements=part)).view(np.complex128)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestWholeRowFormat:
    @PROPERTY
    @given(finite_matrices())
    def test_dumps_matches_per_element_reference(self, m):
        assert mtxc.dumps(m) == reference_dumps(m)

    @PROPERTY
    @given(finite_matrices())
    def test_round_trip_bit_for_bit(self, m):
        back = mtxc.loads(mtxc.dumps(m))
        assert back.dtype == np.complex128 and back.shape == m.shape
        assert np.array_equal(back.view(np.uint64), m.view(np.uint64))

    def test_non_contiguous_input(self):
        m = (np.arange(16.0) - 1j * np.arange(16.0)[::-1]).reshape(4, 4)
        assert mtxc.dumps(m.T) == reference_dumps(m.T)
        assert mtxc.dumps(m[::-1, ::2][:2]) == reference_dumps(m[::-1, ::2][:2])


class TestTokens:
    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_non_numeric_token_names_its_row(self, row):
        lines = mtxc.dumps(np.eye(5)).splitlines()
        fields = lines[1 + row].split()
        fields[3] = "0x1p0"
        lines[1 + row] = " ".join(fields)
        with pytest.raises(InvalidInputError, match=f"^row {row}: non-numeric value$") as info:
            mtxc.loads("\n".join(lines))
        assert "'0x1p0'" in str(info.value.__cause__)

    def test_first_bad_row_wins_whatever_its_fault(self):
        # row 0 has a non-numeric token, row 2 is one value short
        lines = mtxc.dumps(np.eye(3)).splitlines()
        lines[1] = lines[1].replace("1", "one", 1)
        lines[3] = lines[3].rsplit(" ", 1)[0]
        with pytest.raises(InvalidInputError, match="^row 0: non-numeric value$"):
            mtxc.loads("\n".join(lines))

    def test_underscore_digits_parse_as_python_floats(self):
        assert np.array_equal(mtxc.loads("MTXC 1 1\n1_0 -2_5.5e-1\n"),
                              np.array([[10 - 25.5e-1j]]))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_rejected(self, token):
        with pytest.raises(InvalidInputError, match="non-finite"):
            mtxc.loads(f"MTXC 1 2\n0 0 0 0\n0 {token} 0 0\n")

    def test_loads_keeps_pythons_float_grammar_on_a_str(self):
        # only read() asks for ASCII; U+0661 is ARABIC-INDIC DIGIT ONE
        assert np.array_equal(mtxc.loads("MTXC 1 1\n\u0661 0\n"), np.array([[1 + 0j]]))


class TestAscii:
    @pytest.mark.parametrize("raw, offset", [(b"MTXC 1 1\n1 0\xff\n", 12),
                                             (b"\xef\xbb\xbfMTXC 1 1\n1 0\n", 0)],
                             ids=["ff", "bom"])
    def test_non_ascii_byte_rejected_at_its_offset(self, tmp_path, raw, offset):
        path = tmp_path / "bad.mtxc"
        path.write_bytes(raw)
        with pytest.raises(InvalidInputError, match=f"^non-ASCII byte at offset {offset}$"):
            mtxc.read(path)

    def test_crlf_file_reads_as_its_lf_twin(self, tmp_path):
        text = mtxc.dumps(np.array([[0.6 + 0.8j, -0.0], [1e-300, 2.5]]))
        path = tmp_path / "crlf.mtxc"
        path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
        back = mtxc.read(path)
        assert np.array_equal(back.view(np.float64), mtxc.loads(text).view(np.float64))
        assert np.signbit(back.real[0, 1])
