"""Matrix substrate: operator norm, commutators, Hermitian exponential, defects."""

import itertools
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nearcomm import (
    InvalidInputError,
    NumericalError,
    commutator,
    haar_unitary,
    operator_norm,
    stream_rng,
)
from nearcomm.linalg import (
    COMMUTE_TOL,
    HERMITICITY_TOL,
    MODULUS_TOL,
    UNITARITY_TOL,
    HermitianMatrix,
    UnitaryMatrix,
    _spectral_norm,
    as_square_array,
    gated_norm,
    herm_exp,
    hermitian_part,
    hermiticity_defect,
    unitarity_defect,
)
from nearcomm.gapped_log import LaurentCoefficients
from nearcomm.jointdiag import CommutingHermitianPair
from nearcomm.spectral import Eigensystem, unitary_eigensystem

RNG = np.random.default_rng(20240811)


def random_complex(n, rng=RNG):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(n, rng=RNG):
    z = random_complex(n, rng)
    return (z + z.conj().T) / 2.0


class TestOperatorNorm:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_identity(self, n):
        assert operator_norm(np.eye(n)) == pytest.approx(1.0, abs=1e-14)

    def test_diagonal_max_modulus(self):
        assert operator_norm(np.diag([3j, 1.0])) == pytest.approx(3.0, abs=1e-14)

    def test_nilpotent(self):
        # oracle: M^H M = diag(0, 4), largest eigenvalue 4, sqrt = 2
        m = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert operator_norm(m) == pytest.approx(2.0, abs=1e-14)

    def test_zero_iff_zero(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0
        m = np.zeros((4, 4))
        m[2, 1] = 1e-300
        assert operator_norm(m) > 0.0

    def test_norm_axioms(self):
        for _ in range(20):
            a, b = random_complex(5), random_complex(5)
            na, nb = operator_norm(a), operator_norm(b)
            assert operator_norm(a + b) <= na + nb + 1e-12
            c = RNG.standard_normal() + 1j * RNG.standard_normal()
            assert operator_norm(c * a) == pytest.approx(abs(c) * na, rel=1e-12)

    def test_unitary_invariance(self):
        for k in range(10):
            m = random_complex(6)
            w = haar_unitary(6, stream_rng(50, k, 0))
            z = haar_unitary(6, stream_rng(50, k, 1))
            assert operator_norm(w @ m @ z) == pytest.approx(operator_norm(m), abs=1e-10)

    def test_rejects_non_finite(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = np.nan
        with pytest.raises(InvalidInputError):
            operator_norm(m)

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_in_either_part(self, part, value):
        m = np.eye(2, dtype=complex)
        m[1, 0] = complex(value, 0.5) if part == "real" else complex(0.5, value)
        with pytest.raises(InvalidInputError, match="non-finite"):
            as_square_array(m)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInputError):
            operator_norm(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError, match="positive dimension"):
            as_square_array(np.zeros((0, 0)))


class TestCommutator:
    def test_diagonals_commute(self):
        a, b = np.diag([1.0, 2.0, 3.0]), np.diag([4.0 + 1j, 5.0, 6.0])
        assert np.all(commutator(a, b) == 0)

    def test_hand_2x2(self):
        m = np.diag([1.0, -1.0])
        n = np.array([[0.0, 1.0], [1.0, 0.0]])
        expected = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert np.allclose(commutator(m, n), expected, atol=1e-15)
        assert operator_norm(commutator(m, n)) == pytest.approx(2.0, abs=1e-14)

    def test_antisymmetry(self):
        for _ in range(5):
            m, n = random_complex(4), random_complex(4)
            assert np.allclose(commutator(m, n), -commutator(n, m), atol=1e-13)

    def test_identity_commutes_exactly(self):
        m = random_complex(5)
        assert np.all(commutator(m, np.eye(5)) == 0)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            commutator(np.eye(2), np.eye(3))


class TestHermExp:
    def test_zero_gives_identity(self):
        u = herm_exp(np.zeros((4, 4)))
        assert np.allclose(u.mat, np.eye(4), atol=1e-15)

    def test_scalar_pi(self):
        u = herm_exp(np.array([[np.pi]]))
        assert u.mat[0, 0] == pytest.approx(-1.0, abs=1e-15)

    def test_unitarity_of_result(self):
        h = random_hermitian(8)
        u = herm_exp(h)
        assert unitarity_defect(u.mat) <= 1e-12 * 8

    def test_determinant_modulus(self):
        h = random_hermitian(6)
        assert abs(np.linalg.det(herm_exp(h).mat)) == pytest.approx(1.0, abs=1e-8)

    def test_eigenangles_match_eigenvalues(self):
        h = random_hermitian(6) * 0.5
        u = herm_exp(h)
        angles = np.sort(np.mod(unitary_eigensystem(u).angles, 2 * np.pi))
        expected = np.sort(np.mod(np.linalg.eigvalsh(h), 2 * np.pi))
        assert np.allclose(angles, expected, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            herm_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigh_failure_is_numerical_error(self, monkeypatch):
        def failing(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            herm_exp(np.diag([1.0, 2.0]))

    def test_typed_and_plain_inputs_agree(self):
        # a typed argument skips the hermiticity check, nothing else
        h = HermitianMatrix.from_array(random_hermitian(7) + 1e-12 * random_complex(7))
        assert h.defect > 0.0
        typed, plain = herm_exp(h), herm_exp(h.mat)
        assert np.array_equal(typed.mat.view(np.uint64), plain.mat.view(np.uint64))
        assert typed.defect == plain.defect


@st.composite
def complex_matrices(draw):
    """n x n complex matrices, n in 1..12, with many entries exactly +0.0 or -0.0."""
    n = draw(st.integers(1, 12))
    part = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e6, 1e6))
    parts = draw(arrays(np.float64, (n, 2 * n), elements=part))
    return parts.view(np.complex128)


def zero_blind_bits(m):
    """Bit patterns of the entries, with -0.0 read as +0.0.

    Conjugation flips the sign of a zero imaginary part, so no matrix with
    a real diagonal equals its conjugate transpose in the sign bits of its
    zeros, and numpy's complex division by 2 may flip the sign of a zero;
    every other bit is compared.
    """
    return np.ascontiguousarray(m + 0.0).view(np.uint64)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestHermitianPart:
    @PROPERTY
    @given(complex_matrices())
    def test_exactly_hermitian_with_zero_defect(self, m):
        out = hermitian_part(m)
        assert np.array_equal(zero_blind_bits(out.mat), zero_blind_bits(out.mat.conj().T))
        assert out.defect == hermiticity_defect(out.mat) == 0.0

    @PROPERTY
    @given(complex_matrices())
    def test_hermitian_input_comes_back_bit_identical(self, m):
        # its own output, and the A + A^H form gapped_log symmetrizes
        for h in (hermitian_part(m).mat, m + m.conj().T):
            assert np.array_equal(zero_blind_bits(hermitian_part(h).mat), zero_blind_bits(h))


@st.composite
def near_hermitian_matrices(draw):
    """An exactly Hermitian matrix plus a perturbation inside the default tolerance."""
    m = draw(complex_matrices())
    n = m.shape[0]
    bump = draw(arrays(np.float64, (n, 2 * n), elements=st.floats(-1e-9, 1e-9)))
    return hermitian_part(m).mat + bump.view(np.complex128)


class TestHermitianConstructor:
    def test_rejects_a_defect_the_matrix_contradicts(self):
        with pytest.raises(InvalidInputError):
            HermitianMatrix([[0, 1], [0, 0]], 0.0)
        with pytest.raises(InvalidInputError):
            HermitianMatrix([[0, 1], [0, 0]], 0.5)
        assert HermitianMatrix([[0, 1], [0, 0]], 1.0).defect == 1.0

    def test_unitary_positional_constructor_unchanged(self):
        assert UnitaryMatrix(np.eye(4, dtype=complex), 0.0).defect == 0.0

    @PROPERTY
    @given(near_hermitian_matrices())
    def test_from_array_and_hermitian_part_outputs_construct(self, m):
        for h in (HermitianMatrix.from_array(m), hermitian_part(m)):
            assert HermitianMatrix(h.mat, h.defect).defect == h.defect


class TestUnitaryConstructor:
    def test_rejects_a_defect_the_column_norms_contradict(self):
        # |2 e_j|^2 - 1 = 3 is a diagonal entry of M^H M - I
        with pytest.raises(InvalidInputError, match="unitarity defect"):
            UnitaryMatrix(2.0 * np.eye(2), 0.0)
        with pytest.raises(InvalidInputError):
            UnitaryMatrix(2.0 * np.eye(2), 2.9)
        assert UnitaryMatrix(2.0 * np.eye(2), 3.0).defect == 3.0

    def test_margin_covers_the_column_sums_rounding(self):
        # M = c H_64, H_64 the Sylvester-Hadamard matrix and c nine ulps above
        # 1/8, has M^H M = 64 c^2 I, so its defect |64 c^2 - 1| is exact (taken
        # rounded up). The summed squares of a column carry 6 eps of rounding
        # beyond it: a margin of 2 eps (|m_j|^2 + 1) would reject M
        h = np.array([[1.0]])
        for _ in range(6):
            h = np.block([[h, h], [h, -h]])
        c = 0.125
        for _ in range(9):
            c = np.nextafter(c, 1.0)
        exact = abs(64 * Fraction(c) ** 2 - 1)
        defect = float(exact)
        if Fraction(defect) < exact:
            defect = float(np.nextafter(defect, 1.0))
        assert defect == pytest.approx(4.0e-15, rel=1e-3)
        assert UnitaryMatrix(c * h, defect).defect == defect

    @PROPERTY
    @given(complex_matrices())
    def test_certified_outputs_construct(self, m):
        # herm_exp returns certified_unitary's measured defect; from_array a gated one
        u = herm_exp(hermitian_part(m))
        for typed in (u, UnitaryMatrix.from_array(u.mat)):
            assert UnitaryMatrix(typed.mat, typed.defect).defect == typed.defect

    @pytest.mark.parametrize("n", [1, 2, 32, 128, 512])
    def test_identity_and_haar_with_measured_defect_construct(self, n):
        assert UnitaryMatrix(np.eye(n, dtype=complex), 0.0).n == n
        q = haar_unitary(n, stream_rng(n))
        assert UnitaryMatrix(q, unitarity_defect(q)).n == n


class TestDefects:
    def test_identity_zero(self):
        assert unitarity_defect(np.eye(3)) == 0.0
        assert hermiticity_defect(np.eye(3)) == 0.0

    def test_unitarity_defect_scalar(self):
        # oracle: M^H M - I = (4 - 1) for M = (2)
        assert unitarity_defect(np.array([[2.0]])) == pytest.approx(3.0, abs=1e-15)

    def test_hermiticity_defect_hand(self):
        # oracle: M - M^H = [[0, 1], [-1, 0]], singular values both 1
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert hermiticity_defect(m) == pytest.approx(1.0, abs=1e-15)


class TestTypes:
    def test_unitary_wrapper(self):
        u = UnitaryMatrix.from_array(np.diag([1j, -1j]))
        assert u.defect <= 1e-15
        with pytest.raises(InvalidInputError):
            UnitaryMatrix.from_array(np.diag([2.0, 1.0]))

    def test_hermitian_wrapper(self):
        h = HermitianMatrix.from_array(np.diag([1.0, -2.0]))
        assert h.defect == 0.0
        with pytest.raises(InvalidInputError):
            HermitianMatrix.from_array(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_wrappers_are_array_like(self):
        u = UnitaryMatrix.from_array(np.eye(2))
        assert operator_norm(u) == pytest.approx(1.0)
        assert np.asarray(u).shape == (2, 2)

    def test_wrapped_matrix_is_immutable(self):
        u = UnitaryMatrix.from_array(np.eye(2))
        with pytest.raises(ValueError):
            u.mat[0, 0] = 5.0

    @pytest.mark.parametrize("record", ["Eigensystem", "CommutingHermitianPair",
                                        "LaurentCoefficients"])
    def test_records_hold_read_only_copies(self, record):
        # each array field is copied and frozen: neither writing to the
        # caller's array nor to the field changes the record
        inputs = {"basis": np.eye(2, dtype=complex), "angles": np.array([0.5, 1.0]),
                  "diag_a": np.array([1.0, 2.0]), "diag_b": np.array([3.0, 4.0]),
                  "coeffs": np.array([-0.5j, np.pi, 0.5j])}
        if record == "Eigensystem":
            rec = Eigensystem(inputs["angles"], inputs["basis"])
            names = ("angles", "basis")
        elif record == "CommutingHermitianPair":
            rec = CommutingHermitianPair(inputs["basis"], inputs["diag_a"], inputs["diag_b"],
                                         0.0, 0.0, True, 0, (0.0,))
            names = ("basis", "diag_a", "diag_b")
        else:
            rec = LaurentCoefficients(0.5, 1, inputs["coeffs"], 0.0, 0.0)
            names = ("coeffs",)
        for name in names:
            field, given = getattr(rec, name), inputs[name]
            assert not field.flags.writeable
            before = field.copy()
            given[0] += 1.0
            assert np.array_equal(field, before)

    def test_tolerance_constants(self):
        # each gate's threshold: the first three are multiplied by n where applied
        assert (UNITARITY_TOL, HERMITICITY_TOL, COMMUTE_TOL, MODULUS_TOL) == (
            1e-8, 1e-8, 1e-10, 1e-6)


@st.composite
def norm_test_matrices(draw):
    """n x n, n in 1..40: non-normal, rank-1, zero, Hermitian, or a difference
    of two unitaries, scaled by 1e-300, 1 or 1e300."""
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["gaussian", "triangular", "rank1", "zero", "hermitian",
                                 "unitary_difference"]))
    rng = stream_rng(draw(st.integers(0, 2**31)))
    if kind == "gaussian":
        m = random_complex(n, rng)
    elif kind == "triangular":
        m = np.triu(random_complex(n, rng), 1)
    elif kind == "rank1":
        m = np.outer(random_complex(n, rng)[:, 0], random_complex(n, rng)[0])
    elif kind == "zero":
        m = np.zeros((n, n), dtype=complex)
    elif kind == "hermitian":
        m = random_hermitian(n, rng)
    else:
        m = haar_unitary(n, rng) - haar_unitary(n, rng)
    return m * draw(st.sampled_from([1e-300, 1.0, 1e300]))


class TestGramNorm:
    """operator_norm and the defects take the root of the Gram matrix's top
    eigenvalue; the SVD norm is the oracle."""

    @PROPERTY
    @given(norm_test_matrices())
    def test_agrees_with_the_svd(self, m):
        svd = float(np.linalg.norm(m, 2))
        assert abs(operator_norm(m) - svd) <= 1e-13 * svd

    def test_non_finite_ends_as_the_svd_does(self):
        # reachable only through the gate's fallback: operator_norm rejects
        # non-finite input, but an overflowing defect product is not input
        for e in ([[np.nan, 1], [1, np.inf]], [[1, 0], [0, np.nan]], np.full((3, 3), np.nan)):
            e = np.array(e, dtype=complex)
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.norm(e, 2)
            with pytest.raises(np.linalg.LinAlgError):
                _spectral_norm(e)
            # the gate returns its NaN Frobenius bound, which fails every check
            assert np.isnan(gated_norm(e, 1.0))
        for e in ([[np.inf, 0], [0, 1]], [[complex(np.inf, np.nan), 1e200], [1e200, 1]]):
            e = np.array(e, dtype=complex)
            assert np.isnan(np.linalg.norm(e, 2))
            assert np.isnan(gated_norm(e, 1.0))

    def test_infinite_entry_gives_nan_before_dividing(self):
        # without the early return, A/s forms inf/inf with a RuntimeWarning
        e = np.array([[np.inf, 0], [0, 1]], dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_spectral_norm(e))

    def test_exact_on_a_scalar(self):
        assert unitarity_defect(np.array([[2.0]])) == 3.0
        assert hermiticity_defect(np.array([[1j]])) == 2.0


class TestGatedNorm:
    """Entry checks decide on |E|_F when it meets the tolerance, else on the operator norm."""

    @PROPERTY
    @given(complex_matrices(), st.floats(-300.0, 300.0), st.floats(1e-6, 1.0), st.booleans())
    def test_accepts_exactly_when_the_operator_norm_does(self, e, log_scale, margin, above):
        e = e * 10.0**log_scale
        exact = operator_norm(e)
        if not 0.0 < exact < np.inf:
            return
        tol = exact * np.exp(margin if above else -margin)
        got = gated_norm(e, tol)
        assert (got <= tol) == above
        n = e.shape[0]
        assert exact * (1 - 1e-12) <= got <= np.sqrt(n) * exact * (1 + 1e-9)
        if got > tol:
            assert got == exact

    def test_frobenius_recorded_when_it_passes(self):
        u = UnitaryMatrix.from_array(haar_unitary(6, stream_rng(4)) * (1 + 1e-12))
        e = u.mat.conj().T @ u.mat - np.eye(6)
        assert u.defect == pytest.approx(float(np.linalg.norm(e)), rel=1e-14)
        assert u.defect >= unitarity_defect(u.mat)

    def test_overflowing_defect_is_rejected(self):
        # A^H A overflows, so the defect reads NaN; a NaN must not pass the check
        with np.errstate(all="ignore"), pytest.raises(InvalidInputError, match="unitarity"):
            UnitaryMatrix.from_array(np.array([[1e200, 1e200], [1e200, -1e200]]))

    def test_no_overflowing_entry_reaches_the_norm_kernel(self):
        # entries near 1e200 overflow A^H A to inf and NaN; every such input
        # is rejected as invalid, never a LinAlgError from the kernel
        values = [1e200, -1e200, 1e200j, -1e200j, 1.0, 0.0]
        accepted = 0
        for entries in itertools.product(values, repeat=4):
            try:
                UnitaryMatrix.from_array(np.array(entries).reshape(2, 2))
                accepted += 1
            except InvalidInputError:
                pass
        assert accepted == 2  # the identity and the swap

    def test_constructor_sees_a_tiny_skew(self):
        # an unscaled |M - M^H|_F underflows to 0 here and let the false defect 0 through
        with pytest.raises(InvalidInputError, match="recorded hermiticity defect"):
            HermitianMatrix(np.array([[0.0, 1e-170], [0.0, 0.0]]), 0.0)

    def test_tiny_entries_do_not_underflow(self):
        # an unscaled sum of squares reads 0 here; both paths give |E| = |E|_F = 3e-170
        e = np.full((3, 3), 1e-170 + 0j)
        assert gated_norm(e, 1.0) == pytest.approx(3e-170, rel=1e-14)
        assert gated_norm(e, 1e-171) == pytest.approx(3e-170, rel=1e-14)
        assert gated_norm(np.zeros((2, 2)), 1e-300) == 0.0

    def test_unitary_between_operator_and_frobenius_norm(self):
        # E = (s^2 - 1) I_4 with s = 1 + 2^-26, so s^2 is exact: |E| = 2.98e-8
        # meets tol = 4 * 1e-8, |E|_F = 5.96e-8 does not
        e = 2.0**-25 + 2.0**-52
        a = (1 + 2.0**-26) * np.eye(4)
        u = UnitaryMatrix.from_array(a)
        assert u.defect == unitarity_defect(a) == pytest.approx(e, rel=1e-9)
        with pytest.raises(InvalidInputError, match="unitarity defect"):
            UnitaryMatrix.from_array(np.sqrt(1 + 4e-8 * (1 + 1e-6)) * np.eye(4))

    def test_hermitian_between_operator_and_frobenius_norm(self):
        # |M - M^T| = 2^-26 = 1.49e-8 meets tol = 2 * 1e-8, |M - M^T|_F = 2.1e-8 does not
        m = np.array([[0.0, 1.0], [1.0 + 2.0**-26, 0.0]])
        h = HermitianMatrix.from_array(m)
        assert h.defect == hermiticity_defect(m) == pytest.approx(2.0**-26, rel=1e-9)
        with pytest.raises(InvalidInputError, match="hermiticity defect"):
            HermitianMatrix.from_array(np.array([[0.0, 1.0], [1.0 + 2e-8 * (1 + 1e-6), 0.0]]))
