"""Eigensystems, spectral gaps, and gap centering."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nearcomm import (
    InvalidInputError,
    NumericalError,
    commutator,
    gen_gapped_unitary,
    gen_voiculescu_pair,
    haar_unitary,
    operator_norm,
    stream_rng,
)
from nearcomm.linalg import UNITARITY_TOL, UnitaryMatrix, unitary_from_angles
from nearcomm.spectral import (
    Eigensystem,
    center_gap,
    largest_gap,
    unitary_eigensystem,
    wrap_to_pi,
)
from nearcomm import spectral

TWO_PI = 2 * np.pi


def rebuild(es):
    """The unitary an eigensystem reconstructs: Z diag(e^{i*angles}) Z^H."""
    return unitary_from_angles(es.basis, es.angles)


class TestEigensystem:
    def test_identity(self):
        es = unitary_eigensystem(np.eye(3))
        assert np.allclose(es.angles, 0.0, atol=1e-12)

    def test_diag_i_minus_i(self):
        es = unitary_eigensystem(np.diag([1j, -1j]))
        assert np.allclose(es.angles, [np.pi / 2, 3 * np.pi / 2], atol=1e-12)

    def test_reconstruction_haar(self):
        u = haar_unitary(16, stream_rng(5))
        es = unitary_eigensystem(u)
        assert operator_norm(rebuild(es) - u) <= 1e-10 * 16

    def test_angles_sorted_in_range(self):
        u = haar_unitary(12, stream_rng(6))
        es = unitary_eigensystem(u)
        assert np.all(np.diff(es.angles) >= 0)
        assert np.all((es.angles >= 0) & (es.angles < TWO_PI))

    def test_basis_orthonormal(self):
        u = haar_unitary(10, stream_rng(7))
        es = unitary_eigensystem(u)
        gram = es.basis.conj().T @ es.basis
        assert operator_norm(gram - np.eye(10)) <= 1e-10 * 10

    def test_rejects_non_unitary(self):
        with pytest.raises(InvalidInputError):
            unitary_eigensystem(np.diag([1.1, 1.0]))

    @pytest.mark.parametrize("typed", [False, True])
    def test_non_normal_with_unit_eigenvalues_is_invalid_input(self, typed):
        # unit columns, so the constructor takes the false defect 0;
        # eigenvalue moduli 1 and 1 - 5e-7 pass the modulus check; only the
        # residual sees the matrix is not unitary, typed or not
        m = np.array([[1.0, 1e-3], [0.0, -np.sqrt(1.0 - 1e-6)]])
        with pytest.raises(InvalidInputError, match="unitarity defect"):
            center_gap(UnitaryMatrix(m, 0.0) if typed else m)

    def test_residual_gate_reads_unitarity_tolerance(self):
        # non-normal with unit columns (to rounding), typed with a false
        # defect 0: an off-diagonal 1e-8 leaves a certified residual of
        # 7.1e-9, within UNITARITY_TOL * 2; 1e-6 does not
        small = np.array([[1.0, 1e-8], [0.0, -1.0]])
        es = unitary_eigensystem(UnitaryMatrix(small, 0.0))
        assert 5e-9 < es.residual <= UNITARITY_TOL * 2
        large = np.array([[1.0, 1e-6], [0.0, -np.sqrt(1.0 - 1e-12)]])
        with pytest.raises(InvalidInputError, match="unitarity defect"):
            unitary_eigensystem(UnitaryMatrix(large, 0.0))

    def test_residual_gate_on_a_unitary_is_a_numerical_failure(self, monkeypatch):
        # the input passes UnitaryMatrix.from_array, so a residual read above
        # the tolerance is the decomposition's failure, not the input's
        monkeypatch.setattr(spectral, "gated_norm", lambda m, tol: 2.0 * tol)
        with pytest.raises(NumericalError, match="reconstruction residual"):
            unitary_eigensystem(haar_unitary(6, stream_rng(4)))

    def test_modulus_check_behind_loose_tolerance(self):
        # at n = 256 the defect gate (2.56e-6) passes an eigenvalue of modulus
        # 1 + 1.2e-6 (defect 2.4e-6); the radial-projection guard (1e-6) fires
        d = np.ones(256)
        d[0] = 1.0 + 1.2e-6
        with pytest.raises(InvalidInputError, match="modulus"):
            unitary_eigensystem(np.diag(d))


def schur_eigensystem(m):
    """Eigensystem from the complex Schur form: the reference for unitary_eigensystem."""
    t, z = scipy.linalg.schur(m, output="complex")
    angles = np.mod(np.angle(np.diag(t)), TWO_PI)
    order = np.argsort(angles, kind="stable")
    return Eigensystem(angles[order], z[:, order])


def near_equispaced(n, seed):
    rng = np.random.default_rng(seed)
    angles = np.mod(TWO_PI * np.arange(n) / n + 1e-3 * rng.standard_normal(n), TWO_PI)
    q = haar_unitary(n, stream_rng(seed))
    return (q * np.exp(1j * angles)) @ q.conj().T


class TestAgainstSchur:
    @pytest.mark.parametrize("n", [1, 2, 8, 32, 128])
    @pytest.mark.parametrize("delta", [1.0, 0.25, 0.1])
    def test_gapped(self, n, delta):
        self.check(gen_gapped_unitary(n, delta, 17).mat)

    def test_near_equispaced_n128(self):
        # every gap about pi/128: the second probe's |H| nears its bound
        self.check(near_equispaced(128, 4))

    @staticmethod
    def check(m):
        n = m.shape[0]
        es, ref = unitary_eigensystem(m), schur_eigensystem(m)
        assert np.max(np.abs(wrap_to_pi(es.angles - ref.angles))) <= 1e-13
        gap, ref_gap = largest_gap(es.angles), largest_gap(ref.angles)
        assert abs(wrap_to_pi(gap.center - ref_gap.center)) <= 1e-13
        assert gap.half_width == pytest.approx(ref_gap.half_width, abs=1e-13)
        assert 0.0 <= es.residual <= UNITARITY_TOL * n
        # a certified upper bound, within sqrt(n) of the exact residual
        exact = operator_norm(rebuild(es) - m)
        assert exact <= es.residual <= np.sqrt(n) * exact * (1 + 1e-9)
        gram = es.basis.conj().T @ es.basis
        assert operator_norm(gram - np.eye(n)) <= 1e-13 * n


def with_spectrum(angles, q):
    """Q diag(e^{i*angles}) Q^H."""
    return (q * np.exp(1j * np.asarray(angles))) @ q.conj().T


def real_rotation(thetas, seed):
    """A real orthogonal matrix with eigenvalues e^{+-i*theta}, rotated by a real Q.

    Its trace is real, so its trace probe arg(-tr U) is exactly 0 or +-pi.
    """
    blocks = [[[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]] for t in thetas]
    r = scipy.linalg.block_diag(*blocks)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(r.shape))
    return q @ r @ q.T


class TestCayleyProbes:
    """The trace probe, its Frobenius precheck, the two-probe path and the retry cap."""

    def probe_log(self, monkeypatch):
        """Each Cayley transform's probe angle and whether it failed."""
        log, cayley = [], spectral._cayley

        def logged(a, psi):
            h = cayley(a, psi)
            log.append((psi, h is None))
            return h

        monkeypatch.setattr(spectral, "_cayley", logged)
        return log

    def test_eigenvalue_on_first_probe(self, monkeypatch):
        # eigenvalues pi +- 1e-9 and a positive real trace put the first
        # probe, arg(-tr U), at +-pi, 1e-9 from the spectrum: |H| ~ 2e9 fails
        # the precheck, so the rough eigvalsh locates the gap and a second
        # probe decomposes H
        log = self.probe_log(monkeypatch)
        rough, eigvalsh = [], np.linalg.eigvalsh

        def counting(h):
            rough.append(h.shape)
            return eigvalsh(h)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        thetas = [np.pi - 1e-9, 0.3, 1.0]
        m = real_rotation(thetas, 1)
        assert np.trace(m) > 0
        es = unitary_eigensystem(m)
        expected = np.sort(np.mod(np.concatenate([thetas, np.negative(thetas)]), TWO_PI))
        assert np.allclose(es.angles, expected, atol=1e-12)
        assert abs(wrap_to_pi(log[0][0] - np.pi)) == 0.0
        assert len(log) == 2 and not any(failed for _, failed in log)
        assert rough == [(6, 6)]

    @pytest.mark.parametrize("n", [1, 4])
    def test_scalar_at_first_probe(self, monkeypatch, n):
        # the trace probe sits opposite a scalar's one eigenvalue, where H = 0
        log = self.probe_log(monkeypatch)
        alpha = spectral._FIRST_PROBE
        es = unitary_eigensystem(np.exp(1j * alpha) * np.eye(n))
        assert np.allclose(es.angles, alpha, atol=1e-15)
        assert largest_gap(es.angles).half_width == pytest.approx(np.pi)
        assert len(log) == 1 and abs(wrap_to_pi(log[0][0] - alpha - np.pi)) <= 1e-15

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_zero_trace_falls_back_to_first_probe(self, monkeypatch, n):
        # the clock matrix's trace, a sum of all n-th roots of unity, is
        # rounding; it points nowhere, so the first probe is _FIRST_PROBE
        log = self.probe_log(monkeypatch)
        clock = gen_voiculescu_pair(n)[0].mat
        assert abs(np.trace(clock)) <= n * n * np.finfo(float).eps
        es = unitary_eigensystem(clock)
        assert log[0] == (spectral._FIRST_PROBE, False)
        assert np.allclose(es.angles, TWO_PI * np.arange(n) / n, atol=1e-13)

    def test_blurred_trace_probe_steps_on(self, monkeypatch):
        # e^{i*phi} = -s/|s| for s the sum of the other eigenvalues leaves
        # arg(-tr U) = phi: the trace probe sits on an eigenvalue to rounding,
        # where |H| ~ 1e16 would drown the rough angles, so it steps on
        log = self.probe_log(monkeypatch)
        others = np.array([1.0, 4.115716121068162, 4.434309144863481, 0.12775061023698714])
        phi = float(np.angle(-np.sum(np.exp(1j * others))))
        m = with_spectrum(np.append(others, phi), haar_unitary(5, stream_rng(5)))
        es = unitary_eigensystem(m)
        assert abs(wrap_to_pi(log[0][0] - phi)) <= 1e-14
        assert log[1][0] == pytest.approx(log[0][0] + spectral._PROBE_STEP, abs=1e-15)
        assert np.allclose(es.angles, np.sort(np.mod(np.append(others, phi), TWO_PI)), atol=1e-13)

    def test_singular_probe_steps_on(self, monkeypatch):
        # -tr diag(1, -1, -1) = 1 puts the trace probe at 0, on the eigenvalue
        # 1, where I + W = I - U is exactly singular
        log = self.probe_log(monkeypatch)
        es = unitary_eigensystem(np.diag([1.0, -1.0, -1.0]))
        assert np.allclose(es.angles, [0.0, np.pi, np.pi], atol=1e-15)
        assert log[0] == (0.0, True)
        assert log[1][0] == pytest.approx(spectral._PROBE_STEP, abs=1e-15)
        assert [failed for _, failed in log[1:]] == [False]

    def test_overflowing_solve_gives_none(self):
        # I + W has the subnormal pivot 1 - exp(1e-310j), so the solve
        # overflows to inf without LAPACK reporting a singular matrix
        assert spectral._cayley(np.diag([np.exp(1e-310j), -1.0]), 0.0) is None

    def test_repeated_eigenvalues(self):
        q = haar_unitary(6, stream_rng(2))
        angles = np.array([0.5, 0.5, 0.5, 2.0, 2.0, 4.0])
        m = (q * np.exp(1j * angles)) @ q.conj().T
        es = unitary_eigensystem(m)
        assert np.allclose(es.angles, angles, atol=1e-13)
        assert operator_norm(rebuild(es) - m) <= es.residual + 1e-15
        assert operator_norm(es.basis.conj().T @ es.basis - np.eye(6)) <= 1e-13

    def test_off_center_second_probe_is_repeated(self, monkeypatch):
        # with the precheck failing, rough angles all at the trace probe put
        # the second probe opposite it, 1e-3 from an eigenvalue; the measured
        # angles move it to their gap center. A positive real trace puts the
        # trace probe at +-pi, so the second probe is at 0, between the
        # eigenvalues +-1e-3, and the measured gap is centered at pi.
        log = self.probe_log(monkeypatch)
        # above the precheck's cot(pi/16) ~ 5, below the blur bound ~ 5e13
        monkeypatch.setattr(spectral, "_frobenius_bound", lambda h: 1e6)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: np.full(h.shape[0], -1e300))
        m = real_rotation([1e-3, 2.0], 8)
        assert np.trace(m) > 0
        es = unitary_eigensystem(m)
        assert np.allclose(es.angles, [1e-3, 2.0, TWO_PI - 2.0, TWO_PI - 1e-3], atol=1e-13)
        probes = np.array([psi for psi, _ in log])
        assert len(probes) == 3
        assert np.max(np.abs(wrap_to_pi(probes - [np.pi, 0.0, np.pi]))) <= 1e-12

    def test_eigh_failure_is_numerical_error(self, monkeypatch):
        def failing(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(NumericalError, match="eigendecomposition failed"):
            unitary_eigensystem(np.diag([1.0, 1j]))

    def test_retry_cap_raises_numerical_error(self, monkeypatch):
        calls = []

        def singular(a, b):
            calls.append(a.shape)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(NumericalError, match="Cayley probe"):
            unitary_eigensystem(np.eye(3))
        assert len(calls) == spectral._MAX_PROBES

    def test_probes_run_out_on_a_trusted_non_unitary_input(self, monkeypatch):
        # the input is checked before the probes' failure is reported, so a
        # UnitaryMatrix with a false defect 0 is rejected as invalid
        monkeypatch.setattr(spectral, "_cayley", lambda a, psi: None)
        m = np.array([[1.0, 1e-3], [0.0, -np.sqrt(1.0 - 1e-6)]])
        with pytest.raises(InvalidInputError, match="unitarity defect"):
            unitary_eigensystem(UnitaryMatrix(m, 0.0))


@st.composite
def probe_spectra(draw):
    """Eigenangles: spread, clustered, repeated, or with one within 1e-9 of arg(-tr U)."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["spread", "clustered", "repeated", "near_probe"]))
    angle = st.floats(0.0, TWO_PI, exclude_max=True)
    if kind == "clustered":
        center, width = draw(angle), draw(st.sampled_from([1e-12, 1e-6, 1e-2]))
        return [center + width * draw(st.floats(-1.0, 1.0)) for _ in range(n)]
    if kind == "repeated":
        values = draw(st.lists(angle, min_size=1, max_size=3))
        return [draw(st.sampled_from(values)) for _ in range(n)]
    angles = draw(st.lists(angle, min_size=n, max_size=n))
    s = np.sum(np.exp(1j * np.array(angles[1:])))
    if kind == "near_probe" and abs(s) > 1:
        # e^{i*phi} = -s/|s| leaves tr U = s (1 - 1/|s|), so arg(-tr U) = phi
        angles[0] = float(np.angle(-s)) + draw(st.sampled_from([0.0, 1e-12, -1e-9, 1e-9]))
    return angles


class TestProbeConditioning:
    """Every transform decomposed for a basis has |H| <= cot(pi/(4n)) < 4n/pi."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(probe_spectra(), st.integers(0, 2**16))
    @example([1.0], 0)
    @example([0.5, 0.5 + 1e-9], 1)
    @example([2.0, 2.0, 2.0, 5.0], 2)
    def test_every_decomposed_transform_is_conditioned(self, angles, seed):
        n = len(angles)
        norms, eigh = [], np.linalg.eigh

        def recording(h):
            lam, z = eigh(h)
            norms.append(float(np.max(np.abs(lam))))
            return lam, z

        m = with_spectrum(angles, haar_unitary(n, stream_rng(seed)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigh", recording)
            es = unitary_eigensystem(m)
        assert norms and max(norms) <= 1.0 / np.tan(np.pi / (4 * n))
        # each given angle is found, up to the wrap at 2pi
        off = np.abs(wrap_to_pi(np.subtract.outer(np.asarray(angles), es.angles)))
        assert np.max(np.min(off, axis=1)) <= 1e-10


def loop_largest_gap(angles):
    """(center, half_width, lo, hi) arc by arc: the reference for largest_gap."""
    a = np.sort(np.asarray(angles, dtype=float))
    n = len(a)
    best = None
    for i in range(n):
        lo, hi = a[i], a[(i + 1) % n]
        length = TWO_PI if n == 1 else (hi - lo if i + 1 < n else hi + TWO_PI - lo)
        center = float(np.mod(lo + length / 2.0, TWO_PI))
        if best is None or (-length, center) < best[0]:
            best = ((-length, center), (center, float(min(length / 2.0, np.pi)), lo, hi))
    return best[1]


def lexsort_largest_gap(angles):
    """(center, half_width, lo, hi) picked by np.lexsort: the reference for the tie-break."""
    a = np.sort(np.asarray(angles, dtype=float))
    n = len(a)
    lengths = np.diff(a, append=a[0] + TWO_PI) if n > 1 else np.array([TWO_PI])
    centers = np.mod(a + lengths / 2.0, TWO_PI)
    j = int(np.lexsort((centers, -lengths))[0])
    half_width = float(min(lengths[j] / 2.0, np.pi))
    return float(centers[j]), half_width, float(a[j]), float(a[(j + 1) % n])


class TestLargestGap:
    def test_equals_loop_reference(self):
        # random, rounded (tied arcs) and clock spectra, n = 1..9
        rng = np.random.default_rng(5)
        for t in range(360):
            n = 1 + t % 9
            kind = t % 4
            if kind == 0:
                angles = rng.uniform(0, TWO_PI, n)
            elif kind == 1:
                angles = np.round(rng.uniform(0, TWO_PI, n), 1)
            else:
                offset = rng.uniform(0, 1) if kind == 2 else 0.0
                angles = np.mod(TWO_PI * np.arange(n) / n + offset, TWO_PI)
            gap = largest_gap(angles)
            assert (gap.center, gap.half_width, gap.lo, gap.hi) == loop_largest_gap(angles)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(0.0, TWO_PI, exclude_max=True),
                st.floats(0.0, 6.2).map(lambda x: round(x, 1)),
                st.sampled_from([0.0, np.pi / 2, np.pi, 3 * np.pi / 2]),
            ),
            min_size=1,
            max_size=16,
        ),
        st.integers(0, 15),
    )
    def test_equals_lexsort_reference(self, angles, clock):
        # random, rounded and quarter-turn angles tie often; clock spectra tie everywhere
        if clock:
            angles = list(np.mod(TWO_PI * np.arange(clock) / clock + angles[0], TWO_PI))
        gap = largest_gap(angles)
        assert (gap.center, gap.half_width, gap.lo, gap.hi) == lexsort_largest_gap(angles)

    @pytest.mark.parametrize("angles", [[], [0.5, np.nan], [np.inf], [-np.inf, 1.0]])
    def test_rejects_empty_or_non_finite(self, angles):
        with pytest.raises(InvalidInputError, match="finite"):
            largest_gap(angles)

    def test_two_opposite_eigenvalues_tiebreak(self):
        # arcs (pi/2, 3pi/2) and (3pi/2, pi/2 + 2pi) both have length pi;
        # the tie-break picks the arc centered at 0
        gap = largest_gap(np.array([np.pi / 2, 3 * np.pi / 2]))
        assert gap.center == pytest.approx(0.0, abs=1e-15)
        assert gap.half_width == pytest.approx(np.pi / 2, abs=1e-15)

    def test_single_eigenvalue(self):
        gap = largest_gap(np.array([np.pi]))
        assert gap.center == pytest.approx(0.0, abs=1e-15)
        assert gap.half_width == pytest.approx(np.pi, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_equally_spaced(self, n):
        angles = TWO_PI * np.arange(n) / n
        assert largest_gap(angles).half_width == pytest.approx(np.pi / n, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        angles = np.sort(rng.uniform(0, TWO_PI, 9))
        perm = rng.permutation(9)
        assert largest_gap(angles[perm]) == largest_gap(angles)

    def test_repeated_angles_are_legal(self):
        gap = largest_gap(np.array([1.0, 1.0, 4.0]))
        # arcs: (1,1) len 0, (1,4) len 3, (4, 1+2pi) len 2pi-3
        assert gap.half_width == pytest.approx((TWO_PI - 3.0) / 2, abs=1e-12)

    def test_arc_truly_empty(self):
        rng = np.random.default_rng(9)
        angles = np.sort(rng.uniform(0, TWO_PI, 7))
        gap = largest_gap(angles)
        dist = np.abs(wrap_to_pi(angles - gap.center))
        assert np.min(dist) >= gap.half_width - 1e-12


class TestCenterGap:
    def test_already_centered_unchanged(self):
        u = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)])
        es, gap = center_gap(u)
        assert gap.center == 0.0
        plain = unitary_eigensystem(u)
        assert np.array_equal(es.angles, plain.angles)
        assert np.array_equal(es.basis, plain.basis)

    def test_hand_example(self):
        # angles {0, pi/2}: arcs (0, pi/2) and (pi/2, 2pi); the latter has
        # length 3pi/2 and center 5pi/4
        u = np.diag([1.0, np.exp(1j * np.pi / 2)])
        es, gap = center_gap(u)
        assert gap.center == pytest.approx(5 * np.pi / 4, abs=1e-12)
        assert np.allclose(rebuild(es), np.exp(-1j * gap.center) * u, atol=1e-15)
        assert np.allclose(es.angles, [3 * np.pi / 4, 5 * np.pi / 4], atol=1e-15)
        assert es.margin == pytest.approx(3 * np.pi / 4, abs=1e-12)
        # the gap as found on U: the arc from pi/2 round to 0
        assert (gap.lo, gap.hi) == pytest.approx((np.pi / 2, 0.0), abs=1e-12)
        assert gap.half_width == pytest.approx(3 * np.pi / 4, abs=1e-12)

    def test_idempotent(self):
        u = gen_gapped_unitary(10, 0.6, 21)
        _, gap1 = center_gap(u)
        _, gap2 = center_gap(np.exp(-1j * gap1.center) * u.mat)
        assert abs(wrap_to_pi(gap2.center)) <= 1e-12
        assert gap2.half_width == pytest.approx(gap1.half_width, abs=1e-10)

    def test_tied_arcs_report_the_centered_arc(self):
        # five equally spaced eigenvalues leave five arcs of equal length;
        # the returned gap must be the one moved to angle 0, not another tie
        u = np.exp(0.3j) * gen_voiculescu_pair(5)[0].mat
        es, gap = center_gap(u)
        assert gap.center == pytest.approx(0.3 + np.pi / 5, abs=1e-12)
        assert gap.half_width == pytest.approx(np.pi / 5, abs=1e-12)
        for angles in (es.angles, unitary_eigensystem(np.exp(-1j * gap.center) * u).angles):
            assert np.min(np.abs(wrap_to_pi(angles))) >= gap.half_width - 1e-12

    def test_carries_the_rotated_eigensystem(self):
        # the phase moves the gap away from 0, so the shift reorders the angles
        u = np.exp(2j) * gen_gapped_unitary(12, 0.5, 7).mat
        es, gap = center_gap(u)
        plain = unitary_eigensystem(u)
        assert isinstance(es, Eigensystem)
        assert np.all(np.diff(es.angles) >= 0)
        assert np.all((es.angles >= 0) & (es.angles < TWO_PI))
        assert es.margin == np.min(np.abs(wrap_to_pi(es.angles)))
        assert es.margin == pytest.approx(gap.half_width, abs=1e-12)
        shifted = np.sort(np.mod(plain.angles - gap.center, TWO_PI))
        assert np.allclose(shifted, es.angles, atol=1e-15)
        assert es.residual == plain.residual > 0.0
        assert operator_norm(rebuild(es) - np.exp(-1j * gap.center) * u) <= es.residual + 1e-14

    def test_spectrum_avoids_centered_gap(self):
        for seed in range(5):
            u = haar_unitary(9, stream_rng(100, seed))
            _, gap = center_gap(u)
            es = unitary_eigensystem(np.exp(-1j * gap.center) * u)
            assert np.min(np.abs(wrap_to_pi(es.angles))) > gap.half_width - 1e-10

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 16),
        st.floats(0.05, 1.5),
        st.integers(0, 2**16),
        st.floats(0.0, TWO_PI, exclude_max=True),
    )
    def test_phase_covariant(self, n, delta, seed, alpha):
        # center_gap(e^{i*alpha} U) finds the same gap moved by alpha and
        # the same centered matrix
        u = gen_gapped_unitary(n, delta, seed).mat
        es, gap = center_gap(u)
        es_a, gap_a = center_gap(np.exp(1j * alpha) * u)
        assert gap_a.half_width == pytest.approx(gap.half_width, abs=1e-12)
        assert abs(wrap_to_pi(gap_a.center - gap.center - alpha)) <= 1e-12
        slack = es.residual + es_a.residual + 1e-13
        assert operator_norm(rebuild(es) - rebuild(es_a)) <= slack

    def test_phase_preserves_commutator(self):
        rng = np.random.default_rng(12)
        u = haar_unitary(6, stream_rng(101, 0))
        v = haar_unitary(6, stream_rng(101, 1))
        zeta = rng.uniform(0, TWO_PI)
        lhs = commutator(np.exp(1j * zeta) * u, v)
        rhs = np.exp(1j * zeta) * commutator(u, v)
        assert operator_norm(lhs - rhs) <= 1e-13
