"""Deterministic generators: gapped unitaries, perturbed pairs, clock/shift."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nearcomm import (
    InvalidInputError,
    NumericalError,
    commutator,
    gen_almost_commuting_pair,
    gen_gapped_unitary,
    gen_voiculescu_pair,
    haar_unitary,
    operator_norm,
    stream_rng,
)
from nearcomm import ensembles, linalg
from nearcomm.ensembles import MAX_REGEN_RETRIES
from nearcomm.spectral import unitary_eigensystem, wrap_to_pi

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestGappedUnitary:
    def test_scalar_case(self):
        u = gen_gapped_unitary(1, 0.8, 3)
        phase = np.angle(u.mat[0, 0]) % (2 * np.pi)
        assert 0.8 < phase < 2 * np.pi - 0.8

    def test_spectrum_avoids_gap(self):
        u = gen_gapped_unitary(32, 0.5, 11)
        assert u.defect <= 1e-10 * 32
        es = unitary_eigensystem(u)
        assert np.min(np.abs(wrap_to_pi(es.angles))) > 0.5

    def test_seed_determinism(self):
        a = gen_gapped_unitary(16, 0.7, 123)
        b = gen_gapped_unitary(16, 0.7, 123)
        assert np.array_equal(a.mat, b.mat)
        c = gen_gapped_unitary(16, 0.7, 124)
        assert not np.array_equal(a.mat, c.mat)

    def test_rejects_bad_delta(self):
        with pytest.raises(InvalidInputError):
            gen_gapped_unitary(4, 0.0, 1)
        with pytest.raises(InvalidInputError):
            gen_gapped_unitary(4, np.pi, 1)

    @pytest.mark.parametrize("n", [4.0, 4.5, float("nan")])
    def test_rejects_non_integral_dimension(self, n):
        with pytest.raises(InvalidInputError, match="dimension must be an integer"):
            gen_gapped_unitary(n, 1.0, 1)

    def test_numpy_integer_dimension(self):
        assert np.array_equal(gen_gapped_unitary(np.int64(3), 1.0, 1).mat,
                              gen_gapped_unitary(3, 1.0, 1).mat)


class TestHaar:
    def test_unitary(self):
        q = haar_unitary(20, stream_rng(1))
        assert operator_norm(q.conj().T @ q - np.eye(20)) <= 1e-12 * 20

    def test_deterministic_given_stream(self):
        assert np.array_equal(haar_unitary(6, stream_rng(9, 2)), haar_unitary(6, stream_rng(9, 2)))


class TestStreamRng:
    @pytest.mark.parametrize("key", [(-1,), (1.5,), (1.0,), (1, -2), (1, 2.5)])
    def test_rejects_a_key_that_is_not_a_nonnegative_integer(self, key):
        with pytest.raises(InvalidInputError, match="seed and stream indices"):
            stream_rng(*key)

    def test_numpy_integers_draw_the_same_stream(self):
        assert np.array_equal(stream_rng(np.int64(9), np.uint8(2)).random(4),
                              stream_rng(9, 2).random(4))


class TestAlmostCommutingPair:
    def test_zero_eps_commutes(self):
        u, v, eps = gen_almost_commuting_pair(8, 1.0, 0.0, 5)
        assert eps <= 1e-12 * 8
        assert operator_norm(commutator(u.mat, v.mat)) == eps

    @pytest.mark.parametrize("eps_target", [1e-4, 1e-2, 1e-1])
    def test_eps_bound(self, eps_target):
        for seed in range(4):
            _, _, eps = gen_almost_commuting_pair(12, 1.0, eps_target, seed)
            assert eps <= 2 * eps_target * (1 + 1e-10)

    def test_gaps_survive_perturbation(self):
        u, v, _ = gen_almost_commuting_pair(16, 1.0, 0.1, 2)
        for m in (u, v):
            es = unitary_eigensystem(m)
            assert np.min(np.abs(wrap_to_pi(es.angles))) >= 0.5

    def test_determinism(self):
        a = gen_almost_commuting_pair(10, 0.9, 1e-2, 42)
        b = gen_almost_commuting_pair(10, 0.9, 1e-2, 42)
        assert np.array_equal(a[0].mat, b[0].mat)
        assert np.array_equal(a[1].mat, b[1].mat)
        assert a[2] == b[2]

    def test_rejects_negative_eps(self):
        with pytest.raises(InvalidInputError):
            gen_almost_commuting_pair(4, 1.0, -0.1, 1)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_rejects_non_finite_eps(self, eps):
        with pytest.raises(InvalidInputError):
            gen_almost_commuting_pair(4, 1.0, eps, 1)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.pi, 4.0, float("nan")])
    def test_rejects_delta_outside_open_interval(self, delta):
        with pytest.raises(InvalidInputError):
            gen_almost_commuting_pair(4, delta, 1e-3, 1)

    def test_rejects_empty_dimension(self):
        with pytest.raises(InvalidInputError):
            gen_almost_commuting_pair(0, 1.0, 1e-3, 1)


def counted(monkeypatch, name):
    """Replace ensembles.<name> by a wrapper that records each call; return the record."""
    calls = []
    real = getattr(ensembles, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(ensembles, name, wrapper)
    return calls


def min_gap_at_zero(m) -> float:
    return float(np.min(np.abs(wrap_to_pi(unitary_eigensystem(m).angles))))


class TestGapCheck:
    """The gap of a generated pair is settled by the Bauer-Fike bound or measured."""

    def test_pool_parameters_decompose_nothing(self, monkeypatch):
        calls = counted(monkeypatch, "unitary_eigensystem")
        for i in range(32):
            gen_almost_commuting_pair(32, 1.0, (1e-1, 1e-2, 1e-3, 1e-4)[i % 4], 11, i)
        assert calls == []

    def test_pool_parameters_take_one_qr_one_eigh_three_eigvalsh(self, monkeypatch):
        # per pair: QR for the Haar basis, eigh of G, and the norms of U's and
        # V's unitarity defects and of [U, V]; G's norm is not taken apart
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for name in ("cholesky", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "qr",
                     "solve", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))

        def forbidden(*args, **kwargs):
            raise AssertionError("herm_exp called by the generator")

        for module in (linalg, ensembles):
            monkeypatch.setattr(module, "herm_exp", forbidden, raising=False)
        for i in range(32):
            gen_almost_commuting_pair(32, 1.0, (1e-1, 1e-2, 1e-3, 1e-4)[i % 4], 11, i)
        assert Counter(calls) == {"qr": 32, "eigh": 32, "eigvalsh": 96}

    @PROPERTY
    @given(
        n=st.integers(1, 16),
        delta=st.floats(0.01, 3.0),
        frac=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**16),
    )
    def test_settled_pair_is_the_measured_pair(self, n, delta, frac, seed):
        eps = frac * delta / 2.0
        assert ensembles._gap_settled(n, delta, eps)
        with pytest.MonkeyPatch.context() as mp:
            calls = counted(mp, "unitary_eigensystem")
            u, v, e = gen_almost_commuting_pair(n, delta, eps, seed)
            assert calls == []
            mp.setattr(ensembles, "_gap_settled", lambda *args: False)
            mu, mv, me = gen_almost_commuting_pair(n, delta, eps, seed)
            assert len(calls) == 2
        for got, want in ((u, mu), (v, mv)):
            assert np.array_equal(got.mat, want.mat)
            assert got.defect == want.defect
        assert e == me
        assert min(min_gap_at_zero(u), min_gap_at_zero(v)) >= delta / 2.0

    @pytest.mark.parametrize("eps", [np.nextafter(0.5, 0.0), 0.5, 0.6])
    def test_gap_measured_near_and_above_half_delta(self, monkeypatch, eps):
        calls = counted(monkeypatch, "unitary_eigensystem")
        u, v, _ = gen_almost_commuting_pair(8, 1.0, eps, 3)
        assert not ensembles._gap_settled(8, 1.0, eps)
        assert len(calls) >= 2
        assert min(min_gap_at_zero(u), min_gap_at_zero(v)) >= 0.5
        for m in (u, v):
            assert unitary_eigensystem(m).margin == min_gap_at_zero(m)

    def test_retries_exhausted(self, monkeypatch):
        draws = counted(monkeypatch, "stream_rng")
        with pytest.raises(NumericalError, match="perturbation kept closing the gap"):
            gen_almost_commuting_pair(8, 2.5, 2.5, 0)
        assert len(draws) == MAX_REGEN_RETRIES


class TestCertifiedOutput:
    """Every generated unitary passes the unitarity gate, not just records its defect."""

    def test_gapped_and_pair_generators_gate_the_defect(self, monkeypatch):
        # doubled matrices have defect 3; the perturbation W is doubled too, so
        # the perturbed U = W U0 has defect 15
        real = ensembles.unitary_from_angles
        monkeypatch.setattr(ensembles, "unitary_from_angles", lambda q, w: 2.0 * real(q, w))
        with pytest.raises(NumericalError, match="gapped unitary lost unitarity"):
            gen_gapped_unitary(4, 1.0, 1)
        with pytest.raises(NumericalError, match="perturbed U lost unitarity"):
            gen_almost_commuting_pair(4, 1.0, 1e-3, 1)

    def test_clock_and_shift_gate_the_defect(self, monkeypatch):
        monkeypatch.setattr(linalg, "unitarity_defect", lambda m: 1.0)
        with pytest.raises(NumericalError, match="clock matrix lost unitarity"):
            gen_voiculescu_pair(4)

    def test_recorded_defect_is_the_measured_one(self):
        u, v, _ = gen_almost_commuting_pair(8, 1.0, 1e-3, 2)
        for m in (gen_gapped_unitary(8, 1.0, 2), u, v, *gen_voiculescu_pair(8)):
            assert m.defect == linalg.unitarity_defect(m.mat) <= linalg.UNITARITY_TOL * 8


class TestVoiculescu:
    @pytest.mark.parametrize("n", list(range(2, 129, 7)) + [128])
    def test_commutator_norm_formula(self, n):
        u, v = gen_voiculescu_pair(n)
        got = operator_norm(commutator(u.mat, v.mat))
        assert got == pytest.approx(2 * np.sin(np.pi / n), abs=1e-12)

    def test_hand_values(self):
        u2, v2 = gen_voiculescu_pair(2)
        assert operator_norm(commutator(u2.mat, v2.mat)) == pytest.approx(2.0, abs=1e-12)
        u4, v4 = gen_voiculescu_pair(4)
        assert operator_norm(commutator(u4.mat, v4.mat)) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_equally_spaced_spectra(self):
        u, v = gen_voiculescu_pair(16)
        for m in (u, v):
            angles = np.sort(unitary_eigensystem(m).angles)
            assert np.allclose(np.diff(angles), 2 * np.pi / 16, atol=1e-10)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            gen_voiculescu_pair(1)

    @pytest.mark.parametrize("n", [4.0, 4.5])
    def test_rejects_non_integral_n(self, n):
        with pytest.raises(InvalidInputError, match="integer"):
            gen_voiculescu_pair(n)
