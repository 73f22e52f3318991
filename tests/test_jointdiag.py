"""Joint approximate diagonalization: objective, rotations, commuting output."""

import numpy as np
import pytest

from nearcomm import (
    InvalidInputError,
    choose_truncation,
    commutator,
    gapped_log,
    gen_almost_commuting_pair,
    jointdiag,
    nearest_commuting_pair,
    operator_norm,
    haar_unitary,
    stream_rng,
)
from nearcomm.linalg import HermitianMatrix
from nearcomm.spectral import center_gap
from nearcomm.jointdiag import _newton_generator, _off


def random_hermitian(n, rng):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def off_of(a, b):
    """The JD objective off of (A, B): summed squared off-diagonal moduli."""
    return _off((a, b), ~np.eye(a.shape[0], dtype=bool))


def commuting_pair(n, seed, spread=2.0):
    """Hermitian pair sharing a Haar eigenbasis, simple spectra."""
    rng = stream_rng(seed)
    q = haar_unitary(n, rng)
    da = np.sort(rng.uniform(-spread, spread, n))
    db = rng.uniform(-spread, spread, n)
    a = (q * da) @ q.conj().T
    b = (q * db) @ q.conj().T
    return (a + a.conj().T) / 2, (b + b.conj().T) / 2


def dense_pair(pair):
    """(A', B') = (Q diag(a) Q^H, Q diag(b) Q^H) from the factored result."""
    q = pair.basis
    return (q * pair.diag_a) @ q.conj().T, (q * pair.diag_b) @ q.conj().T


def plane_rotation(a, b, p, q):
    """Reference closed-form (c, s) for one plane, computed one plane at a time."""
    h = np.empty((3, 2), dtype=np.complex128)
    for col, m in enumerate((a, b)):
        h[0, col] = m[p, p] - m[q, q]
        h[1, col] = m[p, q] + m[q, p]
        h[2, col] = 1j * (m[q, p] - m[p, q])
    _, vecs = np.linalg.eigh(np.real(h @ h.conj().T))
    x, y, z = vecs[:, -1]
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        x, y, z = -x, -y, -z
    c = np.sqrt(0.5 + x / 2.0)
    return c, 0.5 * (y - 1j * z) / c


def series_logs(n, eps, seed):
    """The two gap-centered series logs the pipeline hands to JD."""
    logs = []
    for m in gen_almost_commuting_pair(n, 1.0, eps, seed)[:2]:
        centered, gap = center_gap(m)
        gamma = gap.half_width / 2.0
        logs.append(gapped_log(centered, gamma, choose_truncation(gamma, 1e-6))[0].mat)
    return logs


class TestNewtonGenerator:
    def test_skew_hermitian(self):
        rng = np.random.default_rng(3)
        a, b = random_hermitian(9, rng), random_hermitian(9, rng)
        x, d = _newton_generator(a, b)
        assert np.array_equal(x, -x.conj().T)
        assert np.all(np.abs(x) <= 1.0 + 1e-15) and np.all(d >= 0)

    @pytest.mark.parametrize("eta", [1e-2, 1e-3, 1e-4])
    def test_2x2_matches_closed_form_plane_angle_to_first_order(self, eta):
        # the closed-form rotation is G = [[c, -conj(s)], [s, c]] = I + X + O(eta^2)
        a = np.array([[1.0, eta * (0.7 + 0.2j)], [eta * (0.7 - 0.2j), -0.5]])
        b = np.array([[0.3, eta * (-0.4 + 0.9j)], [eta * (-0.4 - 0.9j), 0.8]])
        x, _ = _newton_generator(a, b)
        _, s = plane_rotation(a, b, 0, 1)
        assert abs(x[1, 0] - s) <= eta**2
        assert x[0, 0] == x[1, 1] == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_small_eps_series_logs_converge_in_few_iterations(self, seed):
        # bounded work near the rounding floor: steps of ~1e-14 that still
        # lower off by ~1e-12 relative must not run on to MAX_SWEEPS
        a, b = series_logs(32, 1e-4, seed)
        pair = nearest_commuting_pair(a, b)
        assert pair.converged
        assert pair.sweeps <= 10

    def test_exact_ties_stay_finite(self):
        # planes whose diagonals tie in both matrices have no first-order
        # direction; they must not divide by zero
        a = np.array([[1, 0.3, 0], [0.3, 1, 0], [0, 0, 2]], dtype=float)
        b = np.array([[0, -0.2, 0], [-0.2, 0, 0], [0, 0, 1]], dtype=float)
        with np.errstate(all="raise"):
            x, _ = _newton_generator(a, b)
            pair = nearest_commuting_pair(a, b)
        assert np.all(x[:2, :2] == 0)
        for m in (*dense_pair(pair), pair.basis):
            assert np.all(np.isfinite(m))
        assert np.all(np.diff(pair.off_history) <= 0)
        assert operator_norm(commutator(*dense_pair(pair))) <= 1e-12 * 3


class TestOffMeasure:
    def test_diagonal_is_zero(self):
        assert off_of(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_hand_value(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert off_of(a, np.zeros((2, 2))) == pytest.approx(2.0, abs=1e-15)

    def test_invariant_under_diagonal_phases(self):
        rng = np.random.default_rng(2)
        a, b = random_hermitian(5, rng), random_hermitian(5, rng)
        d = np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 5)))
        assert off_of(d.conj().T @ a @ d, d.conj().T @ b @ d) == pytest.approx(
            off_of(a, b), rel=1e-12
        )


class TestNearestCommutingPair:
    def test_already_diagonal(self):
        a, b = np.diag([1.0, 2.0, -1.0]), np.diag([0.5, -0.5, 3.0])
        pair = nearest_commuting_pair(a, b)
        assert pair.dist_a == pytest.approx(0.0, abs=1e-14)
        assert pair.dist_b == pytest.approx(0.0, abs=1e-14)
        assert pair.converged

    @pytest.mark.parametrize("case", ["warm-start", "blind-2", "blind-3"])
    def test_stops_at_the_first_off_at_or_below_the_floor(self, case):
        # floor = 1e-30 * (|A|_F^2 + |B|_F^2). warm-start: a_01 = 1e-17 is
        # below eigh's resolution, so the warm-start basis leaves off = 2e-34
        # with a nonzero generator. blind-n: a commuting pair with
        # a_0 + phi*b_0 = a_1 + phi*b_1 in a Haar basis, so the warm start
        # cannot split that plane and the sweeps take off down to rounding
        if case == "warm-start":
            a, b = np.diag([1.0, 2.0, 3.0]).astype(complex), np.zeros((3, 3))
            a[0, 1] = a[1, 0] = 1e-17
        else:
            n = int(case[-1])
            q = haar_unitary(n, stream_rng(2))
            da, db = np.arange(n, dtype=float), np.zeros(n)
            da[1], db[1] = -jointdiag._WARM_START_WEIGHT, 1.0
            a, b = (q * da) @ q.conj().T, (q * db) @ q.conj().T
        pair = nearest_commuting_pair(a, b)
        floor = 1e-30 * max(np.sum(np.abs(a) ** 2) + np.sum(np.abs(b) ** 2), 1.0)
        assert pair.converged and pair.off_history[0] > 0
        assert pair.off_history[-1] <= floor < min(pair.off_history[:-1], default=np.inf)

    def test_small_perturbation_2x2(self):
        # A dominates, so the best move keeps A's basis and diagonalizes
        # only B's diagonal part: dist_a = 0, dist_b = |eps|
        eps = 0.01
        a = np.diag([1.0, -1.0])
        b = eps * np.array([[0.0, 1.0], [1.0, 0.0]])
        pair = nearest_commuting_pair(a, b)
        assert pair.dist_a + pair.dist_b <= 2 * eps + 1e-12
        assert operator_norm(commutator(*dense_pair(pair))) <= 1e-12 * 2

    def test_2x2_against_brute_force(self):
        # oracle: scan all 2x2 rotations for the lowest commuting-pair cost
        rng = np.random.default_rng(8)
        a, b = random_hermitian(2, rng), random_hermitian(2, rng)
        pair = nearest_commuting_pair(a, b)
        # the whole 361 x 361 (theta, phi) grid as one stack of rotations
        theta, phi = np.meshgrid(
            np.linspace(-np.pi / 4, np.pi / 4, 361), np.linspace(-np.pi, np.pi, 361), indexing="ij"
        )
        c, s = np.cos(theta), np.sin(theta) * np.exp(1j * phi)
        g = np.stack([np.stack([c, -np.conj(s)], -1), np.stack([s, c], -1)], -2)
        gh = np.conj(np.swapaxes(g, -1, -2))
        ra, rb = gh @ a @ g, gh @ b @ g
        mask = ~np.eye(2, dtype=bool)
        off = np.sum(np.abs(ra[..., mask]) ** 2 + np.abs(rb[..., mask]) ** 2, axis=-1)
        i = np.unravel_index(np.argmin(off), off.shape)
        best = off[i]
        assert best == pytest.approx(_off((ra[i], rb[i]), mask), rel=1e-12)
        assert pair.off_history[-1] <= best + 1e-10

    def test_same_matrix_twice(self):
        rng = np.random.default_rng(13)
        a = random_hermitian(6, rng)
        pair = nearest_commuting_pair(a, a.copy())
        assert pair.dist_a <= 1e-10 * 6
        assert pair.dist_b <= 1e-10 * 6

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12])
    def test_commuting_inputs_recovered(self, n):
        a, b = commuting_pair(n, 400 + n)
        pair = nearest_commuting_pair(a, b)
        assert pair.dist_a + pair.dist_b <= 1e-8 * n
        assert pair.converged

    def test_output_commutes_even_unconverged(self, monkeypatch):
        rng = np.random.default_rng(5)
        a, b = random_hermitian(8, rng), random_hermitian(8, rng)
        monkeypatch.setattr(jointdiag, "MAX_SWEEPS", 1)
        pair = nearest_commuting_pair(a, b)
        assert pair.sweeps == 1 and not pair.converged
        assert operator_norm(commutator(*dense_pair(pair))) <= 1e-12 * 8

    def test_off_monotone_per_sweep(self):
        rng = np.random.default_rng(6)
        a, b = random_hermitian(10, rng), random_hermitian(10, rng)
        pair = nearest_commuting_pair(a, b)
        hist = np.array(pair.off_history)
        assert np.all(np.diff(hist) <= 1e-10 * max(1.0, hist[0]))

    def test_line_search_keeps_off_monotone(self):
        # on this pair the third full step raises off; the halving line
        # search must shorten it instead of accepting the rise
        rng = np.random.default_rng(87)
        a, b = random_hermitian(8, rng), random_hermitian(8, rng)
        pair = nearest_commuting_pair(a, b)
        assert np.all(np.diff(pair.off_history) <= 0)

    def test_halved_step_is_taken(self, monkeypatch):
        # on this far-from-commuting pair a full step raises off once; the
        # halved step lowers it and the iteration runs its whole budget. A
        # line search that retried the unhalved step would stop after 13
        # sweeps, converged, at dist 7.78 instead of 7.05
        rng = np.random.default_rng(3)
        a, b = random_hermitian(16, rng), random_hermitian(16, rng)
        solves, real = [], np.linalg.solve

        def counted(*args):
            solves.append(1)
            return real(*args)

        monkeypatch.setattr(np.linalg, "solve", counted)
        pair = nearest_commuting_pair(a, b)
        assert not pair.converged and pair.sweeps == jointdiag.MAX_SWEEPS
        assert len(solves) > pair.sweeps
        assert pair.dist_a + pair.dist_b == pytest.approx(7.0507, abs=1e-3)

    def test_no_halving_that_lowers_off_stops_converged(self, monkeypatch):
        # every trial step reads a higher off: all _MAX_HALVINGS halvings fail,
        # and the iteration stops converged in the warm-start basis
        rng = np.random.default_rng(3)
        a, b = random_hermitian(5, rng), random_hermitian(5, rng)
        readings, real = [], jointdiag._off

        def rising(w, mask):
            readings.append(real(w, mask))
            return readings[0] if len(readings) == 1 else 2.0 * readings[0] + 1.0

        monkeypatch.setattr(jointdiag, "_off", rising)
        monkeypatch.setattr(jointdiag, "MAX_SWEEPS", 3)
        pair = nearest_commuting_pair(a, b)
        assert pair.converged and pair.sweeps == 0
        assert pair.off_history == (readings[0],)
        assert np.all(np.diff(pair.off_history) <= 0)
        assert len(readings) == 1 + jointdiag._MAX_HALVINGS

    @pytest.mark.parametrize("case", ["random-10", "series-logs-32"])
    def test_converged_basis_is_a_jacobi_fixed_point(self, case):
        # oracle independent of visiting order: at a converged basis the
        # optimal rotation of every plane is the identity; the stop rule
        # (the next step's predicted decrease of off at most 1e-12 of off)
        # leaves |s| of order 1e-6
        if case == "random-10":
            rng = np.random.default_rng(6)
            a, b = random_hermitian(10, rng), random_hermitian(10, rng)
        else:
            a, b = series_logs(32, 1e-2, 21)
        pair = nearest_commuting_pair(a, b)
        assert pair.converged
        q = pair.basis
        ra, rb = q.conj().T @ a @ q, q.conj().T @ b @ q
        n = a.shape[0]
        worst = max(
            abs(plane_rotation(ra, rb, i, j)[1]) for i in range(n) for j in range(i + 1, n)
        )
        assert worst <= 1e-5

    def test_distance_sanity(self):
        rng = np.random.default_rng(7)
        a, b = random_hermitian(6, rng), random_hermitian(6, rng)
        pair = nearest_commuting_pair(a, b)
        assert pair.dist_a <= 2 * operator_norm(a) + 1e-12
        assert pair.dist_b <= 2 * operator_norm(b) + 1e-12

    def test_basis_unitary_and_reconstruction(self):
        rng = np.random.default_rng(9)
        a, b = random_hermitian(7, rng), random_hermitian(7, rng)
        pair = nearest_commuting_pair(a, b)
        q = pair.basis
        assert operator_norm(q.conj().T @ q - np.eye(7)) <= 1e-12 * 7
        da = np.diag(np.diag(q.conj().T @ a @ q).real)
        assert operator_norm(dense_pair(pair)[0] - q @ da @ q.conj().T) <= 1e-12 * 7

    def test_diagonals_rebuild_the_outputs(self):
        # the distances are measured on the pair the basis and diagonals rebuild
        rng = np.random.default_rng(9)
        a, b = random_hermitian(7, rng), random_hermitian(7, rng)
        pair = nearest_commuting_pair(a, b)
        for d, out, m, dist in zip((pair.diag_a, pair.diag_b), dense_pair(pair), (a, b),
                                   (pair.dist_a, pair.dist_b)):
            assert d.dtype == np.float64 and d.shape == (7,) and not d.flags.writeable
            assert dist == pytest.approx(operator_norm(out - m), rel=1e-12)

    def test_continuity_toward_commuting(self):
        # shrinking the perturbation shrinks the median distance
        medians = []
        for eps in (0.3, 0.03, 0.003):
            dists = []
            for seed in range(5):
                a, b = commuting_pair(8, 700 + seed)
                rng = stream_rng(800 + seed)
                b = b + eps * random_hermitian(8, rng)
                pair = nearest_commuting_pair(a, b)
                dists.append(pair.dist_a + pair.dist_b)
            medians.append(np.median(dists))
        assert medians[0] > medians[1] > medians[2]

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            nearest_commuting_pair(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))

    def test_typed_and_plain_inputs_agree(self):
        # a typed argument skips the hermiticity check, nothing else
        rng = np.random.default_rng(8)
        a, b = (HermitianMatrix.from_array(random_hermitian(6, rng)) for _ in range(2))
        typed, plain = nearest_commuting_pair(a, b), nearest_commuting_pair(a.mat, b.mat)
        for t, p in ((typed.diag_a, plain.diag_a),
                     (typed.diag_b, plain.diag_b),
                     (typed.basis, plain.basis)):
            assert np.array_equal(t.view(np.uint64), p.view(np.uint64))
        assert (typed.dist_a, typed.dist_b, typed.sweeps, typed.off_history) == (
            plain.dist_a, plain.dist_b, plain.sweeps, plain.off_history
        )

    def test_rejects_mismatched(self):
        with pytest.raises(InvalidInputError):
            nearest_commuting_pair(np.eye(2), np.eye(3))
