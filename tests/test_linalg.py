"""Eigenvalue, branch-data and principal logarithm tests.

Independent oracles: np.linalg.eigvals for spectra, scipy.linalg.expm for
the exp(log) round trip of principal_log, which is checked on random
matrices and on conjugated Jordan blocks, whose float eigenvalues split.
"""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg

from logroots import DEFAULT, BranchedEigenvalue, eigenvalues, principal_log
from logroots.errors import DimensionError, SingularMatrix
from logroots.linalg import as_matrix, _branch_data

from conftest import angle, random_invertible, random_unitary

TWO_PI = 2.0 * math.pi


def expand(spectrum):
    return [ev for ev in spectrum for _ in range(ev.multiplicity)]


class TestAsMatrix:
    def test_rejects_dim_4(self):
        with pytest.raises(DimensionError):
            as_matrix(np.eye(4))

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionError):
            as_matrix(np.ones((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 0], [0, 1]])

    def test_accepts_transposed_view(self):
        # non-contiguous input must pass the finiteness check
        m = np.arange(9, dtype=complex).reshape(3, 3).T
        assert as_matrix(m).shape == (3, 3)


class TestEigenvalues:
    def test_rotation_matrix_quarter_turns(self):
        # [[0,-1],[1,0]] has eigenvalues +-i; oracle: np.roots on x^2 + 1
        oracle = sorted(np.roots([1, 0, 1]), key=lambda z: z.imag)
        got = expand(eigenvalues([[0, -1], [1, 0]]))
        got_vals = sorted((ev.value for ev in got), key=lambda z: z.imag)
        assert np.allclose(got_vals, oracle)
        assert sorted(ev.q for ev in got) == pytest.approx([0.25, 0.75])

    def test_branch_angles_in_unit_interval(self, rng):
        for _ in range(300):
            n = rng.integers(1, 4)
            for ev in eigenvalues(random_invertible(rng, n)):
                assert 0.0 <= ev.q < 1.0
                assert ev.r > 0

    def test_matches_numpy_oracle(self, rng):
        for _ in range(300):
            n = rng.integers(1, 4)
            m = random_invertible(rng, n)
            key = lambda z: (round(z.real, 6), round(z.imag, 6))
            ours = sorted((ev.value for ev in expand(eigenvalues(m))), key=key)
            ref = sorted(np.linalg.eigvals(m), key=key)
            assert np.allclose(ours, ref, atol=1e-8)

    def test_multiplicity_clustering(self):
        evs = eigenvalues(np.diag([2.0, 2.0, 3.0]))
        mults = sorted(ev.multiplicity for ev in evs)
        assert mults == [1, 2]
        assert sum(ev.multiplicity for ev in evs) == 3

    def test_negative_real_branch(self):
        (ev,) = eigenvalues([[-4.0]])
        assert ev.q == pytest.approx(0.5)
        assert ev.log() == pytest.approx(math.log(4) + 1j * math.pi)

    def test_positive_real_has_angle_zero_exactly(self):
        (ev,) = eigenvalues([[7.0]])
        assert ev.q == 0.0
        assert not ev.branch_sensitive

    def test_near_branch_cut_is_flagged(self):
        (ev,) = eigenvalues([[np.exp(-1e-12j)]])
        assert ev.branch_sensitive

    def test_close_simple_eigenvalues(self):
        # 1e-6 apart, ten times the clustering radius: three simple values
        truth = [1.0, 1.0 + 1e-6, 1.0 + 2e-6]
        evs = eigenvalues(np.diag(truth))
        assert [ev.multiplicity for ev in evs] == [1, 1, 1]
        got = sorted((ev.value for ev in evs), key=lambda z: z.real)
        assert np.max(np.abs(np.array(got) - truth)) < 1e-12

    def test_subnormal_imaginary_part(self):
        # cmath.phase raises OverflowError on this input
        (ev,) = eigenvalues([[2 + 5e-324j]])
        assert ev.q == 0.0
        assert ev.r == 2.0


def _branch_data_by_phase(value, tol):
    """Branch data as computed with cmath.phase, for comparison."""
    q = cmath.phase(value) / TWO_PI
    if q < 0.0:
        q += 1.0
    sensitive = False
    if q < tol.eps_branch or q > 1.0 - tol.eps_branch:
        sensitive = q != 0.0
        q = 0.0
    return abs(value), q, sensitive


def test_branch_angle_bit_identical_to_phase():
    rng = np.random.default_rng(31)
    values = [complex(x, y) for x, y in
              rng.uniform(-1, 1, (2000, 2)) * 10.0 ** rng.integers(-300, 300, (2000, 1))]
    values += [complex(x, y) for x in (-2.0, -0.0, 0.0, 3.0)
               for y in (-1.0, -0.0, 0.0, 1.0, 1e-300, -1e-310)]
    checked = 0
    for z in values:
        try:
            expected = _branch_data_by_phase(z, DEFAULT)
        except OverflowError:
            continue
        assert _branch_data(z, DEFAULT) == expected
        checked += 1
    assert checked > 2000


class TestBranchedEigenvalue:
    def test_log_convention(self):
        ev = BranchedEigenvalue(value=2j, r=2.0, q=0.25, multiplicity=1)
        assert ev.log() == pytest.approx(math.log(2) + 1j * math.pi / 2)

    def test_inverse_maps_angle(self):
        ev = BranchedEigenvalue(value=angle(0.3), r=1.0, q=0.3, multiplicity=1)
        assert ev.inverse().q == pytest.approx(0.7)

    def test_inverse_fixes_angle_zero(self):
        ev = BranchedEigenvalue(value=3.0, r=3.0, q=0.0, multiplicity=1)
        inv = ev.inverse()
        assert inv.q == 0.0
        assert inv.r == pytest.approx(1.0 / 3.0)


class TestStackedPasses:
    """The stacked eigenvalue pass equals its one-matrix function bit for
    bit."""

    @staticmethod
    def matrices(rng):
        mats = [random_invertible(rng, n) for n in (1, 2, 3) for _ in range(60)]
        for _ in range(20):
            c = random_invertible(rng, 3)
            ci = np.linalg.inv(c)
            lam = angle(rng.uniform())
            mats += [
                # repeated, diagonalizable
                c @ np.diag([lam, lam, 2.0]) @ ci,
                # defective: blocks {2, 1} and {3}
                c @ np.array([[lam, 1, 0], [0, lam, 0], [0, 0, -1]]) @ ci,
                c @ np.array([[lam, 1, 0], [0, lam, 1], [0, 0, lam]]) @ ci,
                # ill-conditioned: nearly parallel eigenvectors
                np.array([[1, 10 ** rng.uniform(2, 5)],
                          [0, 1 + 10 ** -rng.uniform(3, 6)]], dtype=complex),
            ]
        return mats

    def test_eigenvalue_batch_is_eigenvalues(self, rng):
        from logroots.linalg import eigenvalues_batch
        mats = self.matrices(rng)
        singular = np.diag([1.0, 1e-13]).astype(complex)
        # LAPACK refuses a stack that holds it, so its stack is redone
        # matrix by matrix
        infinite = np.diag([np.inf, 1.0, 1.0]).astype(complex)
        mats[5:5] = [singular, infinite]
        out = eigenvalues_batch(mats, DEFAULT)
        assert isinstance(out[5], SingularMatrix)
        assert isinstance(out[6], ValueError)
        for m, got in zip(mats[:5] + mats[7:], out[:5] + out[7:]):
            assert got == eigenvalues(m)


class TestPrincipalLog:
    def test_exp_round_trip_against_scipy(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 4))
            m = random_invertible(rng, n)
            log = principal_log(m)
            back = scipy.linalg.expm(log.L)
            assert np.linalg.norm(back - m) < 1e-8 * max(1, np.linalg.norm(m))

    def test_eigenvalue_branches_confined(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 4))
            log = principal_log(random_invertible(rng, n))
            for lam in np.linalg.eigvals(log.L):
                assert -1e-9 <= lam.imag / TWO_PI < 1.0

    def test_scalar(self):
        log = principal_log([[-1.0]])
        assert log.L[0, 0] == pytest.approx(1j * math.pi)

    def test_jordan_block_log_nilpotent_part(self):
        # log of [[1,1],[0,1]] is exactly [[0,1],[0,0]]
        log = principal_log([[1.0, 1.0], [0.0, 1.0]])
        assert np.allclose(log.L, [[0, 1], [0, 0]], atol=1e-12)

    def test_trace_is_sum_of_eigenvalue_logs(self, rng):
        for _ in range(100):
            m = random_invertible(rng, 3)
            log = principal_log(m)
            expected = sum(ev.log() * ev.multiplicity for ev in eigenvalues(m))
            assert log.trace_of_log == pytest.approx(expected, abs=1e-7)
            assert np.trace(log.L) == pytest.approx(expected, abs=1e-7)

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            principal_log(np.zeros((2, 2)))

    def test_unitary_log_is_skew_plus_branch(self, rng):
        # for a unitary with no angle-0 eigenvalue, exp(L) unitary again
        m = np.diag([angle(0.2), angle(0.6)])
        log = principal_log(m)
        assert np.allclose(scipy.linalg.expm(log.L), m, atol=1e-12)


LAM, MU = angle(0.2), angle(0.7)


class TestPrincipalLogRepeatedSpectra:
    """The log where eigenvalues repeat or nearly do.  Within 1e-8 of A
    after scipy's expm, with every eigenvalue of L in the branch [0, 1)
    of turns."""

    @staticmethod
    def check(m):
        log = principal_log(m)
        err = np.linalg.norm(scipy.linalg.expm(log.L) - m) / np.linalg.norm(m)
        assert err < 1e-8
        for lam in np.linalg.eigvals(log.L):
            assert -1e-9 <= lam.imag / TWO_PI < 1.0

    @pytest.mark.parametrize("j", [
        [[LAM, 1], [0, LAM]],
        [[LAM, 1, 0], [0, LAM, 0], [0, 0, MU]],
        [[LAM, 1, 0], [0, LAM, 1], [0, 0, LAM]],
    ], ids=["J2", "J2+mu", "J3"])
    def test_conjugated_jordan_block(self, rng, j):
        # conjugated by a complex normal P, the float eigenvalues of a
        # k-block split by about (eps cond P)^(1/k): a Jordan basis built
        # on them failed the round trip on every J3
        j = np.array(j)
        for _ in range(200):
            p = rng.normal(size=j.shape) + 1j * rng.normal(size=j.shape)
            self.check(p @ j @ np.linalg.inv(p))

    @pytest.mark.parametrize("m", [
        [[5.0, 1, 0], [0, 5, 0], [0, 0, 5]],
        np.diag([3.0, 3.0, 7.0]),
        np.diag([1.0, 1.0 + 1e-6, 1.0 + 2e-6]),
    ], ids=["blocks-2-1", "diag-3-3-7", "close-simple"])
    def test_repeated_and_close_eigenvalues(self, m):
        self.check(np.asarray(m, dtype=complex))
