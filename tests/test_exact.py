"""Exact-mode angle certification.

Independent oracle: mpmath's general eigen-solver (Hessenberg QR) at the
same working precision, kept here only as a reference for the spectra that
rational_angles computes from the characteristic polynomial.
"""

from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from logroots import DEFAULT, ExactModeError, parse_input_document, preset
from logroots.exact import rational_angles

from conftest import angle, random_unitary


def eig_reference(a, tol=DEFAULT):
    """Sorted (angle, multiplicity) pairs from mpmath.eig's eigenvalues."""
    with mpmath.workdps(tol.exact_dps):
        m = mpmath.matrix([[mpmath.mpc(z) for z in row]
                           for row in np.asarray(a, dtype=complex).tolist()])
        eigs = mpmath.eig(m, left=False, right=False)
        counts = Counter()
        for lam in eigs:
            assert abs(mpmath.fabs(lam) - 1) < 1e-12
            q = mpmath.arg(lam) / (2 * mpmath.pi)
            frac = Fraction(float(q)).limit_denominator(tol.max_denominator) % 1
            assert abs(q - frac) < 1e-12 or abs(q + 1 - frac) < 1e-12
            counts[frac] += 1
    return sorted(counts.items())


def certified(a):
    return [(ev.exact_angle, ev.multiplicity) for ev in rational_angles(a)]


def random_angles(rng, n):
    return [Fraction(int(rng.integers(0, s)), s)
            for s in rng.integers(1, 13, size=n)]


def conjugate(rng, diag):
    n = len(diag)
    # a well-conditioned basis change: unitary times a bounded diagonal
    p = random_unitary(rng, n) @ np.diag(rng.uniform(0.5, 2.0, n)) \
        @ random_unitary(rng, n)
    return p @ np.diag(diag) @ np.linalg.inv(p)


class TestAgainstEigReference:
    @pytest.mark.parametrize("n", [2, 3])
    def test_random_unit_circle_conjugates(self, n):
        rng = np.random.default_rng(4100 + n)
        for _ in range(25):
            qs = random_angles(rng, n)
            a = conjugate(rng, [angle(float(q)) for q in qs])
            got = certified(a)
            assert got == eig_reference(a)
            assert sorted(q for q, k in got for _ in range(k)) == sorted(qs)

    def test_repeated_angles(self):
        rng = np.random.default_rng(4200)
        for qs in ([Fraction(1, 3)] * 2, [Fraction(1, 2)] * 2 + [Fraction(1, 5)],
                   [Fraction(0)] * 3):
            a = conjugate(rng, [angle(float(q)) for q in qs])
            assert certified(a) == eig_reference(a)

    def test_pslz_section5(self):
        (rep,) = parse_input_document(preset("pslz-section5"))
        for m in (rep.m0, rep.m1, rep.m0 @ rep.m1):
            assert certified(m) == eig_reference(m)
        assert certified(rep.m1) == [(Fraction(0), 1), (Fraction(1, 2), 2)]

    def test_scalar_matrix_is_one_triple_root(self):
        a = angle(1 / 3) * np.eye(3)
        assert certified(a) == [(Fraction(1, 3), 3)]
        assert certified(a) == eig_reference(a)

    def test_jordan_block(self):
        lam = angle(0.25)
        a = np.array([[lam, 1, 0], [0, lam, 1], [0, 0, lam]])
        assert certified(a) == [(Fraction(1, 4), 3)]

    def test_character(self):
        assert certified([[angle(5 / 7)]]) == [(Fraction(5, 7), 1)]

    def test_branch_data(self):
        (ev,) = rational_angles([[angle(0.75)]])
        assert ev.q == 0.75 and ev.r == 1.0
        assert ev.value == pytest.approx(-1j)


class TestRefusals:
    def test_non_unit_modulus(self):
        with pytest.raises(ExactModeError, match="modulus"):
            rational_angles(np.diag([1.0, 2.0 * angle(0.25)]))

    def test_irrational_angle(self):
        q = 2 ** 0.5 - 1  # no p/s with s <= 4096 within the check
        with pytest.raises(ExactModeError, match="not a rational"):
            rational_angles(np.diag([angle(q), 1.0, angle(0.5)]))

    def test_denominator_cap(self):
        a = [[angle(1 / 17)]]
        assert certified(a) == [(Fraction(1, 17), 1)]
        with pytest.raises(ExactModeError, match="denominator <= 16"):
            rational_angles(a, DEFAULT.override(max_denominator=16))
