"""Exact-mode angle certification.

Independent oracle: mpmath's general eigen-solver (Hessenberg QR) at 60
digits, a reference for the LAPACK eigenvalues that rational_angles
certifies.
"""

from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logroots import (DEFAULT, ExactModeError, MonodromyRep, classify,
                      eigenvalues, parse_input_document, preset)
from logroots.exact import _convergent, rational_angles

from conftest import angle, random_unitary


def eig_reference(a, tol=DEFAULT):
    """Sorted (angle, multiplicity) pairs from mpmath.eig's eigenvalues."""
    with mpmath.workdps(60):
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


def certify(a, tol=DEFAULT):
    """The certified spectrum of the matrix ``a``, as exact mode gets it."""
    return rational_angles(eigenvalues(a, tol), tol)


def certified(a):
    return [(ev.exact_angle, ev.multiplicity) for ev in certify(a)]


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
        (ev,) = certify([[angle(0.75)]])
        assert ev.q == 0.75 and ev.r == 1.0
        assert ev.value == pytest.approx(-1j)


class TestRefusals:
    def test_non_unit_modulus(self):
        with pytest.raises(ExactModeError, match="modulus"):
            certify(np.diag([1.0, 2.0 * angle(0.25)]))

    def test_irrational_angle(self):
        q = 2 ** 0.5 - 1  # no p/s with s <= 4096 within the check
        with pytest.raises(ExactModeError, match="not a rational"):
            certify(np.diag([angle(q), 1.0, angle(0.5)]))

    def test_denominator_cap(self):
        a = [[angle(1 / 17)]]
        assert certified(a) == [(Fraction(1, 17), 1)]
        with pytest.raises(ExactModeError, match="denominator <= 16"):
            certify(a, DEFAULT.override(max_denominator=16))


class TestDomain:
    def test_ill_conditioned_conjugate_is_refused(self):
        # A = P D P^-1 with cond(P) = 1e5 moves D's eigenvalues by up to
        # about 1e-16 * cond(P)^2, far beyond the 1/(100 s^2) check at the
        # default max_denominator; a coarser check certifies them, and
        # only to the planted angles
        rng = np.random.default_rng(4300)
        qs = [Fraction(1, 5), Fraction(1, 2), Fraction(2, 3)]
        coarse = DEFAULT.override(max_denominator=12)
        for _ in range(20):
            p = random_unitary(rng, 3) @ np.diag([1.0, 10 ** 2.5, 1e5]) \
                @ random_unitary(rng, 3)
            a = p @ np.diag([angle(float(q)) for q in qs]) @ np.linalg.inv(p)
            with pytest.raises(ExactModeError):
                certify(a)
            got = certify(a, coarse)
            assert [(ev.exact_angle, ev.multiplicity) for ev in got] == \
                [(q, 1) for q in qs]

    def test_ill_conditioned_rep_is_refused(self):
        rng = np.random.default_rng(4301)
        p = random_unitary(rng, 2) @ np.diag([1.0, 1e5]) \
            @ random_unitary(rng, 2)
        pinv = np.linalg.inv(p)
        rep = MonodromyRep(p @ np.diag([angle(0.25), angle(0.5)]) @ pinv,
                           p @ np.diag([angle(0.75), angle(0.5)]) @ pinv)
        with pytest.raises(ExactModeError):
            classify(rep, exact=True)


def certificate_reference(q, max_den):
    """The certificate of the angle ``q`` by the stdlib's best rational
    approximation and the check that rational_angles applies to it."""
    check = 1.0 / (100 * max_den ** 2)
    frac = Fraction(q).limit_denominator(max_den) % 1
    if abs(q - frac) > check and abs(q - 1 - frac) > check:
        return None
    return frac


@st.composite
def angles_near_rationals(draw):
    """(q, N): q a rational p/s, s <= N, moved by a multiple of the check
    on either side of its bound, then wrapped into [0, 1] as
    rational_angles wraps an angle."""
    max_den = draw(st.sampled_from([1, 12, 60, 4096]))
    s = draw(st.integers(1, max_den))
    p = draw(st.one_of(st.just(0), st.just(s), st.integers(0, s)))
    factor = draw(st.sampled_from([0.0, 0.999999, 1.0, 1.000001, 1.5]))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    q = p / s + sign * factor / (100 * max_den ** 2)
    if q < 0.0:
        q += 1.0
    elif q > 1.0:
        q -= 1.0
    return q, max_den


class TestConvergentCertificate:
    """The convergent walk decides as the stdlib's limit_denominator and
    the distance check do, accepting and refusing alike."""

    @staticmethod
    def assert_matches(q, max_den):
        got = _convergent(q, max_den, 1.0 / (100 * max_den ** 2))
        want = certificate_reference(q, max_den)
        assert (None if got is None else Fraction(*got)) == want
        if got is not None:
            assert got == (want.numerator, want.denominator)

    @given(angles_near_rationals())
    @settings(max_examples=2000, deadline=None)
    def test_near_rationals(self, case):
        self.assert_matches(*case)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.sampled_from([1, 12, 60, 4096]))
    @settings(max_examples=1000, deadline=None)
    def test_any_angle(self, q, max_den):
        self.assert_matches(q, max_den)

    def test_edges(self):
        for q in (0.0, 5e-324, 1e-300, 0.5, 1.0 - 2 ** -53, 1.0):
            for max_den in (1, 12, 60, 4096):
                self.assert_matches(q, max_den)
