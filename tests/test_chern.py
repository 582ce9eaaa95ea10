"""Degree (first Chern class) tests.

The hand oracle for characters: c1 = -(q0 + q1 + q_inf) where q_inf is the
wrapped angle (1 - (q0 + q1) mod 1) mod 1, so c1 is 0, -1, or -2 depending
on how many wraps the angle pair forces.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from logroots import (
    DEFAULT,
    MonodromyRep,
    analyze,
    character,
    chern_bound_check,
    chern_class,
    trivial,
    unitarity_test,
)
from logroots.chern import ChernData
from logroots.linalg import BranchedEigenvalue
from logroots.rep import LocalSpectra
from logroots.errors import NonIntegerChern, ProvenBoundViolated

from conftest import angle, random_invertible, random_unitary


def character_c1_oracle(q0, q1):
    q_inf = (1 - (q0 + q1) % 1) % 1
    total = q0 + q1 + q_inf
    assert total == int(total)
    return -int(total)


class TestCharacterDegrees:
    @pytest.mark.parametrize("q0,q1", [
        (0, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 4)),
        (Fraction(3, 4), Fraction(3, 4)), (Fraction(5, 6), Fraction(1, 6)),
        (Fraction(2, 3), Fraction(2, 3)), (Fraction(1, 7), 0),
    ])
    def test_matches_hand_oracle(self, q0, q1):
        chi = character(angle(q0), angle(q1))
        assert chern_class(chi).c1 == character_c1_oracle(q0, q1)

    def test_trivial_rep_degree_zero(self):
        for n in (1, 2, 3):
            assert chern_class(trivial(n)).c1 == 0

    def test_modulus_does_not_matter(self):
        # ln-moduli cancel across the three poles; only angles count
        assert chern_class(character(2.0, 3.0)).c1 == 0
        assert chern_class(character(-2.0, 5.0)).c1 == \
            chern_class(character(-1.0, 1.0)).c1 == -1

    def test_exact_mode_on_rational_angles(self):
        chi = character(angle(Fraction(5, 6)), angle(Fraction(1, 6)))
        data = chern_class(chi, exact=True)
        assert data.exact
        assert data.c1 == -1
        assert data.per_pole[0].exact_q_sum == Fraction(5, 6)


class TestChernProperties:
    def test_integer_snapping_residual(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 4))
            rep = MonodromyRep(random_invertible(rng, n),
                               random_invertible(rng, n))
            data = chern_class(rep)
            assert abs(data.raw_sum - data.c1) < 1e-6

    def test_conjugation_invariance(self, rng):
        for _ in range(100):
            rep = MonodromyRep(random_invertible(rng, 3),
                               random_invertible(rng, 3))
            u = random_unitary(rng, 3)
            conj = MonodromyRep(u @ rep.m0 @ u.conj().T,
                                u @ rep.m1 @ u.conj().T)
            assert chern_class(rep).c1 == chern_class(conj).c1

    def test_direct_sum_additivity(self, rng):
        for _ in range(100):
            a = MonodromyRep(random_invertible(rng, 2),
                             random_invertible(rng, 2))
            b = MonodromyRep(random_invertible(rng, 1),
                             random_invertible(rng, 1))
            m0 = np.block([[a.m0, np.zeros((2, 1))], [np.zeros((1, 2)), b.m0]])
            m1 = np.block([[a.m1, np.zeros((2, 1))], [np.zeros((1, 2)), b.m1]])
            whole = MonodromyRep(m0, m1)
            assert chern_class(whole).c1 == chern_class(a).c1 + chern_class(b).c1

    def test_wrap_diagnostics(self, rng):
        for _ in range(100):
            rep = MonodromyRep(random_invertible(rng, 3),
                               random_invertible(rng, 3))
            data = chern_class(rep)
            assert len(data.wrap_integers) == 3
            assert all(w in (0, 1) for w in data.wrap_integers)
            # determinant coherence: finite q-sums minus product q-sum is int
            assert isinstance(data.det_wrap, int)

    def test_zero_eps_int_rejects_noise(self, rng):
        # with a zero snapping tolerance any floating residual is fatal
        tol = DEFAULT.override(eps_int=0.0)
        raised = 0
        for _ in range(20):
            rep = MonodromyRep(random_invertible(rng, 3),
                               random_invertible(rng, 3))
            try:
                chern_class(rep, tol)
            except NonIntegerChern:
                raised += 1
        assert raised > 0

    def test_exact_and_float_agree(self, rng):
        dens = [1, 2, 3, 4, 6, 8, 12]
        for _ in range(100):
            qs = [Fraction(int(rng.integers(0, d)), d)
                  for d in rng.choice(dens, 2)]
            chi = character(angle(qs[0]), angle(qs[1]))
            assert chern_class(chi).c1 == chern_class(chi, exact=True).c1


@st.composite
def planted_exact_spectra(draw):
    """(n, poles): for each of three poles, certified angles p/s with
    s <= 60 and multiplicities summing to n <= 3.  Half the draws set the
    last angle at infinity so that the total is an integer."""
    n = draw(st.integers(1, 3))
    angle_of = st.integers(1, 60).flatmap(
        lambda s: st.integers(0, s - 1).map(lambda p: Fraction(p, s)))
    poles = []
    for _ in range(3):
        counts = draw(st.sampled_from(
            [c for c in ([n], [1, n - 1], [n - 2, 1, 1], [1, 1, n - 2])
             if min(c) > 0 and sum(c) == n]))
        poles.append([(draw(angle_of), k) for k in counts])
    if draw(st.booleans()) and poles[2][-1][1] == 1:
        rest = sum(q * k for pole in poles for q, k in pole) - poles[2][-1][0]
        poles[2][-1] = ((-rest) % 1, 1)
    return n, poles


def exact_spectra(poles) -> LocalSpectra:
    return LocalSpectra(tuple(
        tuple(BranchedEigenvalue(value=angle(float(q)), r=1.0, q=float(q),
                                 multiplicity=k, exact_angle=q)
              for q, k in pole) for pole in poles), exact=True)


class TestExactSum:
    """Exact chern_class sums over one lcm; a plain sum() of Fractions is
    the reference."""

    @given(planted_exact_spectra())
    @settings(max_examples=500, deadline=None)
    def test_matches_fraction_sum(self, planted):
        n, poles = planted
        spectra = exact_spectra(poles)
        sums = [sum((q * k for q, k in pole), Fraction(0)) for pole in poles]
        total = sum(sums, Fraction(0))
        if total.denominator != 1:
            with pytest.raises(NonIntegerChern) as err:
                chern_class(trivial(n), spectra=spectra)
            assert str(err.value) == \
                f"exact branch-angle sum {total} is not an integer"
            return
        data = chern_class(trivial(n), spectra=spectra)
        assert data.exact and data.c1 == -int(total)
        for pole, want in zip(data.per_pole, sums):
            assert type(pole.exact_q_sum) is Fraction
            assert pole.exact_q_sum == want
            assert pole.q_sum == float(want)
        assert data.raw_sum == -sum(float(q) for q in sums)

    def test_repeated_angle_non_integer(self):
        # a repeated angle counts with its multiplicity, and the message
        # names the reduced sum 2/3 + 2/3 + 1/3 + 1/6 = 22/12
        poles = [[(Fraction(1, 3), 2)], [(Fraction(1, 3), 2)],
                 [(Fraction(1, 3), 1), (Fraction(1, 6), 1)]]
        with pytest.raises(NonIntegerChern,
                           match="exact branch-angle sum 11/6 is not"):
            chern_class(trivial(2), spectra=exact_spectra(poles))


class TestUnitarity:
    def test_unitary_pair(self, rng):
        rep = MonodromyRep(random_unitary(rng, 2), random_unitary(rng, 2))
        assert unitarity_test(rep)

    def test_generic_pair(self, rng):
        rep = MonodromyRep(2 * random_unitary(rng, 2), random_unitary(rng, 2))
        assert not unitarity_test(rep)


class TestBoundCheck:
    def _fake(self, c1):
        return ChernData(c1=c1, per_pole=(), wrap_integers=(), det_wrap=0,
                         raw_sum=float(-c1), branch_sensitive=False)

    def test_dim2_violation_is_hard_error(self, rng):
        rep = MonodromyRep(random_invertible(rng, 2), random_invertible(rng, 2))
        for irreducible in (False, True):
            with pytest.raises(ProvenBoundViolated):
                chern_bound_check(rep, self._fake(-5), irreducible)
            with pytest.raises(ProvenBoundViolated):
                chern_bound_check(rep, self._fake(1), irreducible)

    def test_dim2_in_range_passes(self, rng):
        # a generic pair is not unitary, so c1 = 0 passes even if irreducible
        rep = MonodromyRep(random_invertible(rng, 2), random_invertible(rng, 2))
        for c1 in range(0, -5, -1):
            for irreducible in (False, True):
                assert chern_bound_check(rep, self._fake(c1), irreducible) \
                    is None

    def test_unitary_irreducible_strict(self, rng):
        for _ in range(20):
            rep = MonodromyRep(random_unitary(rng, 2), random_unitary(rng, 2))
            irreducible = analyze(rep).kind == "irreducible"
            assert irreducible
            chern_bound_check(rep, chern_class(rep), irreducible)
            with pytest.raises(ProvenBoundViolated, match="strict"):
                chern_bound_check(rep, self._fake(0), True)
            # the strict bound is for irreducible reps only
            assert chern_bound_check(rep, self._fake(0), False) is None

    def test_dim3_window_is_conjectural(self, rng):
        rep = MonodromyRep(random_invertible(rng, 3), random_invertible(rng, 3))
        # even an out-of-window value never raises
        assert chern_bound_check(rep, self._fake(-7), False) is None
        assert chern_bound_check(character(1.0, 1.0), self._fake(-3), True) \
            is None
