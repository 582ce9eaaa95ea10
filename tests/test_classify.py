"""Splitting-type classification tests across dimensions 1 to 3."""

from fractions import Fraction

import numpy as np
import pytest

from logroots import (
    MonodromyRep,
    SplittingType,
    candidate_tree,
    character,
    character_root,
    classify,
    ext_splits,
)
from logroots import analyze, chern_class, classify_document, local_spectra
from logroots.classify import _roots_irreducible
from logroots.errors import DimensionError, RootOutOfProvenRange

from conftest import angle, count_calls, random_invertible, random_unitary


def st(*roots):
    return SplittingType.of(roots)


class TestSplittingType:
    def test_sorted_descending(self):
        assert st(-2, 0, -1).roots == (0, -1, -2)

    def test_str(self):
        assert str(st(-1, 0, -2)) == "(0,-1,-2)"

    def test_total(self):
        assert st(-2, 0, -1).total == -3

    def test_equality_is_multiset(self):
        assert st(0, -1) == st(-1, 0)


class TestCharacterRoot:
    @pytest.mark.parametrize("q0,q1,root", [
        (0, 0, 0),
        (Fraction(1, 2), Fraction(1, 2), -1),
        (Fraction(3, 4), Fraction(3, 4), -2),
        (Fraction(1, 3), Fraction(1, 3), -1),
    ])
    def test_values(self, q0, q1, root):
        assert character_root(character(angle(q0), angle(q1))) == root

    def test_needs_dim_one(self):
        with pytest.raises(DimensionError):
            character_root(MonodromyRep(np.eye(2), np.eye(2)))

    def test_root_table_is_the_degree(self):
        for z in (0, -1, -2):
            options, provenance, _ = _roots_irreducible(1, z)
            assert options == [st(z)]
            assert provenance == ["dim1.characterRoot"]
        for z in (1, -3):
            with pytest.raises(RootOutOfProvenRange):
                _roots_irreducible(1, z)


class TestExtSplits:
    def test_gap_below_two_splits(self):
        assert ext_splits(st(-1), st(0))
        assert ext_splits(st(0), st(0))
        assert ext_splits(st(0), st(-2))

    def test_gap_two_does_not(self):
        assert not ext_splits(st(-2), st(0))
        assert not ext_splits(st(-2, 0), st(0))


def upper_triangular_pair(diag0, diag1, coupling=1.0):
    """Indecomposable-by-construction reducible pair (when coupling feeds
    every strictly-upper slot)."""
    n = len(diag0)
    m0 = np.diag([complex(angle(q)) for q in diag0])
    m1 = np.diag([complex(angle(q)) for q in diag1]) + \
        coupling * np.triu(np.ones((n, n)), k=1)
    return MonodromyRep(m0.astype(complex), m1.astype(complex))


def conjugated(rng, m0, m1):
    """The pair conjugated by a random invertible matrix."""
    p = random_invertible(rng, m0.shape[0])
    pinv = np.linalg.inv(p)
    return MonodromyRep(p @ m0 @ pinv, p @ m1 @ pinv)


def flag(rng, dims, blocks=None):
    """A block upper triangular pair with diagonal blocks of sizes
    ``dims``, random or the dim-2 ``blocks``, conjugated."""
    n = sum(dims)
    m0, m1 = (np.triu(rng.uniform(-1, 1, (n, n))).astype(complex)
              for _ in range(2))
    pos = 0
    for d in dims:
        b0, b1 = blocks if d == 2 and blocks else (random_invertible(rng, d),
                                                   random_invertible(rng, d))
        m0[pos:pos + d, pos:pos + d], m1[pos:pos + d, pos:pos + d] = b0, b1
        pos += d
    return conjugated(rng, m0, m1)


def character_sum(rng, d0, d1):
    """The direct sum of the characters (d0[k], d1[k]), conjugated."""
    return conjugated(rng, np.diag(d0).astype(complex),
                      np.diag(d1).astype(complex))


def direct_sum(rng, plane):
    """The direct sum of the dim-2 rep ``plane`` and a random character,
    conjugated."""
    m0, m1 = (np.zeros((3, 3), dtype=complex) for _ in range(2))
    for m, b, c in zip((m0, m1), (plane.m0, plane.m1), units(rng, 2)):
        m[:2, :2], m[2, 2] = b, c
    return conjugated(rng, m0, m1)


def units(rng, k):
    return [angle(q) for q in rng.uniform(0, 1, k)]


# perfbench/workloads.py FAILING_DIM2: a generic dim-2 pair with c1 = -5,
# whose balanced roots (-2, -3) leave the proven dim-2 window
FAILING_DIM2 = (
    np.array([[0.5746810661432135 + 0.20207427370502262j,
               0.5152102560955301 - 0.6018259792906299j],
              [0.24111166984872223 + 0.22911171152768767j,
               0.5978439911458443 - 0.2980913473153968j]]),
    np.array([[0.7403226234769891 - 0.5808410873001847j,
               -0.4960947401596337 - 0.39174472285352085j],
              [-0.33133551213838774 - 0.07521561372571361j,
               0.031537603422195665 + 0.819658892643917j]]),
)
WINDOW_REFUSAL = "dim-2 root bound: root -3 outside (-3, 0]"


class TestRootsDim2:
    def test_irreducible_balanced_rule(self, rng):
        # generic and unitary samples: roots are {ceil(z/2), floor(z/2)}
        for _ in range(100):
            rep = MonodromyRep(random_unitary(rng, 2), random_unitary(rng, 2))
            res = classify(rep)
            z = res.chern.c1
            if res.composition_kind == "irreducible":
                assert res.options == (st(-((-z) // 2), z // 2),)

    def test_split_reducible(self):
        # sub root -1 (angles 1/2, 1/2), quotient root 0: gap < 2, splits
        rep = upper_triangular_pair([Fraction(1, 2), 0], [Fraction(1, 2), 0])
        res = classify(rep)
        assert res.determined
        assert res.options == (st(0, -1),)

    def test_nonsplit_range_yields_candidates(self):
        # sub root -2 (angles 3/4 + 3/4), quotient root 0
        rep = upper_triangular_pair([Fraction(3, 4), 0], [Fraction(3, 4), 0])
        res = classify(rep)
        assert res.status == "candidates"
        assert set(res.options) == {st(-2, 0), st(-1, -1)}
        assert res.minimal_weight_range == (0, 1)

    def test_decomposable_union(self):
        m0 = np.diag([angle(Fraction(3, 4)), 1.0])
        m1 = np.diag([angle(Fraction(3, 4)), 1.0])
        res = classify(MonodromyRep(m0, m1))
        # block diagonal: the (-2, 0) pair is exact, no ambiguity
        assert res.determined
        assert res.options == (st(-2, 0),)

    def test_sum_rule_holds(self, rng):
        for _ in range(100):
            rep = MonodromyRep(random_invertible(rng, 2),
                               random_invertible(rng, 2))
            res = classify(rep)
            for opt in res.options:
                assert opt.total == res.chern.c1

    def test_irreducible_unitary_is_analyzed_once(self, rng, monkeypatch):
        # the bound check takes irreducibility from classify's analysis
        calls = count_calls(monkeypatch, "rep", "analyze")
        rep = MonodromyRep(random_unitary(rng, 2), random_unitary(rng, 2))
        res = classify(rep)
        assert res.composition_kind == "irreducible"
        assert len(calls) == 1 and calls[0] is rep


class TestRootsDim3Irreducible:
    def _with_degree(self, z):
        # the table reads only the integer degree
        options, _, _ = _roots_irreducible(3, z)
        return options

    def test_mod_zero_two_candidates(self):
        options = self._with_degree(-3)
        assert set(options) == {st(-1, -1, -1), st(0, -1, -2)}
        assert len(options) == 2

    def test_mod_one_determined(self):
        assert self._with_degree(-2) == [st(0, -1, -1)]

    def test_mod_two_determined(self):
        assert self._with_degree(-4) == [st(-1, -1, -2)]

    def test_real_irreducible_sample(self, rng):
        for _ in range(50):
            rep = MonodromyRep(random_unitary(rng, 3), random_unitary(rng, 3))
            res = classify(rep)
            if res.composition_kind != "irreducible":
                continue
            z = res.chern.c1
            for opt in res.options:
                assert opt.total == z
                assert max(opt.roots) - min(opt.roots) <= 2


class TestRootsDim3Reducible:
    def test_worked_example(self, worked_example):
        res = classify(worked_example)
        assert res.determined
        assert res.options == (st(0, -1, -2),)
        assert res.composition_kind == "both"

    @pytest.mark.parametrize("exact", [False, True])
    def test_sequence_parts_match_classify(self, worked_example, exact):
        # the parts classified from their shares of the rep's spectra agree
        # with parts classified from spectra of their own
        res = classify(worked_example, exact=exact)
        seq = analyze(worked_example).sequences[0]
        sub, quotient = res.parts
        assert sub.options == classify(seq.sub_rep, exact=exact).options
        assert quotient.options == \
            classify(seq.quotient_rep, exact=exact).options
        own = chern_class(seq.sub_rep, exact=exact)
        if exact:
            assert sub.chern == own
        else:
            assert sub.chern.c1 == own.c1
            for got, want in zip(sub.chern.per_pole, own.per_pole):
                assert got.q_sum == pytest.approx(want.q_sum, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda rng: flag(rng, (2, 1)),
        lambda rng: flag(rng, (1, 2)),
        lambda rng: flag(rng, (1, 1, 1)),
        lambda rng: character_sum(rng, units(rng, 3), units(rng, 3)),
        lambda rng: direct_sum(rng, MonodromyRep(random_invertible(rng, 2),
                                                 random_invertible(rng, 2))),
        # a plane summand that is itself a sum of two characters; and two
        # equal characters of root 0, which span a plane N of invariant
        # lines, beside one of root -2: a plane summand other than N meets
        # N in a line that the search need not return
        lambda rng: direct_sum(rng, character_sum(rng, units(rng, 2),
                                                  units(rng, 2))),
        lambda rng: character_sum(rng, [1, 1, angle(3 / 4)],
                                  [1, 1, angle(3 / 4)]),
    ], ids=["2+1", "1+2", "1+1+1", "three-characters", "plane-summand",
            "split-plane-summand", "scalar-plane-summand"])
    def test_parts_match_classify_on_their_own_blocks(self, rng, make):
        # each part the tables read has the options and degree of its own
        # blocks classified afresh: their own spectra and their own search
        for _ in range(10):
            rep = make(rng)
            res = classify(rep)
            comp = analyze(rep)
            blocks = comp.components if comp.kind == "decomposable" else (
                comp.sequences[0].sub_rep, comp.sequences[0].quotient_rep)
            assert len(res.parts) == 2
            for part, block in zip(res.parts, blocks):
                own = classify(block)
                assert (part.options, part.chern.c1) == \
                    (own.options, own.chern.c1)

    def test_reducible_rep_is_classified_once(self, worked_example,
                                              monkeypatch):
        # the parts are read off the rep's analysis, not classified again
        import importlib
        lclassify = importlib.import_module("logroots.classify")
        calls = count_calls(monkeypatch, "classify", "classify")
        res = lclassify.classify(worked_example)
        assert res.composition_kind == "both" and len(res.parts) == 2
        assert calls == [worked_example]

    def test_each_character_is_built_once(self, worked_example,
                                          monkeypatch):
        # a character part is looked up by its spectra before its rep is
        # built; the exact flag has three distinct characters
        calls = count_calls(monkeypatch, "rep", "character")
        res = classify(worked_example, exact=True)
        assert res.composition_kind == "both" and res.chern.exact
        assert len(calls) == 3

    @pytest.mark.parametrize("dims", [(2, 1), (1, 2)])
    def test_part_window_refusal(self, rng, dims):
        # a 2-block with c1 = -5 is refused at the part's dim-2 window, by
        # classify and as a per-rep error record
        rep = flag(rng, dims, FAILING_DIM2)
        with pytest.raises(RootOutOfProvenRange) as err:
            classify(rep)
        assert str(err.value) == WINDOW_REFUSAL
        (record,) = classify_document([rep], keep_going=True)["results"]
        assert record == {"label": None, "n": 3, "error": {
            "type": "RootOutOfProvenRange", "message": WINDOW_REFUSAL}}

    def test_given_spectra_are_used(self, worked_example):
        spectra = local_spectra(worked_example)
        assert classify(worked_example, spectra=spectra) == \
            classify(worked_example)
        # a given record's own mode decides: it is read, not recomputed
        exact = local_spectra(worked_example, exact=True)
        res = classify(worked_example, spectra=exact)
        assert res.chern.exact and all(p.chern.exact for p in res.parts)

    def test_planted_three_characters(self, rng):
        # upper triangular with known diagonal characters, split range
        rep = upper_triangular_pair([0, 0, 0],
                                    [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)])
        res = classify(rep)
        for opt in res.options:
            assert opt.total == res.chern.c1
            assert all(-3 < r <= 0 for r in opt.roots)

    def test_no_excluded_multiset(self, rng):
        for _ in range(100):
            dims = (2, 1) if rng.integers(2) else (1, 2)
            blocks0 = [random_invertible(rng, d) for d in dims]
            blocks1 = [random_invertible(rng, d) for d in dims]
            m0 = np.zeros((3, 3), dtype=complex)
            m1 = np.zeros((3, 3), dtype=complex)
            pos = 0
            for b0, b1, d in zip(blocks0, blocks1, dims):
                m0[pos:pos + d, pos:pos + d] = b0
                m1[pos:pos + d, pos:pos + d] = b1
                pos += d
            m0[0, 2] += 0.5
            m1[0, 2] += 0.25
            res = classify(MonodromyRep(m0, m1))
            assert st(0, -1, -3) not in res.options


class TestCandidateTree:
    def test_depth_three_offsets(self):
        offsets = candidate_tree(3, 3)
        assert set(offsets) == {(0, 0, 0), (0, 0, -1), (0, -1, -1), (0, -1, -2)}

    def test_depth_two_offsets(self):
        assert set(candidate_tree(3, 2)) == {(0, 0), (0, -1)}

    def test_concrete_roots_filter(self):
        got = set(candidate_tree(3, 3, -3))
        assert got == {st(-1, -1, -1), st(0, -1, -2)}

    def test_degree_not_representable(self):
        # offsets summing to c1 - sum(off) divisible by d only
        assert candidate_tree(3, 2, -3) == [st(-1, -2)]

    def test_wider_steps_for_more_punctures(self):
        # m = 4 allows drops of 2 per level
        assert (0, -2) in candidate_tree(4, 2)
        assert (0, -3) not in candidate_tree(4, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            candidate_tree(1, 3)
        with pytest.raises(DimensionError):
            candidate_tree(3, 0)


class TestClassifyDispatch:
    def test_dim1(self):
        res = classify(character(-1.0, -1.0))
        assert res.options == (st(-1),)
        assert res.composition_kind == "irreducible"

    def test_every_result_has_chern_and_provenance(self, rng):
        for n in (1, 2, 3):
            rep = MonodromyRep(random_invertible(rng, n),
                               random_invertible(rng, n))
            res = classify(rep)
            assert res.chern is not None
            assert res.provenance
            assert res.minimal_weight_range[0] <= res.minimal_weight_range[1]


@pytest.mark.parametrize("exact", [False, True])
def test_scalar_triple_eigenvalue_is_decomposable(exact):
    # two scalar matrices: every line is invariant, the spectrum of each is
    # one triple eigenvalue; c1 = -3 * (1/3 + 1/5 + 7/15) = -3
    w, z = angle(1 / 3), angle(1 / 5)
    res = classify(MonodromyRep(w * np.eye(3), z * np.eye(3)), exact=exact)
    assert res.composition_kind == "decomposable"
    assert res.options == (st(-1, -1, -1),)
