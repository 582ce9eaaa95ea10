"""Representation structure tests: invariant subspaces, irreducibility,
decomposability, short exact sequences.

Independent oracle for the subspace search: brute-force matching of the
eigenvector sets computed by np.linalg.eig.
"""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from logroots import (
    LocalSpectra,
    MonodromyRep,
    analyze,
    build_from_pslz,
    character,
    chern_class,
    common_invariant_subspaces,
    inherit_spectra,
    local_spectra,
    trivial,
)
from logroots.errors import (DimensionError, InconsistentCertificate,
                             RelationViolated, SingularMatrix)

from conftest import angle, random_invertible, random_unitary


def brute_force_common_lines(m0, m1, tol=1e-7):
    """Oracle: pairs of eigenvectors of m0 and m1 spanning the same line."""
    n = m0.shape[0]
    _, v0 = np.linalg.eig(m0)
    _, v1 = np.linalg.eig(m1)
    lines = []
    for i in range(n):
        for j in range(n):
            a, b = v0[:, i], v1[:, j]
            if abs(abs(a.conj() @ b)) > 1 - tol:
                if all(abs(abs(a.conj() @ c)) < 1 - tol for c in lines):
                    lines.append(a)
    return lines


def conjugated_block_pair(rng, dims, cond_scale=1.0):
    """Block upper triangular pair with the given diagonal block dims,
    conjugated by a unitary so planted structure is not axis-aligned."""
    n = sum(dims)
    u = random_unitary(rng, n)

    def one():
        m = np.zeros((n, n), dtype=complex)
        pos = 0
        for d in dims:
            m[pos:pos + d, pos:pos + d] = random_invertible(rng, d)
            m[pos:pos + d, pos + d:] = rng.uniform(-1, 1, (d, n - pos - d))
            pos += d
        return u @ m @ u.conj().T

    return MonodromyRep(one(), one())


class TestMonodromyRep:
    def test_rejects_singular(self):
        with pytest.raises(SingularMatrix):
            MonodromyRep(np.zeros((2, 2)), np.eye(2))

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionError):
            MonodromyRep(np.eye(2), np.eye(3))

    def test_infinity_closes_the_loop(self, rng):
        for _ in range(50):
            rep = MonodromyRep(random_invertible(rng, 3),
                               random_invertible(rng, 3))
            assert np.allclose(rep.m0 @ rep.m1 @ rep.m_infinity, np.eye(3),
                               atol=1e-9)

    def test_character_and_trivial(self):
        chi = character(2.0, 3.0)
        assert chi.n == 1
        assert chi.m_infinity[0, 0] == pytest.approx(1 / 6)
        assert np.array_equal(trivial(3).m0, np.eye(3))


class TestCommonInvariantSubspaces:
    def test_matches_brute_force_on_planted(self, rng):
        hits = 0
        for _ in range(100):
            rep = conjugated_block_pair(rng, (1, 2))
            ours = common_invariant_subspaces(rep, 1)
            oracle = brute_force_common_lines(rep.m0, rep.m1)
            assert len(ours) >= 1
            assert len(oracle) >= 1
            # the planted line must appear in both
            found = any(
                abs(abs(sub.basis[:, 0].conj() @ line / np.linalg.norm(line)))
                > 1 - 1e-6
                for sub in ours for line in oracle)
            hits += found
        assert hits == 100

    def test_generic_pair_has_no_common_line(self, rng):
        for _ in range(100):
            rep = MonodromyRep(random_invertible(rng, 3),
                               random_invertible(rng, 3))
            assert common_invariant_subspaces(rep, 1) == []
            assert common_invariant_subspaces(rep, 2) == []

    def test_residuals_are_small(self, rng):
        for _ in range(50):
            rep = conjugated_block_pair(rng, (2, 1))
            for k in (1, 2):
                for sub in common_invariant_subspaces(rep, k):
                    assert sub.residual_norm < 1e-7

    def test_plane_line_duality(self, rng):
        # a rep has an invariant plane iff the transpose pair has a line
        for _ in range(50):
            rep = conjugated_block_pair(rng, (2, 1))
            planes = common_invariant_subspaces(rep, 2)
            transposed = MonodromyRep(rep.m0.T, rep.m1.T)
            lines_t = common_invariant_subspaces(transposed, 1)
            assert bool(planes) == bool(lines_t)

    def test_scalar_pair_reports_non_isolated(self):
        rep = MonodromyRep(2 * np.eye(2), 3 * np.eye(2))
        subs = common_invariant_subspaces(rep, 1)
        assert len(subs) == 2
        assert all(s.non_isolated for s in subs)

    def test_two_dimensional_common_null_space(self, rng):
        # the pair (2, 3) has a plane of common eigenvectors, (5, 7) a line
        u = random_unitary(rng, 3)
        rep = MonodromyRep(u @ np.diag([2.0, 2.0, 5.0]) @ u.conj().T,
                           u @ np.diag([3.0, 3.0, 7.0]) @ u.conj().T)
        lines = common_invariant_subspaces(rep, 1)
        assert sorted(s.non_isolated for s in lines) == [False, True, True]
        for sub in lines:
            v = sub.basis[:, 0]
            assert sub.residual_norm < 1e-12
            for m in (rep.m0, rep.m1):
                w = m @ v
                assert np.linalg.norm(w - (v.conj() @ w) * v) < 1e-12
            # a non-isolated line lies in the plane, the isolated one is u[:, 2]
            overlap = abs(u[:, 2].conj() @ v)
            assert overlap == pytest.approx(0.0 if sub.non_isolated else 1.0,
                                            abs=1e-12)
        planar = [s.basis[:, 0] for s in lines if s.non_isolated]
        assert abs(planar[0].conj() @ planar[1]) < 1 - 1e-6

    def test_k_out_of_range(self):
        rep = trivial(2)
        with pytest.raises(DimensionError):
            common_invariant_subspaces(rep, 2)


class TestAnalyze:
    def test_dim1_always_irreducible(self):
        assert analyze(character(5.0, -2.0)).kind == "irreducible"

    def test_generic_dim2_irreducible(self, rng):
        for _ in range(200):
            rep = MonodromyRep(random_invertible(rng, 2),
                               random_invertible(rng, 2))
            comp = analyze(rep)
            assert comp.kind == "irreducible"
            assert abs(comp.sigma) > 0

    def test_generic_dim3_irreducible(self, rng):
        for _ in range(100):
            rep = MonodromyRep(random_invertible(rng, 3),
                               random_invertible(rng, 3))
            assert analyze(rep).kind == "irreducible"

    def test_planted_sub_is_detected_dim2(self, rng):
        for _ in range(100):
            rep = conjugated_block_pair(rng, (1, 1))
            comp = analyze(rep)
            assert comp.kind in ("sub1", "decomposable")
            seq = comp.sequences[0]
            assert seq.sub_rep.n == 1 and seq.quotient_rep.n == 1

    def test_planted_sub_is_detected_dim3(self, rng):
        for _ in range(100):
            rep = conjugated_block_pair(rng, (2, 1))
            comp = analyze(rep)
            assert comp.kind != "irreducible"

    def test_block_diagonal_is_decomposable(self, rng):
        for _ in range(50):
            a = random_invertible(rng, 2)
            b = random_invertible(rng, 1)
            m0 = np.block([[a, np.zeros((2, 1))],
                           [np.zeros((1, 2)), b]])
            m1 = np.block([[random_invertible(rng, 2), np.zeros((2, 1))],
                           [np.zeros((1, 2)), random_invertible(rng, 1)]])
            comp = analyze(MonodromyRep(m0, m1))
            assert comp.kind == "decomposable"
            assert sorted(c.n for c in comp.components) == [1, 2]

    def test_sequence_blocks_reconstruct(self, rng):
        # P^{-1} M P must be block upper triangular for each sequence
        for _ in range(50):
            rep = conjugated_block_pair(rng, (2, 1))
            for seq in analyze(rep).sequences:
                p = seq.basis_change
                pinv = np.linalg.inv(p)
                k = seq.sub_dim
                for m in (rep.m0, rep.m1):
                    t = pinv @ m @ p
                    assert np.linalg.norm(t[k:, :k]) < 1e-6 * np.linalg.norm(m)

    def test_sequence_sub_and_quotient_dims(self, worked_example):
        comp = analyze(worked_example)
        assert comp.kind == "both"
        dims = sorted(seq.sub_dim for seq in comp.sequences)
        assert dims == [1, 2, 2]


def _multiset(spectrum):
    return Counter({(ev.value, ev.q): ev.multiplicity for ev in spectrum})


class TestInheritedSpectra:
    def _check_partition(self, rep, exact):
        # every sequence's sub and quotient split the parent's record at
        # each pole, and their degrees add up to the parent's
        parent = local_spectra(rep, exact=exact)
        c1 = chern_class(rep, spectra=parent).c1
        comp = analyze(rep, spectra=parent)
        assert comp.sequences
        for seq in comp.sequences:
            sub = inherit_spectra(parent, seq.sub_rep)
            quotient = inherit_spectra(parent, seq.quotient_rep)
            for pole in range(3):
                assert _multiset(sub.poles[pole]) \
                    + _multiset(quotient.poles[pole]) \
                    == _multiset(parent.poles[pole])
            assert chern_class(seq.sub_rep, spectra=sub).c1 \
                + chern_class(seq.quotient_rep, spectra=quotient).c1 == c1
        return c1

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (1, 1, 1)])
    def test_float_parts_partition_the_parent(self, rng, dims):
        for _ in range(20):
            self._check_partition(conjugated_block_pair(rng, dims), False)

    def test_exact_parts_partition_the_parent(self, rng):
        # upper triangular with planted rational angles; the reference
        # degree is the Fraction sum of those angles at 0, 1 and infinity.
        # Spectra are simple at every pole: a defective block does not
        # certify in exact mode (see ROADMAP, Jordan structure)
        checked = 0
        while checked < 10:
            q0, q1 = (tuple(Fraction(int(k), 12)
                            for k in rng.choice(12, 3, replace=False))
                      for _ in range(2))
            q_inf = [(-a - b) % 1 for a, b in zip(q0, q1)]
            if len(set(q_inf)) < 3:
                continue
            checked += 1
            u = random_unitary(rng, 3)
            m0, m1 = (u @ (np.diag([angle(q) for q in qs])
                           + np.triu(rng.uniform(-1, 1, (3, 3)), k=1))
                      @ u.conj().T for qs in (q0, q1))
            expected = -(sum(q0) + sum(q1) + sum(q_inf))
            rep = MonodromyRep(m0, m1)
            assert self._check_partition(rep, True) == expected

    @pytest.mark.parametrize("exact", [False, True])
    def test_unmatched_block_eigenvalue_is_refused(self, worked_example,
                                                   exact):
        parent = local_spectra(worked_example, exact=exact)
        stranger = character(angle(0.123), angle(0.456))
        with pytest.raises(InconsistentCertificate,
                           match="of 0 parent eigenvalues"):
            inherit_spectra(parent, stranger)

    def test_ambiguous_match_is_refused(self):
        # two parent eigenvalues within eps_cluster of the block's
        close = local_spectra(MonodromyRep(np.diag([1.0, 1.0 + 5e-8]),
                                           np.eye(2)))
        assert len(close.poles[0]) == 1  # merged by the cluster radius
        parent = LocalSpectra((local_spectra(character(1.0, 1.0)).poles[0]
                               + local_spectra(character(1.0 + 5e-8, 1.0)
                                               ).poles[0],)
                              + close.poles[1:])
        with pytest.raises(InconsistentCertificate,
                           match="of 2 parent eigenvalues"):
            inherit_spectra(parent, character(1.0 + 2e-8, 1.0))

    def test_parent_multiplicity_is_not_exceeded(self):
        parent = local_spectra(MonodromyRep(np.diag([1j, -1.0, 1.0]),
                                            np.diag([-1j, -1.0, 1.0])))
        twice = MonodromyRep(1j * np.eye(2), -1j * np.eye(2))
        with pytest.raises(InconsistentCertificate, match="multiplicity"):
            inherit_spectra(parent, twice)


class TestIsIrreducible:
    def test_conjugation_invariant(self, rng):
        for _ in range(50):
            rep = conjugated_block_pair(rng, (1, 2))
            u = random_unitary(rng, 3)
            conj = MonodromyRep(u @ rep.m0 @ u.conj().T,
                                u @ rep.m1 @ u.conj().T)
            assert "irreducible" not in (analyze(rep).kind,
                                         analyze(conj).kind)

    def test_sigma_and_search_agree_on_unitary(self, rng):
        # 200 unitary pairs: analyze raises if the two routes disagree
        for _ in range(200):
            rep = MonodromyRep(random_unitary(rng, 2), random_unitary(rng, 2))
            analyze(rep)


class TestBuildFromPslz:
    def test_worked_example_matrices(self, worked_example):
        s = worked_example.m1  # the non-diagonal generator satisfies S^2 = I
        t = np.diag(worked_example.m0)
        rep = build_from_pslz(t, s)
        assert np.allclose(rep.m0, s)
        assert np.allclose(rep.m1, np.diag(t))

    def test_relation_violation(self):
        with pytest.raises(RelationViolated) as exc:
            build_from_pslz([1.0, 1.0], np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert exc.value.res_s2 > 0 or exc.value.res_st3 > 0

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            build_from_pslz([1.0, 1.0, 1.0], np.eye(2))
