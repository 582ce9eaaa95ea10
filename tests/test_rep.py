"""Representation structure tests: invariant subspaces, irreducibility,
decomposability, short exact sequences.

Independent oracle for the subspace search: brute-force matching of the
eigenvector sets computed by np.linalg.eig.
"""

from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from logroots import (
    DEFAULT,
    LocalSpectra,
    MonodromyRep,
    analyze,
    build_from_pslz,
    character,
    chern_class,
    classify,
    common_invariant_subspaces,
    local_spectra,
    trivial,
)
from logroots.errors import (DimensionError, InconsistentCertificate,
                             RelationViolated, SingularMatrix)
from logroots.rep import _complement

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

    def test_dim2_sequence_basis_is_unitary(self, rng):
        # a dim-2 sequence's P = [v, v'] is unitary, P^H M P is upper
        # triangular, and its diagonal holds the sub and quotient values
        for _ in range(50):
            rep = conjugated_block_pair(rng, (1, 1))
            for seq in analyze(rep).sequences:
                p = seq.basis_change
                assert np.allclose(p.conj().T @ p, np.eye(2), atol=1e-12)
                for m, sub, quotient in ((rep.m0, seq.sub_rep.m0,
                                          seq.quotient_rep.m0),
                                         (rep.m1, seq.sub_rep.m1,
                                          seq.quotient_rep.m1)):
                    t = p.conj().T @ m @ p
                    scale = np.linalg.norm(m)
                    assert abs(t[1, 0]) < 1e-6 * scale
                    assert t[0, 0] == pytest.approx(sub[0, 0],
                                                    abs=1e-6 * scale)
                    assert t[1, 1] == pytest.approx(quotient[0, 0],
                                                    abs=1e-6 * scale)

    @pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2)])
    def test_complement_matches_svd(self, rng, n, k):
        # the closed-form complement spans the null space of B^H that
        # numpy's SVD gives, and [B, C] is unitary; axis-aligned and real
        # bases (a zero first entry, e1 itself) included
        bases = [random_unitary(rng, n)[:, :k] for _ in range(50)]
        bases += [np.eye(n, dtype=complex)[:, :k],
                  np.eye(n, dtype=complex)[:, n - k:],
                  np.eye(n, dtype=complex)[:, ::-1][:, :k]]
        for basis in bases:
            comp = _complement(basis)
            assert comp.shape == (n, n - k)
            p = np.hstack([basis, comp])
            assert np.allclose(p.conj().T @ p, np.eye(n), atol=1e-12)
            ref = np.linalg.svd(basis.conj().T)[2].conj().T[:, k:]
            assert np.allclose(comp @ comp.conj().T, ref @ ref.conj().T,
                               atol=1e-12)

    def test_sequence_sub_and_quotient_dims(self, worked_example):
        comp = analyze(worked_example)
        assert comp.kind == "both"
        dims = sorted(seq.sub_dim for seq in comp.sequences)
        assert dims == [1, 2, 2]


def _multiset(spectrum):
    return Counter({(ev.value, ev.q): ev.multiplicity for ev in spectrum})


def _values(spectrum):
    return [ev.value for ev in spectrum for _ in range(ev.multiplicity)]


def _match_all(got, want, radius):
    """Whether the values ``got`` and ``want`` pair off one to one, each
    pair within ``radius``."""
    rest = list(want)
    for z in got:
        near = [k for k, w in enumerate(rest) if abs(z - w) <= radius]
        if not near:
            return False
        rest.pop(near[0])
    return not rest


def _block_spectra(b0, b1):
    """Reference spectra of a part from its blocks: numpy eigvals at 0 and
    1, and the inverted eigvals of the product at infinity."""
    return (np.linalg.eigvals(b0), np.linalg.eigvals(b1),
            1.0 / np.linalg.eigvals(b0 @ b1))


def _sequence_blocks(rep, seq):
    """The diagonal blocks (sub, quotient) of P^-1 M P for M0 and M1."""
    p = seq.basis_change
    pinv = np.linalg.inv(p)
    k = seq.sub_dim
    t0, t1 = (pinv @ m @ p for m in (rep.m0, rep.m1))
    return (t0[:k, :k], t1[:k, :k]), (t0[k:, k:], t1[k:, k:])


def conjugated_character_sum(rng, n):
    """A direct sum of n characters (d0[k], d1[k]), conjugated by a
    random invertible P; returns the rep and the planted pairs."""
    d0, d1 = (np.exp(rng.uniform(-0.5, 0.5, n)
                     + 2j * np.pi * rng.uniform(0, 1, n)) for _ in range(2))
    p = random_invertible(rng, n)
    pinv = np.linalg.inv(p)
    rep = MonodromyRep(p @ np.diag(d0) @ pinv, p @ np.diag(d1) @ pinv)
    return rep, list(zip(d0, d1))


class TestInheritedSpectra:
    """Every sub, quotient and summand takes its spectra from its parent's
    record, split by the eigenvalue pair that found it.  The references
    are numpy eigvals of the part's own blocks, planted characters, and
    Fraction sums of planted angles."""

    def _check(self, rep, exact=False, tol=DEFAULT):
        """Check every sequence and summand of ``rep``; returns its degree
        and the number of parts checked."""
        parent = local_spectra(rep, tol, exact)
        c1 = chern_class(rep, spectra=parent).c1
        comp = analyze(rep, tol, spectra=parent)
        radii = [tol.eps_cluster * max(abs(ev.value) for ev in pole)
                 for pole in parent.poles]
        shares = [((seq.sub_rep, seq.sub_spectra),
                   (seq.quotient_rep, seq.quotient_spectra),
                   _sequence_blocks(rep, seq)) for seq in comp.sequences]
        if comp.components:
            shares.append(tuple(zip(comp.components, comp.component_spectra))
                          + (tuple((c.m0, c.m1) for c in comp.components),))
        for first, second, blocks in shares:
            for (_, spectra), (b0, b1) in zip((first, second), blocks):
                assert spectra.exact == exact
                for pole, want, radius in zip(spectra.poles,
                                              _block_spectra(b0, b1), radii):
                    assert _match_all(_values(pole), want, radius)
            for pole in range(3):
                assert _multiset(first[1].poles[pole]) \
                    + _multiset(second[1].poles[pole]) \
                    == _multiset(parent.poles[pole])
            assert sum(chern_class(part, spectra=spectra).c1
                       for part, spectra in (first, second)) == c1
        return c1, len(shares)

    @pytest.mark.parametrize("dims", [(1, 1), (2, 1), (1, 2), (1, 1, 1)])
    def test_float_parts_partition_the_parent(self, rng, dims):
        for _ in range(20):
            _, checked = self._check(conjugated_block_pair(rng, dims))
            assert checked >= 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_conjugated_character_sums(self, rng, n):
        # the character summand is one planted pair (d0[k], d1[k]) at 0, 1
        # and infinity, and the other summand holds the remaining pairs
        for _ in range(20):
            rep, planted = conjugated_character_sum(rng, n)
            comp = analyze(rep)
            assert comp.kind == "decomposable"
            rest, char = comp.component_spectra
            (l,), (m,), (inf,) = (_values(pole) for pole in char.poles)
            k = min(range(n), key=lambda k: abs(planted[k][0] - l)
                    + abs(planted[k][1] - m))
            others = planted[:k] + planted[k + 1:]
            for got, want in ((l, planted[k][0]), (m, planted[k][1]),
                              (inf, 1 / (planted[k][0] * planted[k][1]))):
                assert got == pytest.approx(want, abs=1e-9)
            for pole, want in zip(rest.poles,
                                  ([a for a, _ in others],
                                   [b for _, b in others],
                                   [1 / (a * b) for a, b in others])):
                assert _match_all(_values(pole), want, 1e-9)
            _, checked = self._check(rep)
            assert checked == len(comp.sequences) + 1

    @pytest.mark.parametrize("exact", [False, True])
    def test_worked_example(self, worked_example, exact):
        c1, checked = self._check(worked_example, exact)
        assert (c1, checked) == (-3, 3)

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
            c1, _ = self._check(MonodromyRep(m0, m1), exact=True)
            assert c1 == expected

    @pytest.mark.parametrize("exact", [False, True])
    def test_unmatched_block_eigenvalue_is_refused(self, worked_example,
                                                   exact):
        # no eigenvalue at infinity is the inverse of a character's l*m
        parent = local_spectra(worked_example, exact=exact)
        turned = tuple(replace(ev, value=ev.value * angle(0.123))
                       for ev in parent.poles[2])
        doctored = LocalSpectra(parent.poles[:2] + (turned,), exact)
        with pytest.raises(InconsistentCertificate,
                           match="of 0 parent eigenvalues"):
            classify(worked_example, spectra=doctored)

    def test_ambiguous_match_is_refused(self):
        # two eigenvalues at infinity within eps_cluster of each 1/(l*m)
        rep = MonodromyRep(np.diag([1.0, 2.0]), np.diag([1.0, 3.0]))
        parent = local_spectra(rep)
        doubled = tuple(twin for ev in parent.poles[2]
                        for twin in (ev, replace(ev, value=ev.value + 5e-8)))
        doctored = LocalSpectra(parent.poles[:2] + (doubled,))
        with pytest.raises(InconsistentCertificate,
                           match="of 2 parent eigenvalues"):
            analyze(rep, spectra=doctored)

    def test_parent_multiplicity_is_not_exceeded(self):
        # a repeated eigenvalue is shared out one at a time: every part
        # takes at most the parent's multiplicity, and the shares add up
        rep = MonodromyRep(np.diag([1j, 1j, -1.0]), np.diag([-1j, -1j, 2.0]))
        _, checked = self._check(rep)
        comp = analyze(rep)
        assert comp.kind == "decomposable" and comp.non_isolated
        parent = local_spectra(rep)
        assert [ev.multiplicity for ev in parent.poles[0]] == [2, 1]
        for spectra in comp.component_spectra + tuple(
                s for seq in comp.sequences
                for s in (seq.sub_spectra, seq.quotient_spectra)):
            for pole, whole in zip(spectra.poles, parent.poles):
                assert all(_multiset(pole)[key] <= k
                           for key, k in _multiset(whole).items())
        assert checked == len(comp.sequences) + 1


class TestPartsSolveNothing:
    """The mechanism: a part's spectra are read off its parent's record,
    and no part needs a QR or inverse change of basis."""

    def _spy(self, monkeypatch, *names):
        """The names of the ``np.linalg`` functions ``names`` as called."""
        calls = []
        for name in names:
            def spy(*args, _real=getattr(np.linalg, name), _name=name,
                    **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        return calls

    def test_flag_of_characters_makes_no_eigvals_call(self, rng,
                                                      monkeypatch):
        rep = conjugated_block_pair(rng, (1, 1, 1))
        spectra = local_spectra(rep)
        calls = self._spy(monkeypatch, "eigvals")
        res = classify(rep, spectra=spectra)
        assert res.composition_kind == "both" and len(res.parts) == 2
        assert calls == []
        local_spectra(rep)  # the spy sees a solve
        assert calls == ["eigvals"]

    def test_dim2_sequence_makes_no_qr_or_inv_call(self, rng, monkeypatch):
        flag = conjugated_block_pair(rng, (1, 1))
        summands, _ = conjugated_character_sum(rng, 2)
        calls = self._spy(monkeypatch, "qr", "inv")
        assert classify(flag).composition_kind == "sub1"
        assert classify(summands).composition_kind == "decomposable"
        assert len(analyze(flag).sequences) == 1
        assert len(analyze(summands).sequences) == 2
        assert calls == []

    def test_flag_of_characters_makes_no_qr_or_inv_call(self, rng,
                                                        monkeypatch):
        # a dim-2 part is its block B^H M B in an orthonormal basis B
        rep = conjugated_block_pair(rng, (1, 1, 1))
        spectra = local_spectra(rep)
        calls = self._spy(monkeypatch, "qr", "inv")
        res = classify(rep, spectra=spectra)
        assert res.composition_kind == "both" and len(res.parts) == 2
        assert calls == []
        np.linalg.inv(analyze(rep).sequences[0].basis_change)
        assert calls == ["inv"]  # the spy sees a call


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

    def test_disagreement_states_both_verdicts(self):
        # eps_cluster merges the eigenvalues of M0, so sigma reads
        # reducible where the search finds no line; exact mode refuses
        # the rep as well (modulus 1 + 5e-8), so the refusal advises no
        # rerun
        rep = MonodromyRep(np.diag([1.0, 1.0 + 5e-8]), [[0, 1], [1, 0]])
        with pytest.raises(InconsistentCertificate, match=(
                r"^the line search found 0 invariant line\(s\): irreducible, "
                r"judged against eps_inv = 1\.0e-08 relative; the sigma "
                r"certificate reads reducible: \|sigma\| = \S+ <= "
                r"eps_sigma\*scale = 1\.000e-09$")):
            classify(rep)

    def test_disagreement_the_other_way(self, rng):
        # a conjugated triangular pair has a line, and with eps_sigma = 0
        # its sigma, nonzero by rounding, reads irreducible
        p = random_invertible(rng, 2)
        rep = MonodromyRep(*(p @ np.array(m) @ np.linalg.inv(p) for m in (
            [[1.0, 1.0], [0.0, 2.0]], [[3.0, 1.0], [0.0, 5.0]])))
        with pytest.raises(InconsistentCertificate, match=(
                r"found 1 invariant line\(s\): reducible, judged against "
                r"eps_inv = 1\.0e-08 relative; the sigma certificate reads "
                r"irreducible: \|sigma\| = \S+ > eps_sigma\*scale = "
                r"0\.000e\+00$")):
            analyze(rep, DEFAULT.override(eps_sigma=0.0))


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
