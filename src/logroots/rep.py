"""Monodromy representations of the thrice-punctured line as matrix pairs.

A representation is the pair (M0, M1) of images of the two free generators;
the loop around infinity maps to (M0*M1)^{-1}.  This module computes the
branched spectra of the three local monodromies once per rep
(:func:`local_spectra`), detects common invariant subspaces,
irreducibility and decomposability from those spectra, and reads the
structure of every sub, quotient and summand off one incidence matrix
of the lines and planes found (:func:`analyze`).  Each invariant
subspace carries the pair of eigenvalues, at 0 and at 1, whose pencil
found the character it splits off; that character takes those two and
the parent eigenvalue at infinity matching their product's inverse, and
the complementary part takes the rest.  So the spectra of every sub,
quotient and summand partition the parent's by construction, and no part
solves for eigenvalues of its own.  A product that matches no parent
eigenvalue at infinity, or several, raises InconsistentCertificate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (DimensionError, InconsistentCertificate,
                     RelationViolated, SingularMatrix)
from .exact import rational_angles
from .linalg import (BranchedEigenvalue, as_matrix, eigenvalues_batch,
                     _attempt, _det, _shifted, _value)

POLES = ("0", "1", "inf")


@dataclass(frozen=True)
class MonodromyRep:
    """Images (m0, m1) of the two generators; dimension n <= 3."""

    m0: np.ndarray
    m1: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        m0 = as_matrix(self.m0)
        m1 = as_matrix(self.m1)
        if m0.shape != m1.shape:
            raise DimensionError("m0 and m1 must have the same dimension")
        # a nearly singular matrix is judged against the run's eps_sing
        # where its spectrum is computed
        for name, m in (("m0", m0), ("m1", m1)):
            if _det(m) == 0:
                raise SingularMatrix(f"{name} is singular")
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)

    @property
    def n(self) -> int:
        return self.m0.shape[0]

    @property
    def m_infinity(self) -> np.ndarray:
        """Local monodromy around infinity, (M0 M1)^{-1}."""
        return np.linalg.inv(self.m0 @ self.m1)


def character(v0: complex, v1: complex, label: Optional[str] = None) -> MonodromyRep:
    """One-dimensional representation mapping the generators to v0, v1."""
    return MonodromyRep(np.array([[v0]]), np.array([[v1]]), label=label)


def trivial(n: int, label: Optional[str] = None) -> MonodromyRep:
    return MonodromyRep(np.eye(n), np.eye(n), label=label)


@dataclass(frozen=True)
class LocalSpectra:
    """Branched spectra of the local monodromies at 0, 1 and infinity.

    The spectrum at infinity is the inverse-mapped spectrum of M0*M1, so
    branch wrapping (q -> 1 - q for q > 0) is applied exactly.  In exact
    mode every eigenvalue carries its certified rational angle.
    """

    poles: tuple[tuple[BranchedEigenvalue, ...], ...]  # at 0, 1, infinity
    exact: bool = False


def local_spectra(rep: MonodromyRep, tol: Tolerances = DEFAULT,
                  exact: bool = False) -> LocalSpectra:
    """The rep's three local spectra, certified in exact mode; a matrix
    singular within ``tol.eps_sing`` is refused.  The one-rep case of
    ``local_spectra_batch``."""
    (spectra,) = local_spectra_batch([rep], tol, exact)
    return _value(spectra)


def local_spectra_batch(reps, tol: Tolerances = DEFAULT,
                        exact: bool = False) -> list:
    """The local spectra of each rep of ``reps``, or the exception that
    computing them raised: the first of M0, M1 and M0*M1 to fail.

    The eigenvalues of every rep's M0, M1 and M0*M1 come from one
    ``eigenvalues_batch``, one LAPACK call per dimension, in both modes.
    Exact mode then certifies each matrix's eigenvalues with
    ``rational_angles``.
    """
    # a product that overflows is that rep's NonFiniteMatrix refusal
    with np.errstate(over="ignore", invalid="ignore"):
        mats = [m for rep in reps for m in (rep.m0, rep.m1, rep.m0 @ rep.m1)]
    solved = eigenvalues_batch(mats, tol)
    if exact:
        solved = [s if isinstance(s, Exception)
                  else _attempt(rational_angles, s, tol) for s in solved]
    return [_attempt(_spectra, *solved[k:k + 3], exact)
            for k in range(0, len(solved), 3)]


def _spectra(s0, s1, s01, exact: bool) -> LocalSpectra:
    """The record of the spectra of M0, M1 and M0*M1, or of their
    ``_attempt`` outcomes, of which the first failure is raised; the
    spectrum at infinity inverts that of M0*M1."""
    return LocalSpectra((tuple(_value(s0)), tuple(_value(s1)),
                         tuple(ev.inverse() for ev in _value(s01))), exact)


@dataclass(frozen=True)
class InvariantSubspace:
    """A common invariant subspace, held as an orthonormal column basis.

    ``pair`` indexes the eigenvalues in the rep's spectra at 0 and at 1 by
    which M0 and M1 act on the character the subspace splits off: the
    line itself, or the quotient by an (n-1)-dimensional subspace.
    """

    dim: int
    basis: np.ndarray  # n x dim, orthonormal columns
    residual_norm: float
    pair: tuple[int, int]
    non_isolated: bool = False


def _scale(rep: MonodromyRep) -> float:
    return max(np.linalg.norm(rep.m0), np.linalg.norm(rep.m1), 1.0)


def _invariance_residual(rep: MonodromyRep, basis: np.ndarray) -> float:
    res = 0.0
    proj = np.eye(rep.n) - basis @ basis.conj().T
    for m in (rep.m0, rep.m1):
        res = max(res, float(np.linalg.norm(proj @ (m @ basis))))
    return res / _scale(rep)


def _line_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Gap between the lines spanned by unit vectors a and b."""
    return float(np.sqrt(max(0.0, 1.0 - abs(np.vdot(a, b)) ** 2)))


# Two found subspaces are one below this gap, and a found line lies in a
# found plane while |w^T v| is below it, for the line's unit vector v and
# the plane's unit normal w; above it the two are a direct sum.  On 525
# dim-3 reps from float-batch and exact-batch (seed 31) with lines and
# planes, contained pairs gave |w^T v| <= 1.9e-15 and complementary pairs
# >= 0.55.
_GAP = 1e-6


def _common_lines(m0: np.ndarray, m1: np.ndarray, spectra: LocalSpectra,
                  tol: Tolerances) -> list[InvariantSubspace]:
    """Common eigenvectors of (m0, m1), searched over the pairs of their
    eigenvalues in ``spectra`` (a transpose has the same spectrum).

    A pair (l, m) has a common eigenvector where the pencil
    [m0 - l I; m1 - m I] has a null vector.  One SVD of the stack of all
    pencils, singular values only, screens them; one SVD of the stack of
    the pencils it passes factors those in full, and their own singular
    values decide, pair by pair in ``itertools.product`` order.  Each
    line records the pair whose pencil found it.
    """
    n = m0.shape[0]
    scale = max(np.linalg.norm(m0), np.linalg.norm(m1), 1.0)
    thr = tol.eps_inv * scale
    found: list[InvariantSubspace] = []

    def _emit(vec: np.ndarray, pair: tuple[int, int], non_isolated: bool):
        vec = vec / np.linalg.norm(vec)
        basis = vec.reshape(-1, 1)
        for other in found:
            if _line_gap(vec, other.basis[:, 0]) < max(tol.eps_inv, _GAP):
                return
        res = 0.0
        for m in (m0, m1):
            w = m @ vec
            res = max(res, float(np.linalg.norm(w - (vec.conj() @ w) * vec)))
        found.append(InvariantSubspace(dim=1, basis=basis,
                                       residual_norm=res / scale, pair=pair,
                                       non_isolated=non_isolated))

    top, bottom = (_shifted(m, [ev.value for ev in spectrum])
                   for m, spectrum in zip((m0, m1), spectra.poles))
    # pencil i pairs top[i // len(bottom)] with bottom[i % len(bottom)]
    pencils = np.concatenate([np.repeat(top, len(bottom), axis=0),
                              np.tile(bottom, (len(top), 1, 1))], axis=1)
    # values alone come from another LAPACK path than a full factorization
    # and may differ from its values in the last bits; the factor 2 keeps
    # every pencil the full values would pass
    least = np.linalg.svd(pencils, compute_uv=False)[:, -1]
    passed = np.flatnonzero(least <= 2.0 * thr)
    if not len(passed):
        return found
    _, sv, vh = np.linalg.svd(pencils[passed])
    for index, s, v in zip(passed, sv, vh):
        pair = divmod(int(index), len(bottom))
        null = v.conj().T[:, s <= thr]
        if null.shape[1] == 0:
            continue
        if null.shape[1] == n:
            # scalar pair: every line is invariant; report canonical lines
            for i in range(n):
                _emit(np.eye(n)[:, i].astype(complex), pair,
                      non_isolated=True)
        elif null.shape[1] > 1:
            for i in range(null.shape[1]):
                _emit(null[:, i], pair, non_isolated=True)
        else:
            _emit(null[:, 0], pair, non_isolated=False)
    return found


def common_invariant_subspaces(rep: MonodromyRep, k: int,
                               tol: Tolerances = DEFAULT,
                               spectra: Optional[LocalSpectra] = None
                               ) -> list[InvariantSubspace]:
    """Common invariant subspaces of dimension k, 1 <= k < n.

    k = 1 searches for common eigenvectors over eigenvalue pairs; k = n - 1
    applies the same search to the transpose pair and returns annihilators.
    For n = 3 these two routes cover all proper dimensions.  The
    eigenvalues are those of ``spectra``, computed here when not given; a
    transpose has the same spectra, so an annihilator's ``pair`` is the
    character of the quotient by it.
    """
    n = rep.n
    if not 1 <= k < n:
        raise DimensionError(f"k = {k} out of range for dimension {n}")
    if spectra is None:
        spectra = local_spectra(rep, tol)
    if k == 1:
        return _common_lines(rep.m0, rep.m1, spectra, tol)
    # k == n - 1: annihilators of common eigenvectors of the transposes;
    # the gap between two planes is that between their normals, which
    # the line search has already deduplicated
    out = []
    for line in _common_lines(rep.m0.T, rep.m1.T, spectra, tol):
        basis = _complement(line.basis.conj())  # {v : w^T v = 0}
        out.append(InvariantSubspace(dim=n - 1, basis=basis,
                                     residual_norm=_invariance_residual(rep, basis),
                                     pair=line.pair,
                                     non_isolated=line.non_isolated))
    return out


def _complement(basis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(basis), for
    orthonormal columns ``basis`` of a proper subspace of C^2 or C^3.

    The complement of n - 1 columns is the conjugate of their cross
    product, or in C^2 of the column turned by a right angle; that of a
    unit vector v in C^3 is the last two columns of the Householder
    reflection I - c u u^H, c = 2 / |u|^2, which takes v to a multiple
    of e1.
    """
    n, k = basis.shape
    if k == n - 1:
        w = (_cross(*basis.T) if n == 3
             else np.array([-basis[1, 0], basis[0, 0]]))
        return w.conj().reshape(n, 1)
    v0, v1, v2 = basis[:, 0].tolist()
    # u = v + e^{i arg v0} e1 keeps |u| away from 0
    u0 = v0 + (v0 / abs(v0) if v0 else 1.0)
    c = 2.0 / (abs(u0) ** 2 + abs(v1) ** 2 + abs(v2) ** 2)
    w1, w2 = c * v1.conjugate(), c * v2.conjugate()
    return np.array([[-u0 * w1, -u0 * w2],
                     [1.0 - v1 * w1, -v1 * w2],
                     [-v2 * w1, 1.0 - v2 * w2]])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cross product of two vectors of C^3, in scalar arithmetic:
    for one pair that is several times quicker than ``np.cross``."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _match_at_infinity(z: complex,
                       spectrum: tuple[BranchedEigenvalue, ...],
                       tol: Tolerances) -> int:
    """The index of the one eigenvalue of ``spectrum`` within
    ``tol.eps_cluster`` of z, relative to the spectrum's radius."""
    radius = tol.eps_cluster * max(abs(ev.value) for ev in spectrum)
    near = [k for k, ev in enumerate(spectrum) if abs(z - ev.value) <= radius]
    if len(near) != 1:
        raise InconsistentCertificate(
            f"character eigenvalue {complex(z):.6g} at pole inf is within "
            f"{radius:.1e} of {len(near)} parent eigenvalues, not one")
    return near[0]


def _split(spectra: LocalSpectra, pair: tuple[int, int], line_is_sub: bool,
           tol: Tolerances) -> tuple[LocalSpectra, LocalSpectra]:
    """The spectra (sub, quotient) of the sequence whose character ``pair``
    indexes in ``spectra``: the character is the sub when the subspace
    that found it is the sub line (``line_is_sub``), else the quotient by
    it.  The two partition ``spectra`` at each pole.

    The character takes the pair's eigenvalues l at 0 and m at 1, and the
    eigenvalue at infinity that 1/(l m) matches; the complement takes the
    rest, multiplicities counted.  Both keep the parent's branch data,
    certified angles included.
    """
    i, j = pair
    product = spectra.poles[0][i].value * spectra.poles[1][j].value
    at = (i, j, _match_at_infinity(1.0 / product, spectra.poles[2], tol))
    char, rest = (LocalSpectra(poles, spectra.exact) for poles in
                  zip(*(_take(pole, k) for pole, k in zip(spectra.poles, at))))
    return (char, rest) if line_is_sub else (rest, char)


def _take(pole: tuple[BranchedEigenvalue, ...], k: int):
    """One of the eigenvalue ``pole[k]``, and the rest of ``pole``."""
    ev = pole[k]
    if ev.multiplicity == 1:
        return (ev,), pole[:k] + pole[k + 1:]
    return ((replace(ev, multiplicity=1),),
            pole[:k] + (replace(ev, multiplicity=ev.multiplicity - 1),)
            + pole[k + 1:])


def _character_of(spectra: LocalSpectra) -> MonodromyRep:
    """The character whose generators act by the values of ``spectra``."""
    return character(spectra.poles[0][0].value, spectra.poles[1][0].value)


@dataclass(frozen=True, eq=False)
class _Part:
    """A sub, quotient or summand of a rep: its spectra, its representation
    and the callable that builds its structure.  By default it is a
    character, whose representation is read off its spectra when read."""

    spectra: LocalSpectra
    _rep: Optional[MonodromyRep] = None
    structure: Callable[[], "CompositionData"] = \
        lambda: CompositionData(kind="irreducible")

    @property
    def character(self) -> bool:
        """True for a character, whose rep is not built until read."""
        return self._rep is None

    @cached_property
    def rep(self) -> MonodromyRep:
        return self._rep or _character_of(self.spectra)


def _incident(gaps: np.ndarray, found: list[InvariantSubspace],
              parent: LocalSpectra, share: LocalSpectra,
              line_is_sub: bool) -> list[tuple[tuple[int, int], bool]]:
    """The invariant lines of a dim-2 part with spectra ``share`` of a
    dim-3 rep with spectra ``parent``, as ``_planar`` takes them, read off
    the part's incidences ``gaps`` with the rep's subspaces ``found``:
    the lines in a plane, or the planes through a line.

    The d subspaces found for one pair span the null space N of its
    pencil (for planes, in the transposed search).  With d = 1, N meets
    the part iff its gap is zero.  With d >= 2, N meets it in one line,
    or in two when every one of them does or d = 3: the part is then
    scalar on that pair.  A pair whose eigenvalue ``share`` lacks gives no
    line.
    """
    lines = []
    for pair, group in itertools.groupby(zip(gaps, found),
                                         key=lambda g: g[1].pair):
        group = [gap for gap, _ in group]
        # the pair's eigenvalues, indexed in the part's spectra
        local = tuple(next((k for k, ev in enumerate(pole)
                            if ev.value == whole[i].value), None)
                      for i, whole, pole in zip(pair, parent.poles,
                                                share.poles))
        if None not in local:
            count = len(group) - 1 + all(gap <= _GAP for gap in group)
            lines += [(local, line_is_sub)] * min(2, count)
    return lines


@dataclass(frozen=True, eq=False)
class Sequence:
    """One short exact sequence 0 -> sub -> rep -> quotient -> 0, with
    ``sub_dim``, ``sub_rep``, ``quotient_rep``, ``sub_spectra``,
    ``quotient_spectra`` and ``basis_change``.

    ``basis_change`` is the unitary P = [B, B'] of an orthonormal basis B
    of the sub and B' of its orthogonal complement, in which both
    generators are block upper triangular, P^H M P.  A character sub or
    quotient is read off its spectra; a dim-2 one is its diagonal block.
    Their spectra partition the rep's.
    """

    sub_dim: int
    _sub: _Part = field(repr=False)
    _quotient: _Part = field(repr=False)
    _basis: np.ndarray = field(repr=False)

    sub_rep = property(lambda self: self._sub.rep)
    quotient_rep = property(lambda self: self._quotient.rep)
    sub_spectra = property(lambda self: self._sub.spectra)
    quotient_spectra = property(lambda self: self._quotient.spectra)

    basis_change = property(
        lambda self: np.hstack([self._basis, _complement(self._basis)]))


@dataclass(frozen=True)
class CompositionData:
    """Invariant-subspace structure of a representation.

    ``kind`` is one of irreducible / sub1 / sub2 / both / decomposable.
    For decomposable reps ``components`` holds the direct summands and
    ``component_spectra`` their spectra, which partition the rep's.
    ``sequences`` lists every short exact sequence found,
    (n-1)-dimensional subs first.  All are built when first read.
    """

    kind: str
    sigma: Optional[complex] = None
    non_isolated: bool = False
    # the pairs of parts the case tables read: a decomposable rep's two
    # summands, or else the sub and quotient of each sequence
    _parts: Callable[[], tuple[tuple[_Part, _Part], ...]] = field(
        default=tuple, repr=False, compare=False)
    _sequences: Callable[[], tuple[Sequence, ...]] = field(
        default=tuple, repr=False, compare=False)

    sequences = cached_property(lambda self: self._sequences())
    components = property(
        lambda self: tuple(part.rep for part in self._summands()))
    component_spectra = property(
        lambda self: tuple(part.spectra for part in self._summands()))

    def _summands(self) -> tuple[_Part, ...]:
        return self._parts()[0] if self.kind == "decomposable" else ()


def _sigma_certificate(rep: MonodromyRep, spectra: LocalSpectra,
                       tol: Tolerances) -> tuple[complex, float]:
    """Dim-2 irreducibility certificate.

    sigma = tr(M0 M1) - (l0*l1 + m0*m1) for a pairing of the eigenvalues;
    the rep is irreducible iff sigma != 0 for both pairings.  Returns the
    smaller-magnitude value and the bound ``tol.eps_sigma`` * scale that
    |sigma| must exceed to count as nonzero.
    """
    e0, e1 = ([ev.value for ev in spectrum for _ in range(ev.multiplicity)]
              for spectrum in spectra.poles[:2])
    trp = complex(np.trace(rep.m0 @ rep.m1))
    s_a = trp - (e0[0] * e1[0] + e0[1] * e1[1])
    s_b = trp - (e0[0] * e1[1] + e0[1] * e1[0])
    sigma = s_a if abs(s_a) <= abs(s_b) else s_b
    scale = max(1.0, max(abs(z) for z in e0) * max(abs(z) for z in e1))
    return sigma, tol.eps_sigma * scale


def _planar(rep: MonodromyRep, spectra: LocalSpectra, lines: list,
            tol: Tolerances, sequences: Callable = tuple) -> CompositionData:
    """The structure of the dim-2 ``rep`` with ``spectra`` whose invariant
    lines are ``lines``, in order, each given to ``_split`` as the pair of
    the character it splits off and whether it is the sub line.  A rep
    analysed on its own passes the builder of its public ``sequences``; a
    part of a dim-3 rep has none.

    The sigma certificate must agree that a line exists.  Two lines are
    complementary: the rep is the sum of the characters the second one
    splits it into; two lines of one pair make it scalar there.
    """
    sigma, bound = _sigma_certificate(rep, spectra, tol)
    if bool(lines) == (abs(sigma) > bound):
        line, sigma_reads, op = (("reducible", "irreducible", ">") if lines
                                 else ("irreducible", "reducible", "<="))
        raise InconsistentCertificate(
            f"the line search found {len(lines)} invariant line(s): {line}, "
            f"judged against eps_inv = {tol.eps_inv:.1e} relative; the sigma "
            f"certificate reads {sigma_reads}: |sigma| = {abs(sigma):.3e} "
            f"{op} eps_sigma*scale = {bound:.3e}")
    if not lines:
        return CompositionData(kind="irreducible", sigma=sigma)
    non_isolated = len({pair for pair, _ in lines}) < len(lines)
    if len(lines) > 1:
        summands = tuple(map(_Part, _split(spectra, lines[1][0], False, tol)))
        return CompositionData("decomposable", sigma, non_isolated,
                               lambda: (summands,), sequences)
    return CompositionData("sub1", sigma, non_isolated, lambda: (
        tuple(map(_Part, _split(spectra, *lines[0], tol))),), sequences)


def analyze(rep: MonodromyRep, tol: Tolerances = DEFAULT,
            spectra: Optional[LocalSpectra] = None) -> CompositionData:
    """Full invariant-subspace analysis.

    The line search, the plane search and the dim-2 sigma certificate all
    read their eigenvalues from ``spectra``, computed here when not given.
    A dim-3 rep's parts are read off one incidence matrix G = |W^T V| of
    the unit normals W of its planes and the unit vectors V of its lines.
    A nonzero entry is a direct sum.  The zeros in a plane's row are the
    lines in it, the invariant lines of that sub; the zeros in a line's
    column are the planes through it, the invariant lines of the quotient
    by it.  So no part is searched again.
    Sequences with an (n-1)-dimensional sub are listed first, matching the
    preference order used by the classifier; when several subspaces exist
    all induced sequences are surfaced so conclusions can be intersected.
    The spectra of every summand, sub and quotient are split off
    ``spectra`` by the pair of the subspace that found them.
    """
    n = rep.n
    if n == 1:
        return CompositionData(kind="irreducible")
    if spectra is None:
        spectra = local_spectra(rep, tol)

    lines = common_invariant_subspaces(rep, 1, tol, spectra)
    if n == 2:
        return _planar(
            rep, spectra, [(line.pair, True) for line in lines], tol,
            lambda: tuple(Sequence(1, *map(_Part, _split(
                spectra, line.pair, True, tol)), line.basis) for line in lines))
    planes = common_invariant_subspaces(rep, n - 1, tol, spectra)
    if not lines and not planes:
        return CompositionData(kind="irreducible")
    non_isolated = any(s.non_isolated for s in lines + planes)

    # a plane's normal w = b1 x b2, for its orthonormal basis, is the
    # transposed eigenvector that found it up to a phase, and
    # w^T v = det[b1, b2, v]
    normals = np.array([_cross(*plane.basis.T) for plane in planes])
    vectors = np.array([line.basis[:, 0] for line in lines])
    gaps = np.abs(normals.reshape(-1, n) @ vectors.reshape(-1, n).T)

    def dim2(share, basis, incidences, found, line_is_sub) -> _Part:
        # the dim-2 part with spectra ``share`` acts by the blocks B^H M B
        # on the orthonormal columns B of a plane, or of the orthogonal
        # complement of the line it is the quotient by
        block = MonodromyRep(*(basis.conj().T @ m @ basis
                               for m in (rep.m0, rep.m1)))
        lines_in = _incident(incidences, found, spectra, share, line_is_sub)
        return _Part(share, block, lambda: _planar(block, share, lines_in, tol))

    @cache
    def sequences() -> tuple[Sequence, ...]:
        out = []
        for i, plane in enumerate(planes):
            sub, quotient = _split(spectra, plane.pair, False, tol)
            out.append(Sequence(2, dim2(sub, plane.basis, gaps[i], lines, True),
                                _Part(quotient), plane.basis))
        for j, line in enumerate(lines):
            sub, quotient = _split(spectra, line.pair, True, tol)
            out.append(Sequence(1, _Part(sub), dim2(
                quotient, _complement(line.basis), gaps[:, j], planes, False),
                line.basis))
        return tuple(out)

    hits = np.argwhere(gaps > _GAP)
    if len(hits):
        # the first complementary pair, planes first: the line is the
        # character summand and the plane its complement
        i, j = hits[0]
        rest, char = _split(spectra, lines[j].pair, False, tol)
        summands = cache(lambda: (
            dim2(rest, planes[i].basis, gaps[i], lines, True), _Part(char)))
        return CompositionData("decomposable", None, non_isolated,
                               lambda: (summands(),), sequences)
    kind = "both" if planes and lines else "sub2" if planes else "sub1"
    return CompositionData(kind, None, non_isolated, lambda: tuple(
        (seq._sub, seq._quotient) for seq in sequences()), sequences)


def build_from_pslz(t_eigenvalues, s_matrix,
                    tol: Tolerances = DEFAULT,
                    label: Optional[str] = None) -> MonodromyRep:
    """Build a representation factoring through the projective modular group.

    The T-image is diag(t_eigenvalues) and the S-image is ``s_matrix``; the
    pair defines such a representation iff S^2 = (ST)^3 = I, checked as an
    exact matrix identity within ``tol.eps_recon`` (no projective slack).
    Returns the rep with m0 the S-image and m1 the T-image.
    """
    t = np.diag(np.asarray(t_eigenvalues, dtype=complex))
    s = as_matrix(s_matrix)
    if s.shape != t.shape:
        raise DimensionError("S image and T eigenvalue list disagree in size")
    eye = np.eye(s.shape[0])
    res_s2 = float(np.linalg.norm(s @ s - eye))
    st = s @ t
    res_st3 = float(np.linalg.norm(st @ st @ st - eye))
    scale = max(1.0, float(np.linalg.norm(s)) ** 2)
    if res_s2 > tol.eps_recon * scale or res_st3 > tol.eps_recon * scale**3:
        raise RelationViolated(res_s2, res_st3)
    return MonodromyRep(s, t, label=label)
