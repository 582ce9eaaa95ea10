"""Complex dense linear algebra for matrices of dimension <= 3.

Eigenvalues come from LAPACK (``numpy.linalg.eigvals``); values within
``eps_cluster`` of each other are merged into one eigenvalue whose value is
the cluster mean.  Each eigenvalue carries branch data (r, q) with
value = r * exp(2*pi*i*q) and q in [0, 1), which is the branch convention
used throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (DimensionError, LogrootsError, NonFiniteMatrix,
                     SingularMatrix)

_TWO_PI = 2.0 * math.pi


def as_matrix(a) -> np.ndarray:
    """Validate and normalize input to a complex n x n array, n in {1,2,3}."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in (1, 2, 3):
        raise DimensionError(f"dimension {m.shape[0]} not in {{1, 2, 3}}")
    if not np.isfinite(m).all():
        raise NonFiniteMatrix("matrix entries must be finite")
    return m


def _det(a: np.ndarray) -> complex:
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    if n == 2:
        return complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    return complex(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def _check_invertible(a: np.ndarray, tol: Tolerances) -> None:
    if abs(_det(a)) <= tol.eps_sing:
        raise SingularMatrix(f"|det| = {abs(_det(a)):.3e} <= {tol.eps_sing}")


@dataclass(frozen=True)
class BranchedEigenvalue:
    """An eigenvalue with principal-branch data: value = r * e^(2*pi*i*q)."""

    value: complex
    r: float
    q: float
    multiplicity: int = 1
    exact_angle: Optional[Fraction] = None
    branch_sensitive: bool = False

    def log(self) -> complex:
        """Principal logarithm of the eigenvalue under the q in [0,1) branch."""
        return complex(math.log(self.r), _TWO_PI * self.q)

    def inverse(self) -> "BranchedEigenvalue":
        """Branch data of 1/value; q maps to (1 - q) mod 1 exactly."""
        if self.exact_angle is not None:
            p, s = self.exact_angle.numerator, self.exact_angle.denominator
            qx = Fraction(-p % s, s)
            q = float(qx)
        else:
            qx = None
            q = 0.0 if self.q == 0.0 else 1.0 - self.q
        return BranchedEigenvalue(
            value=1.0 / self.value,
            r=1.0 / self.r,
            q=q,
            multiplicity=self.multiplicity,
            exact_angle=qx,
            branch_sensitive=self.branch_sensitive,
        )


def _branch_data(value: complex, tol: Tolerances) -> tuple[float, float, bool]:
    r = abs(value)
    # math.atan2 equals cmath.phase bit for bit, but returns 0 where a
    # subnormal imaginary part makes cmath.phase raise OverflowError
    q = math.atan2(value.imag, value.real) / _TWO_PI
    if q < 0.0:
        q += 1.0
    sensitive = False
    # q discontinuously wraps at the positive real axis; snap and flag there
    if q < tol.eps_branch or q > 1.0 - tol.eps_branch:
        sensitive = q != 0.0
        q = 0.0
    return r, q, sensitive


def _branched(raw: list[complex], tol: Tolerances) -> list[BranchedEigenvalue]:
    """Merge the eigenvalues ``raw`` of one matrix into clusters and give
    each its branch data, sorted by (q, r)."""
    radius = max(abs(z) for z in raw)
    cut = tol.eps_cluster * radius
    clusters: list[list[complex]] = []
    for z in sorted(raw, key=lambda w: (w.real, w.imag)):
        for cl in clusters:
            if abs(z - cl[0]) <= cut:
                cl.append(z)
                break
        else:
            clusters.append([z])
    out = []
    for cl in clusters:
        # the sum of a cluster is the trace of A on its invariant subspace,
        # well-conditioned even where single members are not
        value = sum(cl) / len(cl)
        r, q, sensitive = _branch_data(value, tol)
        out.append(BranchedEigenvalue(value=value, r=r, q=q,
                                      multiplicity=len(cl),
                                      branch_sensitive=sensitive))
    out.sort(key=lambda ev: (ev.q, ev.r))
    return out


def eigenvalues(a, tol: Tolerances = DEFAULT) -> list[BranchedEigenvalue]:
    """Eigenvalues of an invertible matrix with principal-branch data.

    Values closer than ``tol.eps_cluster`` (relative to the spectral radius)
    are merged into a single entry with summed multiplicity; the Jordan
    structure downstream depends on this explicit decision.
    """
    a = as_matrix(a)
    _check_invertible(a, tol)
    if a.shape[0] == 1:
        raw = [complex(a[0, 0])]
    else:
        raw = np.linalg.eigvals(a).tolist()
    return _branched(raw, tol)


# numpy raises LinAlgError where LAPACK fails to converge or a change of
# basis comes out singular; a batch records it like a refusal of that rep
_REP_ERRORS = (LogrootsError, np.linalg.LinAlgError)


def _attempt(fn, *args):
    """``fn(*args)``, or the error it raised, for a caller that raises it
    in its own turn (``_value``): a refusal of the program's or of
    numpy's."""
    try:
        return fn(*args)
    except _REP_ERRORS as exc:
        return exc


def _value(outcome):
    """The value of an ``_attempt``, or the error it holds, raised now."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def eigenvalues_batch(mats, tol: Tolerances = DEFAULT) -> list:
    """``eigenvalues(m, tol)`` for each matrix of ``mats``, or the exception
    it raises, with one LAPACK call for all matrices of a dimension n > 1.

    Each matrix gets its own invertibility check, and its eigenvalues are
    merged and branched as ``eigenvalues`` does; 1x1 matrices are read
    directly.  Where the stacked call raises ``LinAlgError`` (or refuses
    a non-finite matrix), each matrix of the stack is solved on its own.
    """
    groups: dict[int, list[int]] = {}
    for i, m in enumerate(mats):
        groups.setdefault(m.shape[0], []).append(i)
    out: list = [None] * len(mats)
    for n, idx in groups.items():
        raws = None
        if n > 1:
            try:
                raws = np.linalg.eigvals(np.stack([mats[i] for i in idx]))
            except np.linalg.LinAlgError:
                pass
        for k, i in enumerate(idx):
            out[i] = _attempt(eigenvalues, mats[i], tol) if raws is None \
                else _attempt(_solved, mats[i], raws[k], tol)
    return out


def _solved(a: np.ndarray, raw: np.ndarray,
            tol: Tolerances) -> list[BranchedEigenvalue]:
    _check_invertible(a, tol)
    return _branched(raw.tolist(), tol)


def _rank(m: np.ndarray, tol: Tolerances, scale: float) -> int:
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > tol.eps_rank * max(scale, 1e-300)))


def _null_basis(m: np.ndarray, tol: Tolerances, scale: float) -> np.ndarray:
    """Orthonormal basis of the numerical null space, columns."""
    _, s, vh = np.linalg.svd(m)
    thr = tol.eps_rank * max(scale, 1e-300)
    small = np.concatenate([s, np.zeros(m.shape[1] - len(s))]) <= thr
    return vh.conj().T[:, small]


@dataclass(frozen=True)
class JordanDecomposition:
    """A = P J P^{-1} with J in Jordan form.

    ``blocks`` lists (eigenvalue, size) pairs in the order they appear in J:
    eigenvalues ordered by (q, r) lexicographically, larger blocks first.
    """

    P: np.ndarray
    J: np.ndarray
    blocks: tuple[tuple[BranchedEigenvalue, int], ...]

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return tuple(size for _, size in self.blocks)


def _shifted(a: np.ndarray, values) -> np.ndarray:
    """The stack of A - lambda I over ``values``."""
    return a - np.asarray(values)[:, None, None] * np.eye(a.shape[0])


def _simple_eigenvectors(shifted: np.ndarray, thr: float) -> np.ndarray:
    """Null vectors, as rows, of a stack of A - lambda I over simple
    eigenvalues, from one SVD of the stack: per matrix, the first right
    singular vector whose singular value is within ``thr`` (the
    ``tol.eps_rank`` share of A's scale), or else the least singular
    direction."""
    _, s, vh = np.linalg.svd(shifted)
    small = s <= thr
    pick = np.where(small.any(axis=1), small.argmax(axis=1), s.shape[1] - 1)
    return vh[np.arange(len(shifted)), pick].conj()


def _chains_for_eigenvalue(a: np.ndarray, ev: BranchedEigenvalue,
                           tol: Tolerances) -> list[list[np.ndarray]]:
    """Jordan chains for one repeated eigenvalue, largest block first.

    Each chain is returned base-first: [N^{k-1}v, ..., Nv, v].
    """
    n = a.shape[0]
    lam = ev.value
    m = ev.multiplicity
    nil = a - lam * np.eye(n)
    scale = max(np.linalg.norm(a), 1.0)
    g = n - _rank(nil, tol, scale)
    g = min(max(g, 1), m)
    if g == m:
        basis = _null_basis(nil, tol, scale)
        if basis.shape[1] < m:  # borderline rank call; take the smallest directions
            _, _, vh = np.linalg.svd(nil)
            basis = vh.conj().T[:, -m:]
        return [[basis[:, i]] for i in range(m)]
    if m == 2:
        # one block of size 2 inside ker(nil^2); maximize |nil v| within it
        ker2 = _null_basis(nil @ nil, tol, scale**2)
        if ker2.shape[1] < 2:
            _, _, vh = np.linalg.svd(nil @ nil)
            ker2 = vh.conj().T[:, -2:]
        _, _, wh = np.linalg.svd(nil @ ker2)
        v = ker2 @ wh.conj().T[:, 0]
        u = nil @ v
        return [[u / np.linalg.norm(u), v / np.linalg.norm(u)]]
    # m == 3
    if g == 1:
        # single block of size 3: v maximizing |nil^2 v|
        _, _, vh = np.linalg.svd(nil @ nil)
        v = vh.conj().T[:, 0]
        u1 = nil @ nil @ v
        nrm = np.linalg.norm(u1)
        return [[u1 / nrm, (nil @ v) / nrm, v / nrm]]
    # g == 2: blocks {2, 1}; here nil^2 = 0, so chain from the top direction of nil
    _, _, vh = np.linalg.svd(nil)
    v = vh.conj().T[:, 0]
    u = nil @ v
    nrm = np.linalg.norm(u)
    chain = [u / nrm, v / nrm]
    ker = _null_basis(nil, tol, scale)
    if ker.shape[1] == 0:
        _, _, vh2 = np.linalg.svd(nil)
        ker = vh2.conj().T[:, -2:]
    # pick the kernel direction most independent of the chain base
    proj = ker - np.outer(chain[0], chain[0].conj() @ ker)
    norms = np.linalg.norm(proj, axis=0)
    w = proj[:, int(np.argmax(norms))]
    return [chain, [w / np.linalg.norm(w)]]


def jordan_form(a, tol: Tolerances = DEFAULT,
                spectrum: Optional[Iterable[BranchedEigenvalue]] = None
                ) -> JordanDecomposition:
    """Jordan decomposition A = P J P^{-1} for invertible A, n <= 3.

    The eigenvalues are ``spectrum``, A's own (such as one pole of a rep's
    local spectra), or computed here when not given.  The eigenvectors of
    all simple eigenvalues come from one SVD of the stack of their
    (A - lambda I); a repeated eigenvalue takes its geometric multiplicity
    and chains from SVD ranks of (A - lambda I)^k.  ``principal_log``
    builds its logarithm on this basis.
    """
    a = as_matrix(a)
    if spectrum is None:
        spectrum = eigenvalues(a, tol)
    spectrum = sorted(spectrum, key=lambda ev: (ev.q, ev.r))
    simple = [ev.value for ev in spectrum if ev.multiplicity == 1]
    thr = tol.eps_rank * max(np.linalg.norm(a), 1.0)
    vecs = iter(_simple_eigenvectors(_shifted(a, simple), thr)
                if simple else ())
    cols = []
    blocks = []
    for ev in spectrum:
        if ev.multiplicity == 1:
            chains = [[next(vecs)]]
        else:
            chains = _chains_for_eigenvalue(a, ev, tol)
            chains.sort(key=len, reverse=True)
        for chain in chains:
            blocks.append((ev, len(chain)))
            cols.extend(chain)
    p = np.column_stack(cols)
    n = a.shape[0]
    j = np.zeros((n, n), dtype=complex)
    pos = 0
    for ev, size in blocks:
        for i in range(size):
            j[pos + i, pos + i] = ev.value
            if i + 1 < size:
                j[pos + i, pos + i + 1] = 1.0
        pos += size
    return JordanDecomposition(P=p, J=j, blocks=tuple(blocks))


@dataclass(frozen=True)
class PrincipalLog:
    """L = log(A) under the q in [0,1) branch, and its trace."""

    L: np.ndarray
    trace_of_log: complex


def _log_jordan_block(ev: BranchedEigenvalue, size: int) -> np.ndarray:
    # (ln r + 2 pi i q) I + log(I + N/lambda); the nilpotent series is finite
    lam = ev.value
    base = ev.log() * np.eye(size, dtype=complex)
    if size >= 2:
        nil = np.diag(np.ones(size - 1, dtype=complex), 1) / lam
        base += nil
        if size == 3:
            base -= 0.5 * (nil @ nil)
    return base


def principal_log(a, tol: Tolerances = DEFAULT) -> PrincipalLog:
    """Principal matrix logarithm: exp(L) = A with every eigenvalue of L
    having imaginary part in [0, 2*pi)."""
    a = as_matrix(a)
    jd = jordan_form(a, tol)
    n = a.shape[0]
    logj = np.zeros((n, n), dtype=complex)
    pos = 0
    for ev, size in jd.blocks:
        logj[pos:pos + size, pos:pos + size] = _log_jordan_block(ev, size)
        pos += size
    l = jd.P @ logj @ np.linalg.inv(jd.P)
    evs = dict.fromkeys(ev for ev, _ in jd.blocks)
    trace = sum(ev.log() * ev.multiplicity for ev in evs)
    return PrincipalLog(L=l, trace_of_log=trace)
