"""Complex dense linear algebra for matrices of dimension <= 3.

Eigenvalues come from LAPACK (``numpy.linalg.eigvals``); values within
``eps_cluster`` of each other are merged into one eigenvalue whose value is
the cluster mean.  Each eigenvalue carries branch data (r, q) with
value = r * exp(2*pi*i*q) and q in [0, 1), which is the branch convention
used throughout the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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


def _shifted(a: np.ndarray, values) -> np.ndarray:
    """The stack of A - lambda I over ``values``."""
    return a - np.asarray(values)[:, None, None] * np.eye(a.shape[0])


@dataclass(frozen=True)
class PrincipalLog:
    """L = log(A) under the q in [0,1) branch, and its trace."""

    L: np.ndarray
    trace_of_log: complex


def _log_slope(e1: BranchedEigenvalue, e2: BranchedEigenvalue) -> complex:
    """The divided difference f[l1, l2] of f = ``BranchedEigenvalue.log``,
    f'(l1) = 1/l1 where l1 = l2.

    For close points it takes log(l2/l1) = 2 atanh((l2 - l1)/(l2 + l1)),
    which cancels no digits, on the branches of e1 and e2: the two logs
    differ from it by 2 pi i k, k read off their angles q."""
    d = e2.value - e1.value
    if d == 0:
        return 1.0 / e1.value
    s = e2.value + e1.value
    if abs(d) >= 0.5 * abs(s):
        return (e2.log() - e1.log()) / d
    w = 2.0 * cmath.atanh(d / s)
    k = round(e2.q - e1.q - w.imag / _TWO_PI)
    return (w + 1j * _TWO_PI * k) / d


def principal_log(a, tol: Tolerances = DEFAULT) -> PrincipalLog:
    """Principal matrix logarithm: exp(L) = A with every eigenvalue of L
    having imaginary part in [0, 2*pi).

    L is the Hermite interpolating polynomial of the q-branch log f on
    A's spectrum, listed with multiplicity, in Newton form (Higham,
    *Functions of Matrices*, SIAM 2008, Ch. 1 and 11):
    L = f[l1] I + f[l1,l2] (A - l1 I) + f[l1,l2,l3] (A - l1 I)(A - l2 I).
    A repeated point takes f' = 1/l and f''/2 = -1/(2 l^2), so no Jordan
    basis is needed.  For n = 3, l1 and l3 are the pair farthest apart,
    whose distance the second divided difference divides by.
    """
    a = as_matrix(a)
    spectrum = eigenvalues(a, tol)
    pts = [ev for ev in spectrum for _ in range(ev.multiplicity)]
    n = len(pts)
    if n == 3:
        i, j = max(((0, 1), (0, 2), (1, 2)),
                   key=lambda p: abs(pts[p[1]].value - pts[p[0]].value))
        pts = [pts[i], pts[3 - i - j], pts[j]]
    eye = np.eye(n)
    l = pts[0].log() * eye
    if n > 1:
        shifted = a - pts[0].value * eye
        slope = _log_slope(pts[0], pts[1])
        l = l + slope * shifted
        if n == 3:
            l1, l2, l3 = (ev.value for ev in pts)
            curve = (-0.5 / l1 ** 2 if l3 == l1 else
                     (_log_slope(pts[1], pts[2]) - slope) / (l3 - l1))
            l = l + curve * (shifted @ (a - l2 * eye))
    trace = sum(ev.log() * ev.multiplicity for ev in spectrum)
    return PrincipalLog(L=l, trace_of_log=trace)
