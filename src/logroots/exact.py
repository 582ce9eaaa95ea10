"""Exact branch-angle arithmetic for rational-angle, unit-modulus spectra.

The branch angle q of every eigenvalue is recomputed in high-precision
arithmetic and matched against a rational p/s with bounded denominator.
When every local monodromy certifies, downstream sums are done in exact
Fraction arithmetic, so results near the branch cut or near an integer
boundary are decided exactly instead of by a floating snap.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import numpy as np

from .config import DEFAULT, Tolerances
from .errors import ExactModeError
from .linalg import BranchedEigenvalue, as_matrix, _check_invertible


def _roots_quadratic(b, c) -> list:
    # monic x^2 + b x + c, cancellation-free branch choice
    s = mpmath.sqrt(b * b - 4.0 * c)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    t = -0.5 * (b + s)
    if t == 0.0:
        return [0.0j, -b]
    return [t, c / t]


def _roots_cubic(a, b, c) -> list:
    # monic x^3 + a x^2 + b x + c via Cardano on the depressed cubic
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    if p == 0.0 and q == 0.0:
        return [shift, shift, shift]
    d = mpmath.sqrt((q / 2.0) ** 2 + (p / 3.0) ** 3)
    # pick the sign avoiding cancellation in -q/2 +/- d
    u3 = -q / 2.0 + d
    if abs(-q / 2.0 - d) > abs(u3):
        u3 = -q / 2.0 - d
    u = mpmath.cbrt(u3)
    v = -p / (3.0 * u) if u != 0.0 else 0.0j
    w = (mpmath.sqrt(-3) - 1) / 2  # primitive cube root of unity
    return [u + v + shift, u * w + v * w.conjugate() + shift,
            u * w.conjugate() + v * w + shift]


def _char_poly_roots(a: np.ndarray) -> list:
    """Roots of the characteristic polynomial of ``a`` as mpmath.mpc.

    The coefficients are built from the float64 entries at the working
    precision, where they are exact (a product of three 53-bit mantissas
    fits), and solved in closed form: the quadratic formula, or Cardano.
    """
    m = [[mpmath.mpc(z) for z in row] for row in a.tolist()]
    n = len(m)
    if n == 1:
        return [m[0][0]]
    tr = sum(m[i][i] for i in range(n))
    if n == 2:
        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        return _roots_quadratic(-tr, det)
    e2 = (m[0][0] * m[1][1] - m[0][1] * m[1][0]
          + m[0][0] * m[2][2] - m[0][2] * m[2][0]
          + m[1][1] * m[2][2] - m[1][2] * m[2][1])
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return _roots_cubic(-tr, e2, -det)


def rational_angles(a, tol: Tolerances = DEFAULT) -> list[BranchedEigenvalue]:
    """Eigenvalues of ``a`` with certified rational angles and modulus 1.

    Eigenvalues are the roots of the characteristic polynomial at
    ``tol.exact_dps`` decimal digits; each angle must match a rational with
    denominator <= ``tol.max_denominator`` and each modulus must be 1, both
    to within the working precision.  Raises ExactModeError otherwise, and
    SingularMatrix for a matrix singular within ``tol.eps_sing``.
    """
    a = as_matrix(a)
    _check_invertible(a, tol)
    with mpmath.workdps(tol.exact_dps):
        eigs = _char_poly_roots(a)
        # The input is float64, so eigenvalues carry ~1e-15 * cond of
        # quantization error no matter the working precision.  Unique
        # rational identification only needs 1/(2 s^2) separation, so
        # certify to a hundredth of that.
        check = mpmath.mpf(1) / (100 * tol.max_denominator ** 2)
        out = []
        for lam in eigs:
            r = mpmath.fabs(lam)
            if mpmath.fabs(r - 1) > check:
                raise ExactModeError(
                    f"eigenvalue modulus {mpmath.nstr(r, 8)} != 1; exact mode "
                    "requires unit-modulus spectra")
            q = mpmath.arg(lam) / (2 * mpmath.pi)
            if q < 0:
                q += 1
            frac = Fraction(float(q)).limit_denominator(tol.max_denominator) % 1
            if mpmath.fabs(q - mpmath.mpf(frac.numerator) / frac.denominator) > check \
                    and mpmath.fabs(q - 1 - mpmath.mpf(frac.numerator) / frac.denominator) > check:
                raise ExactModeError(
                    f"angle {mpmath.nstr(q, 12)} is not a rational with "
                    f"denominator <= {tol.max_denominator}")
            out.append(BranchedEigenvalue(
                value=complex(mpmath.e ** (2j * mpmath.pi * float(frac))),
                r=1.0, q=float(frac), multiplicity=1, exact_angle=frac))
    # merge exact duplicates
    merged: dict[Fraction, BranchedEigenvalue] = {}
    for ev in out:
        key = ev.exact_angle
        if key in merged:
            prev = merged[key]
            merged[key] = BranchedEigenvalue(
                value=prev.value, r=1.0, q=prev.q,
                multiplicity=prev.multiplicity + 1, exact_angle=key)
        else:
            merged[key] = ev
    return sorted(merged.values(), key=lambda ev: ev.exact_angle)
