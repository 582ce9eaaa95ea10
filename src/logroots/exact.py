"""Exact branch-angle certification for rational-angle, unit-modulus spectra.

Exact mode reads the same LAPACK eigenvalues as the float path and
certifies them: each eigenvalue must have modulus 1 and a branch angle
within a hundredth of the rational separation of a p/s with bounded
denominator, found among the angle's continued-fraction convergents.
When every local monodromy certifies, the degree is summed from the
certified numerators and denominators in integer arithmetic, so results
near the branch cut or near an integer boundary are decided exactly
instead of by a floating snap.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Optional

from .config import DEFAULT, Tolerances
from .errors import ExactModeError
from .linalg import _TWO_PI, BranchedEigenvalue


def rational_angles(spectrum, tol: Tolerances = DEFAULT
                    ) -> list[BranchedEigenvalue]:
    """The eigenvalues ``spectrum`` of one matrix, such as an entry of
    ``linalg.eigenvalues_batch``, with certified rational angles.

    Each eigenvalue's modulus must be within 1/(100 s^2) of 1, and its
    angle within as much of a rational p/s with s <= ``tol.max_denominator``;
    eigenvalues certified to the same angle merge.  Raises ExactModeError
    otherwise.
    """
    # The input is float64, so eigenvalues carry ~1e-15 * cond of
    # quantization error.  Unique rational identification only needs
    # 1/(2 s^2) separation, so certify to a hundredth of that.
    check = 1.0 / (100 * tol.max_denominator ** 2)
    merged: dict[tuple[int, int], int] = {}
    for ev in spectrum:
        r = abs(ev.value)
        if abs(r - 1.0) > check:
            raise ExactModeError(
                f"eigenvalue modulus {r:.12g} != 1; exact mode requires "
                "unit-modulus spectra")
        # the unsnapped angle: eps_branch must not decide a certificate
        q = math.atan2(ev.value.imag, ev.value.real) / _TWO_PI
        if q < 0.0:
            q += 1.0
        angle = _convergent(q, tol.max_denominator, check)
        if angle is None:
            raise ExactModeError(
                f"angle {q:.12g} is not a rational with "
                f"denominator <= {tol.max_denominator}")
        merged[angle] = merged.get(angle, 0) + ev.multiplicity
    return sorted((BranchedEigenvalue(value=cmath.exp(2j * cmath.pi * (p / s)),
                                      r=1.0, q=p / s, multiplicity=k,
                                      exact_angle=Fraction(p, s))
                   for (p, s), k in merged.items()),
                  key=lambda ev: ev.exact_angle)


def _convergent(q: float, max_denominator: int, check: float
                ) -> Optional[tuple[int, int]]:
    """The first continued-fraction convergent p/s of ``q`` in [0, 1]
    within ``check`` of it, as the lowest terms (p mod s, s), or None
    once s exceeds ``max_denominator``.

    Any p/s within 1/(2 s^2) of q is a convergent of q (Legendre), and
    ``check`` is below 1/(2 s^2) for every s <= ``max_denominator``; two
    such fractions differ by at least 1/max_denominator^2, so this is
    ``Fraction(q).limit_denominator(max_denominator) % 1`` where that one
    is within ``check`` of q or of q - 1, and None where it is not.
    """
    a, b = q.as_integer_ratio()
    p0, s0, p1, s1 = 0, 1, 1, 0
    while True:
        d, r = divmod(a, b)
        p0, s0, p1, s1 = p1, s1, d * p1 + p0, d * s1 + s0
        if s1 > max_denominator:
            return None
        if abs(q - p1 / s1) <= check:
            return p1 % s1, s1
        a, b = b, r
