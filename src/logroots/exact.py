"""Exact branch-angle certification for rational-angle, unit-modulus spectra.

Exact mode reads the same LAPACK eigenvalues as the float path and
certifies them: each eigenvalue must have modulus 1 and a branch angle
within a hundredth of the rational separation of a p/s with bounded
denominator.  When every local monodromy certifies, downstream sums are
done in exact Fraction arithmetic, so results near the branch cut or near
an integer boundary are decided exactly instead of by a floating snap.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

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
    merged: dict[Fraction, int] = {}
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
        frac = Fraction(q).limit_denominator(tol.max_denominator) % 1
        if abs(q - frac) > check and abs(q - 1 - frac) > check:
            raise ExactModeError(
                f"angle {q:.12g} is not a rational with "
                f"denominator <= {tol.max_denominator}")
        merged[frac] = merged.get(frac, 0) + ev.multiplicity
    return [BranchedEigenvalue(value=cmath.exp(2j * cmath.pi * float(frac)),
                               r=1.0, q=float(frac), multiplicity=k,
                               exact_angle=frac)
            for frac, k in sorted(merged.items())]
