"""First Chern class of the extended bundle from monodromy data.

The degree is minus the sum of the residue traces over the three poles
(0, 1, infinity), and each residue is the principal logarithm of the local
monodromy, so the trace at a pole is sum(ln r + 2*pi*i*q) over that
matrix's spectrum.  The ln-r parts cancel across the poles (determinant
coherence) and the q parts sum to an integer, which is -c1.  In exact
mode each q is a certified angle p/s, and the sum is taken in integers
over the lcm of the denominators, so its integrality is one remainder
rather than a floating snap.  The spectra are the rep's one spectral
record (:func:`logroots.rep.local_spectra`);
a sub, quotient or summand reads its share of its parent's record, which
:func:`logroots.rep.analyze` split off, and a character's degree is
computed once per eigenvalue triple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NonIntegerChern, ProvenBoundViolated
from .linalg import BranchedEigenvalue
from .rep import POLES, LocalSpectra, MonodromyRep, local_spectra


@dataclass(frozen=True)
class PoleData:
    pole: str
    trace_of_log: complex
    q_sum: float
    exact_q_sum: Optional[Fraction] = None


@dataclass(frozen=True)
class ChernData:
    c1: int
    per_pole: tuple[PoleData, PoleData, PoleData]
    wrap_integers: tuple[int, ...]
    det_wrap: int
    raw_sum: float
    branch_sensitive: bool
    exact: bool = False


def _expand(spectrum) -> list[BranchedEigenvalue]:
    return [ev for ev in spectrum for _ in range(ev.multiplicity)]


def chern_class(rep: MonodromyRep, tol: Tolerances = DEFAULT,
                exact: bool = False,
                spectra: Optional[LocalSpectra] = None) -> ChernData:
    """First Chern class via the residue-trace formula.

    ``spectra`` is the rep's local spectra, computed here in the mode
    ``exact`` when not given; a given record's own mode decides.  Raises
    NonIntegerChern when the branch-angle sum misses every integer by
    more than ``tol.eps_int`` (floating mode) or is a genuine non-integer
    rational (exact mode).
    """
    if spectra is None:
        spectra = local_spectra(rep, tol, exact)
    exact = spectra.exact
    per_pole = []
    q_total = 0.0
    # exact mode: the angle sum as num / den over the lcm of all denominators
    num, den = 0, 1
    branch_sensitive = False
    for pole, spectrum in zip(POLES, spectra.poles):
        trace = sum(ev.log() * ev.multiplicity for ev in spectrum)
        exact_q = None
        if not exact:
            q_sum = float(sum(ev.q * ev.multiplicity for ev in spectrum))
        else:
            pole_den = math.lcm(*(ev.exact_angle.denominator
                                  for ev in spectrum))
            pole_num = sum(ev.exact_angle.numerator
                           * (pole_den // ev.exact_angle.denominator)
                           * ev.multiplicity for ev in spectrum)
            exact_q = Fraction(pole_num, pole_den)
            q_sum = pole_num / pole_den
            lcm = math.lcm(den, pole_den)
            num = num * (lcm // den) + pole_num * (lcm // pole_den)
            den = lcm
        per_pole.append(PoleData(pole=pole, trace_of_log=complex(trace),
                                 q_sum=q_sum, exact_q_sum=exact_q))
        q_total += q_sum
        branch_sensitive |= any(ev.branch_sensitive for ev in spectrum)

    raw = -q_total
    if exact:
        if num % den:
            raise NonIntegerChern(
                f"exact branch-angle sum {Fraction(num, den)} is not an "
                "integer")
        c1 = -(num // den)
    else:
        c1 = round(raw)
        if abs(raw - c1) > tol.eps_int:
            raise NonIntegerChern(
                f"branch-angle sum {q_total:.9f} is {abs(raw - c1):.2e} away "
                "from an integer; consider exact rational-angle input")

    # diagnostics: per-eigenvalue wraps at infinity (q + q_inv is 0 or 1) and
    # the determinant wrap between the finite poles and the product spectrum
    at_infinity = _expand(spectra.poles[2])
    prod_q = [1.0 - ev.q if ev.q > 0.0 else 0.0 for ev in at_infinity]
    wraps = tuple(1 if ev.q > 0.0 else 0 for ev in at_infinity)
    finite_q = sum(p.q_sum for p in per_pole[:2])
    det_wrap = round(finite_q - sum(prod_q))
    return ChernData(c1=c1, per_pole=tuple(per_pole), wrap_integers=wraps,
                     det_wrap=det_wrap, raw_sum=raw,
                     branch_sensitive=branch_sensitive, exact=exact)


def unitarity_test(rep: MonodromyRep, tol: Tolerances = DEFAULT) -> bool:
    """True iff both generator images are (literally) unitary."""
    eye = np.eye(rep.n)
    for m in (rep.m0, rep.m1):
        if np.linalg.norm(m.conj().T @ m - eye) >= tol.eps_recon:
            return False
    return True


def chern_bound_check(rep: MonodromyRep, data: ChernData, irreducible: bool,
                      tol: Tolerances = DEFAULT) -> None:
    """Enforce the dim-2 degree window on a rep of degree ``data.c1``.

    Raises ProvenBoundViolated unless 0 >= c1 >= -4, and, for an
    irreducible unitary rep, c1 < 0; ``irreducible`` is the caller's
    verdict from its invariant-subspace analysis.  The window is enforced
    on every dim-2 pair, unitary or not, although the residue formula
    admits c1 = -5 for n = 2 and non-unitary pairs with c1 = -5 exist;
    :func:`logroots.classify.classify` refuses those at its dim-2 root
    window before it calls this check.  No other dimension has a window
    here.
    """
    if rep.n != 2:
        return
    c1 = data.c1
    if not 0 >= c1 >= -4:
        raise ProvenBoundViolated(f"dim-2 degree bound failed: c1 = {c1}")
    if irreducible and c1 == 0 and unitarity_test(rep, tol):
        raise ProvenBoundViolated(
            f"strict bound for irreducible unitary dim-2 failed: c1 = {c1}")
