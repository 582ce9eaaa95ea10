"""The roots engine.

Computes the splitting type (the twist multiset) of the extended bundle of
a monodromy representation, dimension <= 3.  Where the classification
theorems determine the answer the result is a single multiset; where they
prove an either/or, the result is the candidate set -- ambiguity is
surfaced, never guessed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .chern import ChernData, chern_bound_check, chern_class
from .config import DEFAULT, Tolerances
from .errors import (DimensionError, EmptyIntersection, LogrootsError,
                     RootOutOfProvenRange)
from .rep import CompositionData, MonodromyRep, analyze


@dataclass(frozen=True, order=True)
class SplittingType:
    """A root multiset, stored sorted descending."""

    roots: tuple[int, ...]

    @staticmethod
    def of(values) -> "SplittingType":
        return SplittingType(tuple(sorted(values, reverse=True)))

    @property
    def dim(self) -> int:
        return len(self.roots)

    @property
    def total(self) -> int:
        return sum(self.roots)

    def __str__(self) -> str:
        return "(" + ",".join(str(r) for r in self.roots) + ")"


@dataclass(frozen=True)
class CohomologyDims:
    """h^0/h^1 of a direct sum of twists on the line."""

    h0: int
    h1: int

    @staticmethod
    def of_twist(d: int) -> "CohomologyDims":
        return CohomologyDims(h0=max(d + 1, 0), h1=max(-d - 1, 0))

    @staticmethod
    def of_twists(roots) -> "CohomologyDims":
        h0 = h1 = 0
        for d in roots:
            h0 += max(d + 1, 0)
            h1 += max(-d - 1, 0)
        return CohomologyDims(h0=h0, h1=h1)


@dataclass(frozen=True)
class SplittingResult:
    status: str  # "determined" | "candidates"
    options: tuple[SplittingType, ...]
    provenance: tuple[str, ...]
    minimal_weight_range: tuple[int, int]
    notes: tuple[str, ...] = ()
    chern: Optional[ChernData] = None
    composition_kind: Optional[str] = None
    # (sub, quotient) results of the first short exact sequence, when the
    # classification computed them on the way; dim-2 parts have not been
    # through chern_bound_check
    sequence_parts: tuple["SplittingResult", ...] = ()

    @property
    def determined(self) -> bool:
        return self.status == "determined"


def _result(options, provenance, notes=(), chern=None, kind=None,
            parts=()) -> SplittingResult:
    opts = tuple(sorted(set(options), reverse=True))
    if not opts:
        raise EmptyIntersection("no candidate splitting type survived")
    weights = [-max(o.roots) for o in opts]
    return SplittingResult(
        status="determined" if len(opts) == 1 else "candidates",
        options=opts,
        provenance=tuple(provenance),
        minimal_weight_range=(min(weights), max(weights)),
        notes=tuple(notes),
        chern=chern,
        composition_kind=kind,
        sequence_parts=parts,
    )


def character_root(chi: MonodromyRep, tol: Tolerances = DEFAULT,
                   exact: bool = False,
                   chern: Optional[ChernData] = None) -> int:
    """Root of a one-dimensional representation; always in {0, -1, -2}
    because three branch angles in [0, 1) sum to an integer."""
    if chi.n != 1:
        raise DimensionError("character_root needs a one-dimensional rep")
    c1 = (chern or chern_class(chi, tol, exact=exact)).c1
    if c1 not in (0, -1, -2):
        raise RootOutOfProvenRange(
            f"character root {c1} outside {{0,-1,-2}}; computation fault")
    return c1


def _character_result(chi: MonodromyRep, tol: Tolerances,
                      exact: bool) -> SplittingResult:
    chern = chern_class(chi, tol, exact=exact)
    root = character_root(chi, tol, exact, chern=chern)
    return _result([SplittingType.of((root,))], ["dim1.characterRoot"],
                   chern=chern, kind="irreducible")


def ext_splits(sub_roots: SplittingType, quotient_roots: SplittingType) -> bool:
    """Sufficient splitting test for 0 -> sub -> V -> quotient -> 0.

    True iff every quotient root exceeds every sub root by less than 2,
    which forces h^1(quotient^* (x) sub) = 0.
    """
    return all(xq - xs < 2 for xq in quotient_roots.roots
               for xs in sub_roots.roots)


# Exceptional (sub-side triple sorted ascending) -> candidate outcomes.
# The same table serves both sequence shapes.
_EXCEPTIONAL = {
    (-2, -2, 0): ((-2, -1, -1), (-2, -2, 0)),
    (-2, -1, 0): ((-2, -1, 0), (-1, -1, -1)),
    (-2, 0, 0): ((-2, 0, 0), (-1, -1, 0)),
}


def _check_window(options, low_exclusive: int, high: int, context: str):
    for opt in options:
        for r in opt.roots:
            if not (low_exclusive < r <= high):
                raise RootOutOfProvenRange(
                    f"{context}: root {r} outside ({low_exclusive}, {high}]")


def roots_dim2(rep: MonodromyRep, tol: Tolerances = DEFAULT,
               exact: bool = False,
               comp: Optional[CompositionData] = None,
               chern: Optional[ChernData] = None) -> SplittingResult:
    """Splitting type of a two-dimensional representation.

    Irreducible: the degree determines the roots up to the balanced/parity
    rule {ceil(z/2), floor(z/2)}.  Reducible: the character sequence splits
    unless (sub, quotient) = (-2, 0), which stays a two-candidate set.
    """
    if rep.n != 2:
        raise DimensionError("roots_dim2 needs a two-dimensional rep")
    comp = comp or analyze(rep, tol)
    chern = chern or chern_class(rep, tol, exact=exact)
    zeta = chern.c1
    notes = []
    sequence_parts = ()
    if comp.kind == "irreducible":
        roots = SplittingType.of((-((-zeta) // 2), zeta // 2))
        options = [roots]
        provenance = ["dim2.irreducible.balanced (derived)"]
        notes.append("irreducible dim-2 rule derived from the depth-2 "
                     "weight tree; flagged derived")
    elif comp.kind == "decomposable":
        parts = [character_root(c, tol, exact) for c in comp.components]
        options = [SplittingType.of(parts)]
        provenance = ["dim2.decomposable.directSum"]
    else:
        seq = comp.sequences[0]
        sequence_parts = (_character_result(seq.sub_rep, tol, exact),
                          _character_result(seq.quotient_rep, tol, exact))
        xs, xq = (part.options[0].roots[0] for part in sequence_parts)
        if xq - xs < 2:
            options = [SplittingType.of((xs, xq))]
            provenance = ["dim2.reducible.split"]
        else:
            options = [SplittingType.of((-2, 0)), SplittingType.of((-1, -1))]
            provenance = ["dim2.reducible.case(-2,0)"]
            notes.append("non-split range: the disambiguating criterion "
                         "needs extension-class data beyond monodromy-side "
                         "arithmetic and is not reproduced here")
    for opt in options:
        if opt.total != zeta:
            raise LogrootsError(
                f"sum rule violated: {opt} vs c1 = {zeta} (internal fault)")
    _check_window(options, -3, 0, "dim-2 root bound")
    return _result(options, provenance, notes, chern, comp.kind,
                   sequence_parts)


def roots_dim3_irreducible(rep: MonodromyRep, tol: Tolerances = DEFAULT,
                           exact: bool = False,
                           chern: Optional[ChernData] = None) -> SplittingResult:
    """Splitting type of an irreducible three-dimensional representation,
    determined by the degree z = c1 except for the balanced/unbalanced
    ambiguity when z is divisible by 3."""
    chern = chern or chern_class(rep, tol, exact=exact)
    z = chern.c1
    m = z % 3
    notes = []
    if m == 0:
        options = [SplittingType.of((z // 3,) * 3),
                   SplittingType.of((z // 3 + 1, z // 3, z // 3 - 1))]
        provenance = ["dim3.irreducible.mod0"]
        notes.append("degree divisible by 3: balanced vs one-step-spread "
                     "candidates; minimal weight -max(root), spread kappa in {0, 3}")
    elif m == 1:
        options = [SplittingType.of(((z + 2) // 3, (z - 1) // 3, (z - 1) // 3))]
        provenance = ["dim3.irreducible.mod1"]
        notes.append("kappa = 2")
    else:
        options = [SplittingType.of(((z + 1) // 3, (z + 1) // 3, (z - 2) // 3))]
        provenance = ["dim3.irreducible.mod2"]
        notes.append("kappa = 1")
    return _result(options, provenance, notes, chern, "irreducible")


def _sequence_options(seq, tol: Tolerances, exact: bool,
                      provenance: list[str]):
    """Candidate multisets implied by one short exact sequence, and the
    (sub, quotient) results they were derived from."""
    options: set[SplittingType] = set()
    if seq.sub_dim == 2:
        side = "sub2-sequence"
        two_sided = roots_dim2(seq.sub_rep, tol, exact)
        character = _character_result(seq.quotient_rep, tol, exact)
        parts = (two_sided, character)
    else:
        side = "sub1-sequence"
        two_sided = roots_dim2(seq.quotient_rep, tol, exact)
        character = _character_result(seq.sub_rep, tol, exact)
        parts = (character, two_sided)
    single = character.options[0].roots[0]
    for two in two_sided.options:
        lo, hi = min(two.roots), max(two.roots)
        if seq.sub_dim == 2:
            key = (lo, hi, single)
            splits = ext_splits(two, SplittingType.of((single,)))
        else:
            key = (single, lo, hi)
            splits = ext_splits(SplittingType.of((single,)), two)
        if key in _EXCEPTIONAL:
            for roots in _EXCEPTIONAL[key]:
                options.add(SplittingType.of(roots))
            provenance.append(f"dim3.{side}.exceptional{key}")
        else:
            if not splits:
                raise LogrootsError(
                    f"triple {key} is non-exceptional but fails the split "
                    "test (internal fault)")
            options.add(SplittingType.of((lo, hi, single)))
            provenance.append(f"dim3.{side}.split")
    return options, parts


def roots_dim3_reducible(rep: MonodromyRep,
                         comp: Optional[CompositionData] = None,
                         tol: Tolerances = DEFAULT,
                         exact: bool = False,
                         chern: Optional[ChernData] = None) -> SplittingResult:
    """Splitting type of a reducible three-dimensional representation.

    Decomposable reps reduce to the direct sum of their components (the
    extension is exact in the representation).  Otherwise every short exact
    sequence found contributes a candidate set via the four-case tables and
    the sets are intersected.
    """
    comp = comp or analyze(rep, tol)
    if comp.kind == "irreducible":
        raise DimensionError("rep is irreducible; use roots_dim3_irreducible")
    chern = chern or chern_class(rep, tol, exact=exact)
    notes = []
    provenance: list[str] = []
    sequence_parts = ()

    if comp.kind == "decomposable":
        partial: list[set[SplittingType]] = []
        for part in comp.components:
            res = classify(part, tol, exact=exact)
            partial.append(set(res.options))
            if not res.determined:
                notes.extend(res.notes)
        options = set()
        for a in partial[0]:
            for b in partial[1]:
                options.add(SplittingType.of(a.roots + b.roots))
        provenance.append("dim3.decomposable.directSum")
    else:
        per_sequence = []
        for seq in comp.sequences:
            seq_options, seq_parts = _sequence_options(seq, tol, exact,
                                                       provenance)
            per_sequence.append(seq_options)
            sequence_parts = sequence_parts or seq_parts
        options = set.intersection(*per_sequence)
        if not options:
            raise EmptyIntersection(
                "short-exact-sequence candidate sets do not intersect "
                "(internal fault: both routes are proven sound)")
        if len(per_sequence) > 1:
            provenance.append("dim3.sequence-intersection")

    for opt in options:
        if opt.total != chern.c1:
            raise LogrootsError(
                f"sum rule violated: {opt} vs c1 = {chern.c1} (internal fault)")
    _check_window(options, -3, 0, "reducible dim-3 root bound")
    if SplittingType.of((0, -1, -3)) in options:
        raise RootOutOfProvenRange(
            "excluded multiset (0,-1,-3) produced for a reducible dim-3 rep")
    return _result(options, provenance, notes, chern, comp.kind,
                   sequence_parts)


def candidate_tree(m: int, d: int, c1: Optional[int] = None):
    """Root multisets reachable by the depth-d weight tree for m punctures.

    Level 1 is the maximal root (minus the minimal weight); each subsequent
    level may drop by at most m - 2.  Without ``c1`` the multisets are
    returned as offsets from the maximal root (tuples, descending).  With
    ``c1`` the offset patterns are solved for the concrete integer roots and
    filtered to those summing to c1.  For m > 3 this generator is
    conjectural and drives no classification.
    """
    if m < 2:
        raise DimensionError("m >= 2 required")
    if d < 1:
        raise DimensionError("d >= 1 required")
    span = m - 2
    patterns: set[tuple[int, ...]] = set()

    def extend(path):
        if len(path) == d:
            patterns.add(tuple(sorted(path, reverse=True)))
            return
        for step in range(span + 1):
            extend(path + (path[-1] - step,))

    extend((0,))
    offsets = sorted(patterns, reverse=True)
    if c1 is None:
        return offsets
    out = []
    for off in offsets:
        rem = c1 - sum(off)
        if rem % d == 0:
            x = rem // d
            out.append(SplittingType.of(o + x for o in off))
    return sorted(set(out), reverse=True)


def classify(rep: MonodromyRep, tol: Tolerances = DEFAULT,
             exact: bool = False,
             comp: Optional[CompositionData] = None) -> SplittingResult:
    """Dispatch: character / dim-2 / dim-3 (reducible or irreducible).

    ``comp`` is the caller's ``analyze(rep, tol)``, if it has one.
    Verifies the sum rule and every proven bound before returning.
    """
    if rep.n == 1:
        return _character_result(rep, tol, exact)
    chern = chern_class(rep, tol, exact=exact)
    comp = comp or analyze(rep, tol)
    if rep.n == 2:
        result = roots_dim2(rep, tol, exact, comp=comp, chern=chern)
    elif comp.kind == "irreducible":
        result = roots_dim3_irreducible(rep, tol, exact, chern=chern)
    else:
        result = roots_dim3_reducible(rep, comp, tol, exact, chern=chern)
    chern_bound_check(rep, chern, tol)
    return result
