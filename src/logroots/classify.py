"""The roots engine.

Computes the splitting type (the twist multiset) of the extended bundle of
a monodromy representation, dimension <= 3.  Where the classification
theorems determine the answer the result is a single multiset; where they
prove an either/or, the result is the candidate set -- ambiguity is
surfaced, never guessed.

Each rep's local spectra are computed once (:func:`logroots.rep.local_spectra`)
and feed both its degree and its invariant-subspace analysis.  A reducible
rep is classified once, from one analysis (:func:`logroots.rep.analyze`):
its summands, or the subs and quotients of its short exact sequences, take
their spectra split off the rep's and their structure read off the same
incidence matrix of its lines and planes.  One function solves the rep
and each of its parts alike, degree and proven bounds included, and a
character's root is computed once per eigenvalue triple; the case tables
then read the parts' roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .chern import ChernData, chern_bound_check, chern_class
from .config import DEFAULT, Tolerances
from .errors import (DimensionError, EmptyIntersection, LogrootsError,
                     RootOutOfProvenRange)
from .rep import (CompositionData, LocalSpectra, MonodromyRep, analyze,
                  local_spectra)


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
class SplittingResult:
    status: str  # "determined" | "candidates"
    options: tuple[SplittingType, ...]
    provenance: tuple[str, ...]
    minimal_weight_range: tuple[int, int]
    notes: tuple[str, ...] = ()
    chern: Optional[ChernData] = None
    composition_kind: Optional[str] = None
    non_isolated: bool = False
    # a reducible rep's two summands, or else the sub and quotient of its
    # first short exact sequence, each as the tables read it
    parts: tuple["SplittingResult", ...] = ()

    @property
    def determined(self) -> bool:
        return self.status == "determined"


def character_root(chi: MonodromyRep, tol: Tolerances = DEFAULT,
                   exact: bool = False) -> int:
    """Root of a one-dimensional representation; always in {0, -1, -2}
    because three branch angles in [0, 1) sum to an integer."""
    if chi.n != 1:
        raise DimensionError("character_root needs a one-dimensional rep")
    return _solve(chi, local_spectra(chi, tol, exact),
                  lambda: CompositionData(kind="irreducible"), tol,
                  {}).options[0].roots[0]


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


# The case tables.  Each maps the degree z = c1, and for a reducible rep
# the results of its parts, to (options, provenance, notes).

def _roots_irreducible(n: int, z: int):
    """Roots of an irreducible rep of dimension n and degree z.

    A character's root is its degree.  Dimension 2: the balanced/parity
    rule {ceil(z/2), floor(z/2)}.  Dimension 3: determined by z except for
    the balanced/unbalanced ambiguity when z is divisible by 3.
    """
    if n == 1:
        if z not in (0, -1, -2):
            raise RootOutOfProvenRange(
                f"character root {z} outside {{0,-1,-2}}; computation fault")
        return [SplittingType.of((z,))], ["dim1.characterRoot"], []
    if n == 2:
        return ([SplittingType.of((-((-z) // 2), z // 2))],
                ["dim2.irreducible.balanced (derived)"],
                ["irreducible dim-2 rule derived from the depth-2 "
                 "weight tree; flagged derived"])
    m = z % 3
    if m == 0:
        return ([SplittingType.of((z // 3,) * 3),
                 SplittingType.of((z // 3 + 1, z // 3, z // 3 - 1))],
                ["dim3.irreducible.mod0"],
                ["degree divisible by 3: balanced vs one-step-spread "
                 "candidates; minimal weight -max(root), spread kappa in {0, 3}"])
    if m == 1:
        return ([SplittingType.of(((z + 2) // 3, (z - 1) // 3, (z - 1) // 3))],
                ["dim3.irreducible.mod1"], ["kappa = 2"])
    return ([SplittingType.of(((z + 1) // 3, (z + 1) // 3, (z - 2) // 3))],
            ["dim3.irreducible.mod2"], ["kappa = 1"])


def _roots_direct_sum(n: int, first: SplittingResult,
                      second: SplittingResult):
    """A decomposable rep: the extension is exact in the representation,
    so its roots are the union of its summands' roots."""
    options = {SplittingType.of(a.roots + b.roots)
               for a in first.options for b in second.options}
    notes = [note for part in (first, second) if not part.determined
             for note in part.notes]
    return options, [f"dim{n}.decomposable.directSum"], notes


def _roots_dim2_sequence(sub: SplittingResult, quotient: SplittingResult):
    """A reducible, indecomposable dim-2 rep: its character sequence splits
    unless (sub, quotient) = (-2, 0), which stays a two-candidate set."""
    xs, xq = (part.options[0].roots[0] for part in (sub, quotient))
    if xq - xs < 2:
        return [SplittingType.of((xs, xq))], ["dim2.reducible.split"], []
    return ([SplittingType.of((-2, 0)), SplittingType.of((-1, -1))],
            ["dim2.reducible.case(-2,0)"],
            ["non-split range: the disambiguating criterion "
             "needs extension-class data beyond monodromy-side "
             "arithmetic and is not reproduced here"])


def _roots_dim3_sequences(sequences):
    """A reducible, indecomposable dim-3 rep: every short exact sequence,
    given as its (sub, quotient) results, contributes a candidate set via
    the four-case tables, and the sets are intersected."""
    provenance: list[str] = []
    per_sequence = []
    for sub, quotient in sequences:
        sub2 = sub.options[0].dim == 2
        side = "sub2-sequence" if sub2 else "sub1-sequence"
        two_sided, character = (sub, quotient) if sub2 else (quotient, sub)
        single = character.options[0]
        (x,) = single.roots
        options: set[SplittingType] = set()
        for two in two_sided.options:
            lo, hi = min(two.roots), max(two.roots)
            if sub2:
                key = (lo, hi, x)
                splits = ext_splits(two, single)
            else:
                key = (x, lo, hi)
                splits = ext_splits(single, two)
            if key in _EXCEPTIONAL:
                for roots in _EXCEPTIONAL[key]:
                    options.add(SplittingType.of(roots))
                provenance.append(f"dim3.{side}.exceptional{key}")
            else:
                if not splits:
                    raise LogrootsError(
                        f"triple {key} is non-exceptional but fails the "
                        "split test (internal fault)")
                options.add(SplittingType.of((lo, hi, x)))
                provenance.append(f"dim3.{side}.split")
        per_sequence.append(options)
    options = set.intersection(*per_sequence)
    if not options:
        raise EmptyIntersection(
            "short-exact-sequence candidate sets do not intersect "
            "(internal fault: both routes are proven sound)")
    if len(per_sequence) > 1:
        provenance.append("dim3.sequence-intersection")
    return options, provenance, []


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
             spectra: Optional[LocalSpectra] = None) -> SplittingResult:
    """Splitting type of a representation of dimension <= 3.

    ``spectra`` is the rep's local spectra, computed here in the mode
    ``exact`` when not given; a given record's own mode decides.  It is
    the only spectral input of the degree and of the invariant-subspace
    analysis.  Every sub, quotient or summand the tables read is solved
    once, on the spectra the analysis split off this record for it and
    the structure it read off this rep's.
    Verifies the sum rule and every proven bound before returning.
    """
    if spectra is None:
        spectra = local_spectra(rep, tol, exact)
    return _solve(rep, spectra, lambda: analyze(rep, tol, spectra), tol, {})


def _solve(rep: MonodromyRep, spectra: LocalSpectra,
           structure: Callable[[], CompositionData], tol: Tolerances,
           characters: dict) -> SplittingResult:
    """The result of ``rep`` with ``spectra`` and the callable that builds
    its ``structure``: the rep classified, or one of its parts, whose own
    parts it solves in turn.  A character is solved once per eigenvalue
    triple: ``characters`` holds the results by spectra."""
    n = rep.n
    chern = chern_class(rep, tol, spectra=spectra)
    comp = structure()

    z = chern.c1
    # the results of a decomposable rep's two summands, or of the sub and
    # quotient of each short exact sequence
    splits = [tuple(_solve_part(p, tol, characters) for p in pair)
              for pair in comp._parts()]
    if comp.kind == "irreducible":
        options, provenance, notes = _roots_irreducible(n, z)
    elif comp.kind == "decomposable":
        options, provenance, notes = _roots_direct_sum(n, *splits[0])
    elif n == 2:
        # a dim-2 rep is read off its one sequence; a dim-3 rep
        # intersects the candidate sets of all of them
        options, provenance, notes = _roots_dim2_sequence(*splits[0])
    else:
        options, provenance, notes = _roots_dim3_sequences(splits)

    for opt in options:
        if opt.total != z:
            raise LogrootsError(
                f"sum rule violated: {opt} vs c1 = {z} (internal fault)")
    if n == 2:
        _check_window(options, -3, 0, "dim-2 root bound")
    elif n == 3 and comp.kind != "irreducible":
        _check_window(options, -3, 0, "reducible dim-3 root bound")
        if SplittingType.of((0, -1, -3)) in options:
            raise RootOutOfProvenRange(
                "excluded multiset (0,-1,-3) produced for a reducible "
                "dim-3 rep")
    chern_bound_check(rep, chern, comp.kind == "irreducible", tol)

    opts = tuple(sorted(set(options), reverse=True))
    weights = [-max(o.roots) for o in opts]
    result = SplittingResult(
        status="determined" if len(opts) == 1 else "candidates",
        options=opts,
        provenance=tuple(provenance),
        minimal_weight_range=(min(weights), max(weights)),
        notes=tuple(notes),
        chern=chern,
        composition_kind=comp.kind,
        non_isolated=comp.non_isolated,
        parts=splits[0] if splits else (),
    )
    if n == 1:
        characters[spectra] = result
    return result


def _solve_part(part, tol: Tolerances, characters: dict) -> SplittingResult:
    """The result of a sub, quotient or summand ``part`` of a rep; a
    character's is looked up in ``characters`` before its rep is built."""
    known = characters.get(part.spectra) if part.character else None
    return known or _solve(part.rep, part.spectra, part.structure, tol,
                           characters)
