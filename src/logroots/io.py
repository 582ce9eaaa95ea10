"""Stable JSON interchange: input parsing, which checks each document
against ``schema/input.schema.json`` in the same pass, and output document
construction for batch classification.  Each rep's record is built from
one ``classify`` result: its degree, composition, roots and the roots of
its first sequence's sub and quotient (or of its summands), which that
one call read off the rep's own spectra and analysis.

A document's spectra are computed first, for all its reps at once: the
local spectra of every M0, M1 and M0*M1 in one LAPACK call per dimension
(``rep.local_spectra_batch``), which exact mode certifies matrix by
matrix (``exact.rational_angles``).  The reps are then classified one by
one.  Each rep meets its own errors in the order a rep-by-rep run would,
and a one-rep document is the single-rep case: ``classify_rep_to_json``.
A record's ``margins`` are read off the same spectra, with no further
linear algebra: ``cluster_gap`` says how close the nearest two distinct
eigenvalues of a pole came to being merged by ``eps_cluster``.

The schema files are the published contract.  Input is checked here
without a schema library: the parser accepts and rejects exactly what
the input schema does (a differential test holds it to jsonschema), and
rejects in addition a few documents the schema admits but no
representation can be built from: a matrix whose shape does not match
``n``, an entry that is not finite or too large for a float, and an angle
with a zero denominator.  Output documents are built from typed results,
so they conform to the output schema by construction; tests validate
every record shape against it.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import re
from fractions import Fraction
from importlib import resources

import numpy as np

from .chern import ChernData, chern_class
from .classify import SplittingResult, classify
from .config import DEFAULT, Tolerances
from .errors import SchemaError
from .linalg import _REP_ERRORS, _value
from .rep import LocalSpectra, MonodromyRep, local_spectra_batch

VERSION = "1"

_DOC_KEYS = frozenset({"version", "reps"})
_REP_KEYS = frozenset({"label", "n", "m0", "m1"})
_ANGLE_KEYS = frozenset({"angle", "modulus"})
# the input schema's angle pattern, applied with re.search as JSON Schema does
_ANGLE_PATTERN = re.compile(r"^-?[0-9]+(/[0-9]+)?$")


def _load_schema(name: str) -> dict:
    text = resources.files("logroots").joinpath(f"schema/{name}").read_text()
    return json.loads(text)


def input_schema() -> dict:
    return _load_schema("input.schema.json")


def output_schema() -> dict:
    return _load_schema("output.schema.json")


def _invalid(path: str, message: str) -> SchemaError:
    return SchemaError(f"input document invalid: {path}: {message}")


def _check_object(obj, keys: frozenset, required: tuple, path: str) -> None:
    """An object with no keys but ``keys`` and all of ``required``."""
    if not isinstance(obj, dict):
        raise _invalid(path, f"a {type(obj).__name__} is not an object")
    if not obj.keys() <= keys:
        extra = sorted(map(repr, obj.keys() - keys))
        raise _invalid(path, f"unexpected properties {', '.join(extra)}")
    for key in required:
        if key not in obj:
            raise _invalid(path, f"{key!r} is a required property")


def _is_number(value) -> bool:
    # JSON Schema's number: bool is an int subclass but not a number
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_entry(entry, path: str, r: int, c: int) -> complex:
    """Entry ``[r][c]`` of the matrix at ``path``: ``[re, im]`` or
    ``{"angle": "p/s", "modulus": r}``."""
    try:
        if isinstance(entry, list):
            if len(entry) != 2 or not (_is_number(entry[0])
                                       and _is_number(entry[1])):
                raise _invalid(f"{path}[{r}][{c}]",
                               f"{entry!r} is not a pair of numbers [re, im]")
            value = complex(float(entry[0]), float(entry[1]))
        elif isinstance(entry, dict):
            _check_object(entry, _ANGLE_KEYS, ("angle",), f"{path}[{r}][{c}]")
            angle = entry["angle"]
            if not isinstance(angle, str) or not _ANGLE_PATTERN.search(angle):
                raise _invalid(f"{path}[{r}][{c}].angle",
                               f"{angle!r} is not a string p/s")
            modulus = entry.get("modulus", 1.0)
            # `<= 0`, not `not > 0`: the schema admits NaN, refused below
            if not _is_number(modulus) or modulus <= 0:
                raise _invalid(f"{path}[{r}][{c}].modulus",
                               f"{modulus!r} is not a number > 0")
            frac = Fraction(angle)
            value = float(modulus) * cmath.exp(2j * cmath.pi * float(frac % 1))
        else:
            raise _invalid(f"{path}[{r}][{c}]",
                           f"{entry!r} is neither [re, im] nor an angle record")
    # the schema admits these; no matrix entry can be built from them
    except ZeroDivisionError:
        raise _invalid(f"{path}[{r}][{c}].angle",
                       "angle has a zero denominator") from None
    except OverflowError:
        raise _invalid(f"{path}[{r}][{c}]",
                       "number too large for a float") from None
    if not cmath.isfinite(value):
        raise _invalid(f"{path}[{r}][{c}]", "matrix entries must be finite")
    return value


def _parse_matrix(rows, n: int, path: str) -> np.ndarray:
    # n is 1, 2 or 3, so an n x n shape is within the schema's 1 to 3 rows
    # of 1 to 3 entries; the schema alone would admit a ragged matrix
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(row, list) and len(row) == n for row in rows)):
        raise _invalid(path, f"matrix shape is not {n} x {n}")
    return np.array([[_parse_entry(entry, path, r, c)
                      for c, entry in enumerate(row)]
                     for r, row in enumerate(rows)], dtype=complex)


def _parse_rep(item, path: str) -> tuple[np.ndarray, np.ndarray, str | None]:
    _check_object(item, _REP_KEYS, ("n", "m0", "m1"), path)
    label = item.get("label")
    if "label" in item and not isinstance(label, str):
        raise _invalid(f"{path}.label", f"{label!r} is not a string")
    n = item["n"]
    # an integral float such as 2.0 is a JSON Schema integer
    if not _is_number(n) or n not in (1, 2, 3):
        raise _invalid(f"{path}.n", f"{n!r} is not one of [1, 2, 3]")
    n = int(n)
    return (_parse_matrix(item["m0"], n, f"{path}.m0"),
            _parse_matrix(item["m1"], n, f"{path}.m1"), label)


def parse_input_document(doc) -> list[MonodromyRep]:
    """Build the reps of an input document, checking it against the input
    schema in the same pass.  Raises ``SchemaError`` naming the JSON path
    of the first fault found."""
    _check_object(doc, _DOC_KEYS, ("version", "reps"), "$")
    if doc["version"] != VERSION:
        raise _invalid("$.version", f"{doc['version']!r} is not {VERSION!r}")
    reps = doc["reps"]
    if not isinstance(reps, list) or not reps:
        raise _invalid("$.reps", "reps is not a non-empty list")
    # the whole document is checked before any rep is built, so a schema
    # fault is reported as such even after a singular matrix
    parsed = [_parse_rep(item, f"$.reps[{i}]") for i, item in enumerate(reps)]
    return [MonodromyRep(m0, m1, label=label) for m0, m1, label in parsed]


def load_input(path: str) -> list[MonodromyRep]:
    with open(path) as fh:
        return parse_input_document(json.load(fh))


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def chern_to_json(data: ChernData) -> dict:
    return {
        "c1": data.c1,
        "raw_sum": data.raw_sum,
        "per_pole": [
            {
                "pole": p.pole,
                "trace_of_log": _complex_pair(p.trace_of_log),
                "q_sum": p.q_sum,
                **({"exact_q_sum": str(p.exact_q_sum)}
                   if p.exact_q_sum is not None else {}),
            }
            for p in data.per_pole
        ],
        "wrap_integers": list(data.wrap_integers),
        "det_wrap": data.det_wrap,
        "branch_sensitive": data.branch_sensitive,
        "exact": data.exact,
    }


def result_to_json(result: SplittingResult) -> dict:
    return {
        "status": result.status,
        "options": [list(o.roots) for o in result.options],
        "canonical": [str(o) for o in result.options],
        "provenance": list(result.provenance),
        "minimal_weight_range": list(result.minimal_weight_range),
        "notes": list(result.notes),
    }


def classify_rep_to_json(rep: MonodromyRep, tol: Tolerances = DEFAULT,
                         exact: bool = False) -> dict:
    """Full per-rep output record: degree data, composition structure,
    splitting result, quality flags and decision margins, all read from
    one record of the rep's local spectra.  The one-rep case of
    ``classify_document``."""
    (record,) = classify_document([rep], tol, exact)["results"]
    return record


def _classify_record(rep: MonodromyRep, spectra: LocalSpectra,
                     tol: Tolerances) -> dict:
    """The record of ``rep`` from its local spectra, as the document's
    stacked pass computed them."""
    result = classify(rep, tol, spectra=spectra)
    record = {
        "label": rep.label,
        "n": rep.n,
        "chern": chern_to_json(result.chern),
        "composition": {"kind": result.composition_kind},
        "result": result_to_json(result),
        "flags": {
            "branch_sensitive": result.chern.branch_sensitive,
            "non_isolated": result.non_isolated,
            "conjectural_notes": [n for n in result.notes if "conjectur" in n],
        },
        "margins": {"cluster_gap": _cluster_gap(spectra, tol)},
    }
    if result.parts:
        sub, quotient = result.parts
        record["composition"]["sequence"] = {
            "sub_dim": sub.options[0].dim,
            "sub_roots": [list(o.roots) for o in sub.options],
            "quotient_roots": [list(o.roots) for o in quotient.options],
        }
    return record


def _cluster_gap(spectra: LocalSpectra, tol: Tolerances):
    """How far the closest two distinct eigenvalues of a pole are from
    being merged into one, in units of ``tol.eps_cluster``; None where no
    pole has two distinct eigenvalues.

    At each pole, the smallest distance between two of its values over
    the pole's spectral radius is the quantity that ``linalg`` compares
    with ``eps_cluster`` when it merges a cluster; the least such ratio
    over the poles is divided by ``eps_cluster``.  The values at infinity
    are read back as those of M0*M1, the cluster means that were merged.
    In exact mode the values are the certified ones, so the margin is
    their separation.  A margin near 1 says a pair was barely kept apart:
    there the Jordan structure, and with it the degree, may be wrong
    (Golub & Wilkinson, SIAM Rev. 18 (1976) 578-619).  A zero
    ``eps_cluster`` merges nothing, so it gives no margin either.
    """
    m0, m1, m_inf = spectra.poles
    ratios = []
    for values in ([ev.value for ev in m0], [ev.value for ev in m1],
                   [1.0 / ev.value for ev in m_inf]):
        if len(values) > 1:
            gap = min(abs(a - b) for a, b in itertools.combinations(values, 2))
            ratios.append(gap / max(map(abs, values)))
    if not ratios or not tol.eps_cluster:
        return None
    margin = min(ratios) / tol.eps_cluster
    return margin if math.isfinite(margin) else None


def _document(reps: list[MonodromyRep], record, tol: Tolerances,
              exact: bool, keep_going: bool) -> dict:
    """The output document of ``record(rep, spectra)`` per rep, its local
    spectra taken in one stacked pass over all reps; with keep_going, a
    rep whose spectra or record fails becomes an error record instead of
    aborting the batch."""
    results = []
    for rep, spectra in zip(reps, local_spectra_batch(reps, tol, exact)):
        try:
            results.append(record(rep, _value(spectra)))
        except _REP_ERRORS as exc:
            if not keep_going:
                raise
            results.append({
                "label": rep.label,
                "n": rep.n,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
    return {"version": VERSION, "results": results}


def classify_document(reps: list[MonodromyRep], tol: Tolerances = DEFAULT,
                      exact: bool = False, keep_going: bool = False) -> dict:
    """Batch-classify; with keep_going, failures become per-rep error
    objects instead of aborting the batch.

    The local spectra of all reps come first, in one stacked pass.  Each
    rep is then classified on its own and meets its errors in the order
    a rep-by-rep run would: its spectra, then its classification."""
    return _document(reps, lambda rep, s: _classify_record(rep, s, tol),
                     tol, exact, keep_going)


def chern_document(reps: list[MonodromyRep], tol: Tolerances = DEFAULT,
                   exact: bool = False, keep_going: bool = False) -> dict:
    """Degree data per rep, from the same stacked pass over the local
    spectra and with the same error records as ``classify_document``."""
    return _document(reps, lambda rep, s: {
        "label": rep.label,
        "n": rep.n,
        "chern": chern_to_json(chern_class(rep, tol, spectra=s)),
    }, tol, exact, keep_going)
