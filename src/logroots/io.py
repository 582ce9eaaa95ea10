"""Stable JSON interchange: input parsing, which checks each document
against ``schema/input.schema.json`` in the same pass, and output document
construction for batch classification.  Each rep's record is built from
one ``classify`` result: its degree, composition, roots and the roots of
its first sequence's sub and quotient (or of its summands), which
``classify`` classified from spectra inherited from the rep's own.

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
import json
import re
from fractions import Fraction
from importlib import resources

import numpy as np

from .chern import ChernData, chern_class
from .classify import SplittingResult, classify
from .config import DEFAULT, Tolerances
from .errors import LogrootsError, SchemaError
from .linalg import jordan_form
from .rep import LocalSpectra, MonodromyRep, local_spectra

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
    splitting result, and quality flags, all read from one record of the
    rep's local spectra."""
    spectra = local_spectra(rep, tol, exact)
    result = classify(rep, tol, spectra=spectra)
    record = {
        "label": rep.label,
        "n": rep.n,
        "chern": chern_to_json(result.chern),
        "composition": {"kind": result.composition_kind},
        "result": result_to_json(result),
        "flags": {
            "branch_sensitive": result.chern.branch_sensitive,
            "low_confidence": _low_confidence(rep, spectra, tol),
            "non_isolated": result.non_isolated,
            "conjectural_notes": [n for n in result.notes if "conjectur" in n],
        },
    }
    if result.parts:
        sub, quotient = result.parts
        record["composition"]["sequence"] = {
            "sub_dim": sub.options[0].dim,
            "sub_roots": [list(o.roots) for o in sub.options],
            "quotient_roots": [list(o.roots) for o in quotient.options],
        }
    return record


def _low_confidence(rep: MonodromyRep, spectra: LocalSpectra,
                    tol: Tolerances) -> bool:
    """Whether a Jordan basis of M0, M1 or M-infinity, read against that
    pole's eigenvalues in ``spectra``, is worse conditioned than
    ``tol.cond_max``."""
    return any(jordan_form(m, tol, spectrum).low_confidence
               for m, spectrum in zip((rep.m0, rep.m1, rep.m_infinity),
                                      spectra.poles))


# numpy raises LinAlgError where LAPACK fails to converge or a change of
# basis comes out singular; a batch records it like a refusal of that rep
_REP_ERRORS = (LogrootsError, np.linalg.LinAlgError)


def _document(reps: list[MonodromyRep], record, keep_going: bool) -> dict:
    """The output document of ``record(rep)`` per rep; with keep_going, a
    rep that fails becomes an error record instead of aborting the batch."""
    results = []
    for rep in reps:
        try:
            results.append(record(rep))
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
    objects instead of aborting the batch."""
    return _document(
        reps, lambda rep: classify_rep_to_json(rep, tol, exact=exact),
        keep_going)


def chern_document(reps: list[MonodromyRep], tol: Tolerances = DEFAULT,
                   exact: bool = False, keep_going: bool = False) -> dict:
    """Degree data per rep, with the same error records as
    ``classify_document``."""
    return _document(reps, lambda rep: {
        "label": rep.label,
        "n": rep.n,
        "chern": chern_to_json(chern_class(rep, tol, exact=exact)),
    }, keep_going)
