"""Stable JSON interchange: input parsing, schema validation, and output
document construction for batch classification."""

from __future__ import annotations

import cmath
import functools
import json
from fractions import Fraction
from importlib import resources
from typing import Optional

import jsonschema
import numpy as np

from .chern import ChernData, chern_bound_check, chern_class
from .classify import SplittingResult, classify
from .config import DEFAULT, Tolerances
from .errors import LogrootsError, SchemaError
from .linalg import jordan_form
from .rep import MonodromyRep, analyze

VERSION = "1"


def _load_schema(name: str) -> dict:
    text = resources.files("logroots").joinpath(f"schema/{name}").read_text()
    return json.loads(text)


def input_schema() -> dict:
    return _load_schema("input.schema.json")


def output_schema() -> dict:
    return _load_schema("output.schema.json")


@functools.cache
def _validator(name: str):
    """One validator per schema file, its schema checked against the
    metaschema once per process."""
    schema = _load_schema(name)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _first_error(doc: dict, name: str):
    """The error jsonschema.validate would raise for ``doc``, or None."""
    return jsonschema.exceptions.best_match(_validator(name).iter_errors(doc))


def _parse_entry(entry) -> complex:
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise SchemaError(f"numeric entry must be [re, im], got {entry!r}")
        return complex(float(entry[0]), float(entry[1]))
    if isinstance(entry, dict):
        frac = Fraction(entry["angle"])
        modulus = float(entry.get("modulus", 1.0))
        return modulus * cmath.exp(2j * cmath.pi * float(frac % 1))
    raise SchemaError(f"unrecognized matrix entry {entry!r}")


def _parse_matrix(rows, n: int) -> np.ndarray:
    m = np.array([[_parse_entry(e) for e in row] for row in rows])
    if m.shape != (n, n):
        raise SchemaError(f"matrix shape {m.shape} does not match n = {n}")
    return m


def parse_input_document(doc: dict) -> list[MonodromyRep]:
    """Validate an input document against the schema and build the reps."""
    error = _first_error(doc, "input.schema.json")
    if error is not None:
        raise SchemaError(f"input document invalid: {error.message}") from error
    reps = []
    for item in doc["reps"]:
        n = item["n"]
        reps.append(MonodromyRep(
            _parse_matrix(item["m0"], n),
            _parse_matrix(item["m1"], n),
            label=item.get("label"),
        ))
    return reps


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
    splitting result, and quality flags."""
    comp = analyze(rep, tol)
    result = classify(rep, tol, exact=exact, comp=comp)
    record = {
        "label": rep.label,
        "n": rep.n,
        "chern": chern_to_json(result.chern),
        "composition": {"kind": comp.kind},
        "result": result_to_json(result),
        "flags": {
            "branch_sensitive": result.chern.branch_sensitive,
            "low_confidence": _low_confidence(rep, tol),
            "non_isolated": comp.non_isolated,
            "conjectural_notes": [n for n in result.notes if "conjectur" in n],
        },
    }
    if comp.kind not in ("irreducible",) and comp.sequences:
        seq = comp.sequences[0]
        sub, quotient = _sequence_parts(seq, result, tol, exact)
        record["composition"]["sequence"] = {
            "sub_dim": seq.sub_dim,
            "sub_roots": [list(o.roots) for o in sub.options],
            "quotient_roots": [list(o.roots) for o in quotient.options],
        }
    return record


def _sequence_parts(seq, result: SplittingResult, tol: Tolerances,
                    exact: bool) -> tuple[SplittingResult, SplittingResult]:
    """Classifications of the first sequence's sub and quotient: the ones
    ``classify`` already made, completed by the bound check that classify
    runs on a dim-2 rep, or else made here."""
    if not result.sequence_parts:
        return (classify(seq.sub_rep, tol, exact=exact),
                classify(seq.quotient_rep, tol, exact=exact))
    for part_rep, part in zip((seq.sub_rep, seq.quotient_rep),
                              result.sequence_parts):
        if part_rep.n > 1:
            chern_bound_check(part_rep, part.chern, tol)
    return result.sequence_parts


def _low_confidence(rep: MonodromyRep, tol: Tolerances) -> bool:
    return any(jordan_form(m, tol).low_confidence
               for m in (rep.m0, rep.m1, rep.m_infinity))


# numpy raises LinAlgError where LAPACK fails to converge or a change of
# basis comes out singular; a batch records it like a refusal of that rep
_REP_ERRORS = (LogrootsError, np.linalg.LinAlgError)


def classify_document(reps: list[MonodromyRep], tol: Tolerances = DEFAULT,
                      exact: bool = False, keep_going: bool = False) -> dict:
    """Batch-classify; with keep_going, failures become per-rep error
    objects instead of aborting the batch."""
    results = []
    for rep in reps:
        try:
            results.append(classify_rep_to_json(rep, tol, exact=exact))
        except _REP_ERRORS as exc:
            if not keep_going:
                raise
            results.append({
                "label": rep.label,
                "n": rep.n,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
    doc = {"version": VERSION, "results": results}
    error = _first_error(doc, "output.schema.json")
    if error is not None:
        raise error
    return doc


def chern_document(reps: list[MonodromyRep], tol: Tolerances = DEFAULT,
                   exact: bool = False, keep_going: bool = False) -> dict:
    results = []
    for rep in reps:
        try:
            results.append({
                "label": rep.label,
                "n": rep.n,
                "chern": chern_to_json(chern_class(rep, tol, exact=exact)),
            })
        except LogrootsError as exc:
            if not keep_going:
                raise
            results.append({
                "label": rep.label,
                "n": rep.n,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            })
    return {"version": VERSION, "results": results}
