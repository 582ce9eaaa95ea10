"""The schema files are the contract; jsonschema is the reference.

Input: ``parse_input_document`` checks documents without a schema library,
so it is compared with jsonschema on the bundled documents and on a seeded
corpus of one-field mutations of them.  Output: ``io`` builds its documents
without checking them at run time, so every record shape it emits is
validated here.
"""

import copy
import json
import math
import random

import jsonschema
import pytest

from logroots import DEFAULT, SampleSpec, preset, sample_reps
from logroots.errors import SchemaError, SingularMatrix
from logroots.io import (
    _ANGLE_PATTERN,
    chern_document,
    classify_document,
    input_schema,
    output_schema,
    parse_input_document,
)

from conftest import minimal_doc

INPUT = jsonschema.Draft202012Validator(input_schema())
OUTPUT = jsonschema.Draft202012Validator(output_schema())

# Rejections the parser adds to the schema's: documents the schema admits
# but no representation can be built from.
PARSE_LEVEL = ("matrix shape", "must be finite", "too large for a float",
               "zero denominator")

DIM2_DOC = {
    "version": "1",
    "reps": [
        {
            "label": "dim2",
            "n": 2,
            "m0": [[[0.5, -0.25], {"angle": "1/3", "modulus": 2}],
                   [[0, 1], {"angle": "-5/7"}]],
            "m1": [[{"angle": "2"}, [1, 0]], [[0.0, 0.0], [-1.5, 2.5]]],
        },
        {"n": 1.0, "m0": [[[2, 0]]], "m1": [[{"angle": "1/4\n"}]]},
    ],
}

BASES = [preset("pslz-section5"), preset("aux-character"), minimal_doc(),
         DIM2_DOC]

STRINGS = ["", "1", "x", "1/3", "-2/5", "1/0", "0/0", "1/2\n", " 1/2",
           "1.5", "3/-4", "--1", "1/", "٣", "label", "NaN"]
NUMBERS = [0, 1, 2, 3, 4, -1, 1.0, 2.0, 3.0, 0.5, -0.0, 1e-300,
           math.nan, math.inf, -math.inf, 10 ** 400]
KEYS = ["extra", "label", "n", "m0", "m1", "angle", "modulus", "version",
        "reps", ""]


def _nodes(doc) -> list:
    """(path, value) for every value in ``doc``; a path is a key tuple."""
    out = [((), doc)]
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        out += [((key, *path), value) for path, value in _nodes(child)]
    return out


BASE_NODES = [(doc, _nodes(doc)) for doc in BASES]


def _string(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(STRINGS)
    # near misses of the angle pattern as often as matches
    return (rng.choice(["", "-", "+", " "]) + str(rng.randint(0, 99))
            + rng.choice(["", "/", "/0", f"/{rng.randint(1, 99)}", ".5",
                          f"/{rng.randint(1, 9)}\n", "/-3", "x"]))


def _value(rng: random.Random):
    """A random replacement value: scalar, string, list or dict."""
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([True, False, None])
    if kind == 1:
        return rng.choice([rng.choice(NUMBERS), rng.uniform(-4, 4),
                           rng.randint(-9, 9)])
    if kind == 2:
        return _string(rng)
    if kind == 3:
        return rng.choice([[], [1.0], [rng.uniform(-2, 2), 0.0], [0, -2],
                           [1.0, 0.0, 0.0], [True, 0.0], ["1", 0],
                           [[1.0, 0.0]], [None, 1], [{"angle": "1/2"}],
                           [[[1.0, 0.0]]]])
    if kind == 4:
        return rng.choice([{}, {"angle": _string(rng)},
                           {"angle": "1/3", "x": 1}, {"angle": 1},
                           {"modulus": 2}, {"x": 1},
                           {"angle": "-1/6", "modulus": rng.uniform(-1, 3)}])
    # a value taken from elsewhere in a valid document
    return copy.deepcopy(rng.choice(rng.choice(BASE_NODES)[1])[1])


def _mutate(rng: random.Random):
    """A bundled document with one field replaced, deleted, added or
    appended to."""
    base, nodes = rng.choice(BASE_NODES)
    path, _ = rng.choice(nodes)
    doc = copy.deepcopy(base)
    if not path:
        parent, node = None, doc
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
    kind = rng.choice(["replace", "replace", "delete", "add", "append"])
    if kind == "delete" and not node:
        kind = "add"
    if kind in ("delete", "add") and not isinstance(node, dict):
        kind = "replace"
    if kind == "append" and not isinstance(node, list):
        kind = "replace"
    if kind == "replace":
        if parent is None:
            return _value(rng)
        parent[path[-1]] = _value(rng)
    elif kind == "delete":
        del node[rng.choice(list(node))]
    elif kind == "add":
        node[rng.choice(KEYS + [f"k{rng.randint(0, 99)}"])] = _value(rng)
    else:
        node.append(copy.deepcopy(rng.choice(node)) if node and rng.random()
                    < 0.5 else _value(rng))
    return doc


def _corpus(count: int, seed: int) -> list:
    """``count`` distinct one-field mutations."""
    rng = random.Random(seed)
    seen, docs = set(), []
    while len(docs) < count:
        doc = _mutate(rng)
        key = json.dumps(doc, sort_keys=True)
        if key not in seen:
            seen.add(key)
            docs.append(doc)
    return docs


def _parser_verdict(doc):
    """The parser's SchemaError message, or None when it accepts ``doc``.
    A singular matrix is accepted here: it is a computation error (exit 3),
    not a verdict on the schema."""
    try:
        parse_input_document(doc)
    except SchemaError as exc:
        return str(exc)
    except SingularMatrix:
        pass
    return None


def _check_agreement(doc):
    schema_ok = INPUT.is_valid(doc)
    verdict = _parser_verdict(doc)
    if not schema_ok:
        assert verdict is not None, f"parser accepted a schema-invalid {doc!r}"
    elif verdict is not None:
        assert any(reason in verdict for reason in PARSE_LEVEL), \
            f"parser rejected a schema-valid {doc!r}: {verdict}"
    return schema_ok, verdict


class TestInputAgreement:
    def test_angle_pattern_is_the_schema_pattern(self):
        entry = input_schema()["$defs"]["entry"]["oneOf"][1]
        assert _ANGLE_PATTERN.pattern == entry["properties"]["angle"]["pattern"]

    @pytest.mark.parametrize("doc", BASES, ids=["pslz-section5",
                                                "aux-character", "minimal",
                                                "dim2"])
    def test_bundled_documents(self, doc):
        assert INPUT.is_valid(doc)
        parse_input_document(doc)

    @pytest.mark.parametrize("doc", [
        minimal_doc(version=1), minimal_doc(reps=[]), minimal_doc(extra=1),
        {"reps": minimal_doc()["reps"]},
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0], n=True)]),
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0], label=None)]),
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0],
                                       m1=[[{"angle": "1/2", "modulus": 0}]])]),
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0],
                                       m1=[[[True, 0.0]]])]),
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0],
                                       m1=[[{"angle": "1/2", "z": 0}]])]),
    ])
    def test_schema_invalid_documents_rejected(self, doc):
        schema_ok, verdict = _check_agreement(doc)
        assert not schema_ok and verdict

    @pytest.mark.parametrize("doc", [
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0], n=1.0)]),
        dict(minimal_doc(), reps=[dict(minimal_doc()["reps"][0],
                                       m1=[[{"angle": "1/2\n"}]])]),
    ])
    def test_schema_edge_cases_accepted(self, doc):
        assert _check_agreement(doc) == (True, None)

    def test_mutation_corpus(self):
        docs = _corpus(10_000, seed=20261019)
        outcomes = [_check_agreement(doc) for doc in docs]
        valid = sum(ok for ok, _ in outcomes)
        parse_level = sum(ok and v is not None for ok, v in outcomes)
        # both verdicts are well represented
        assert 500 < valid < len(docs) - 500
        assert parse_level > 0


def _batch(dim: int, ensemble: str, seed: int, count: int = 12):
    spec = SampleSpec(count=count, dim=dim, ensemble=ensemble, seed=seed)
    return list(sample_reps(spec))


class TestOutputConformance:
    def test_float_determined_and_candidates(self, worked_example):
        reps = [worked_example] + _batch(3, "generic", seed=0)
        doc = classify_document(reps, keep_going=True)
        OUTPUT.validate(doc)
        statuses = {rec["result"]["status"] for rec in doc["results"]
                    if "result" in rec}
        assert statuses == {"determined", "candidates"}

    def test_exact_with_sequence(self, worked_example):
        doc = classify_document([worked_example], exact=True)
        OUTPUT.validate(doc)
        (rec,) = doc["results"]
        assert all("exact_q_sum" in p for p in rec["chern"]["per_pole"])
        assert "sequence" in rec["composition"]

    def test_keep_going_error_records(self):
        # with no slack for rounding, most float degrees are refused
        tol = DEFAULT.override(eps_int=0.0)
        reps = _batch(2, "generic", seed=4)
        for doc in (classify_document(reps, tol, keep_going=True),
                    chern_document(reps, tol, keep_going=True)):
            OUTPUT.validate(doc)
            assert any("error" in rec for rec in doc["results"])

    @pytest.mark.parametrize("ensemble", ["generic", "unitary",
                                          "rationalAngle",
                                          "blockUpperTriangular"])
    def test_oracle_batches(self, ensemble):
        for dim in ((3,) if ensemble == "blockUpperTriangular" else (1, 2, 3)):
            reps = _batch(dim, ensemble, seed=dim)
            OUTPUT.validate(classify_document(reps, keep_going=True))
            OUTPUT.validate(chern_document(reps, keep_going=True))

    def test_chern_document(self, worked_example):
        for exact in (False, True):
            OUTPUT.validate(chern_document([worked_example], exact=exact))

    @pytest.mark.parametrize("path, key", [
        ((), "low_confidence"),
        (("flags",), "low_confidence"),
        (("margins",), "cluster_gaps"),
    ])
    def test_records_are_closed(self, worked_example, path, key):
        # a stale or misspelled field is not a valid record
        doc = classify_document([worked_example])
        OUTPUT.validate(doc)
        obj = doc["results"][0]
        for name in path:
            obj = obj[name]
        obj[key] = False
        assert not OUTPUT.is_valid(doc)
