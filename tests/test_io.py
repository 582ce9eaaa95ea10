"""JSON interchange: schema validation, entry parsing, document building."""

import json

import jsonschema
import numpy as np
import pytest

from logroots import parse_input_document, preset
from logroots.errors import SchemaError
from logroots.io import (
    chern_document,
    classify_document,
    input_schema,
    load_input,
    output_schema,
    parse_input_document,
)

from conftest import angle, count_calls, minimal_doc


class TestInputParsing:
    def test_minimal_document(self):
        (rep,) = parse_input_document(minimal_doc())
        assert rep.label == "t"
        assert rep.m0[0, 0] == pytest.approx(-1.0)
        assert rep.m1[0, 0] == pytest.approx(angle(0.5))

    def test_angle_entry_with_modulus(self):
        doc = minimal_doc()
        doc["reps"][0]["m1"] = [[{"angle": "1/4", "modulus": 2.0}]]
        (rep,) = parse_input_document(doc)
        assert rep.m1[0, 0] == pytest.approx(2j)

    def test_negative_angle_wraps(self):
        doc = minimal_doc()
        doc["reps"][0]["m1"] = [[{"angle": "-1/4"}]]
        (rep,) = parse_input_document(doc)
        assert rep.m1[0, 0] == pytest.approx(angle(0.75))

    def test_bad_version_rejected(self):
        with pytest.raises(SchemaError):
            parse_input_document(minimal_doc(version="2"))

    def test_missing_matrix_rejected(self):
        doc = minimal_doc()
        del doc["reps"][0]["m1"]
        with pytest.raises(SchemaError):
            parse_input_document(doc)

    def test_shape_mismatch_rejected(self):
        doc = minimal_doc()
        doc["reps"][0]["n"] = 2
        with pytest.raises(SchemaError):
            parse_input_document(doc)

    def test_malformed_angle_rejected(self):
        doc = minimal_doc()
        doc["reps"][0]["m1"] = [[{"angle": "0.5"}]]
        with pytest.raises(SchemaError):
            parse_input_document(doc)

    def test_error_names_json_path(self):
        doc = minimal_doc()
        doc["reps"][0]["m1"] = [[{"angle": "1/2", "modulus": 0}]]
        with pytest.raises(SchemaError, match=r"\$\.reps\[0\]\.m1\[0\]\[0\]"):
            parse_input_document(doc)

    # inputs the schema admits but no matrix can be built from
    def test_zero_denominator_angle_rejected(self):
        doc = minimal_doc()
        doc["reps"][0]["m1"] = [[{"angle": "1/0"}]]
        with pytest.raises(SchemaError, match="zero denominator"):
            parse_input_document(doc)

    def test_nan_entry_rejected(self):
        doc = json.loads(json.dumps(minimal_doc()).replace("-1.0", "NaN"))
        with pytest.raises(SchemaError, match="finite"):
            parse_input_document(doc)

    def test_infinite_entry_rejected(self):
        doc = json.loads(json.dumps(minimal_doc()).replace("-1.0", "1e400"))
        with pytest.raises(SchemaError, match="finite"):
            parse_input_document(doc)

    def test_integer_too_large_for_float_rejected(self):
        doc = minimal_doc()
        doc["reps"][0]["m0"] = [[[10 ** 400, 0]]]
        with pytest.raises(SchemaError, match="too large"):
            parse_input_document(doc)

    def test_ragged_matrix_rejected(self):
        doc = minimal_doc()
        doc["reps"][0].update(n=2, m0=[[[1.0, 0.0], [0.0, 0.0]],
                                       [[1.0, 0.0]]])
        with pytest.raises(SchemaError, match="shape"):
            parse_input_document(doc)

    def test_schema_fault_reported_after_singular_rep(self):
        singular = dict(minimal_doc()["reps"][0], m0=[[[0.0, 0.0]]])
        doc = minimal_doc(reps=[singular, {"n": 1}])
        with pytest.raises(SchemaError, match=r"reps\[1\]"):
            parse_input_document(doc)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(minimal_doc()))
        (rep,) = load_input(str(path))
        assert rep.n == 1

    def test_presets_are_schema_valid(self):
        for name in ("pslz-section5", "aux-character"):
            jsonschema.validate(preset(name), input_schema())

    def test_unknown_preset(self):
        with pytest.raises(SchemaError):
            preset("nope")


class TestOutputDocuments:
    def test_classify_document_validates(self):
        reps = parse_input_document(preset("pslz-section5"))
        doc = classify_document(reps)
        jsonschema.validate(doc, output_schema())
        (rec,) = doc["results"]
        assert rec["result"]["canonical"] == ["(0,-1,-2)"]
        assert rec["chern"]["c1"] == -3
        assert rec["composition"]["kind"] == "both"
        assert rec["composition"]["sequence"]["sub_roots"] == [[0, -2]]
        assert rec["composition"]["sequence"]["quotient_roots"] == [[-1]]

    def test_sequence_parts_keep_their_bound_check(self, monkeypatch):
        # the sub and quotient records are classify's own results for the
        # parts, and every part goes through the bound check, as the rep
        # does
        import importlib
        # the package's ``classify`` attribute is the function
        lclassify = importlib.import_module("logroots.classify")
        checked = []
        real = lclassify.chern_bound_check

        def spy(rep, data, irreducible, tol):
            checked.append((rep.n, data.c1))
            return real(rep, data, irreducible, tol)

        monkeypatch.setattr(lclassify, "chern_bound_check", spy)
        reps = parse_input_document(preset("pslz-section5"))
        (rec,) = classify_document(reps, exact=True)["results"]
        sequence = rec["composition"]["sequence"]
        assert (sequence["sub_dim"], sequence["sub_roots"]) == (2, [[0, -2]])
        assert (2, -2) in checked and (1, -1) in checked
        assert checked[-1] == (3, -3)

    def test_exact_document_certifies_three_spectra(self, monkeypatch):
        # one certified spectrum per local monodromy of the rep; its sub,
        # quotient and summand reps inherit theirs
        calls = count_calls(monkeypatch, "exact", "rational_angles")
        reps = parse_input_document(preset("pslz-section5"))
        classify_document(reps, exact=True)
        assert [np.shape(a) for a in calls] == [(3, 3)] * 3

    def test_float_document_computes_three_spectra(self, monkeypatch):
        # the record's spectra at 0, 1 and infinity are the only eigenvalue
        # computations; the Jordan bases behind low_confidence read them
        calls = count_calls(monkeypatch, "linalg", "eigenvalues")
        reps = parse_input_document(preset("pslz-section5"))
        (rec,) = classify_document(reps)["results"]
        assert rec["result"]["canonical"] == ["(0,-1,-2)"]
        assert [np.shape(a) for a in calls] == [(3, 3)] * 3

    def test_ill_conditioned_jordan_basis_is_low_confidence(self):
        # M0 = [[1, t], [0, 1 + g]] has eigenvectors (1, 0) and about
        # (1, g/t), so cond(P) is about 2t/g = 2e9, above cond_max = 1e8;
        # its relative eigenvalue gap 1e-6 is ten times eps_cluster
        from logroots import MonodromyRep
        rep = MonodromyRep(np.array([[1, 1e3], [0, 1 + 1e-6]]),
                           np.array([[0, 1], [1, 0]]), label="ill")
        (rec,) = classify_document([rep])["results"]
        jsonschema.validate({"version": "1", "results": [rec]},
                            output_schema())
        assert rec["flags"]["low_confidence"] is True
        assert rec["result"]["canonical"] == ["(0,-1)"]
        (well,) = classify_document(parse_input_document(
            preset("aux-character")))["results"]
        assert well["flags"]["low_confidence"] is False

    def test_flags_present(self):
        reps = parse_input_document(preset("aux-character"))
        (rec,) = classify_document(reps)["results"]
        assert set(rec["flags"]) >= {"branch_sensitive", "low_confidence",
                                     "non_isolated"}

    def test_keep_going_emits_error_records(self, rng):
        from logroots import MonodromyRep
        from conftest import random_invertible
        good = MonodromyRep(random_invertible(rng, 2),
                            random_invertible(rng, 2), label="good")
        # a rep whose classification fails: force a non-integer chern by
        # zeroing the snapping tolerance
        from logroots import DEFAULT
        tol = DEFAULT.override(eps_int=0.0)
        bad = None
        for _ in range(20):
            cand = MonodromyRep(random_invertible(rng, 2),
                                random_invertible(rng, 2), label="bad")
            try:
                classify_document([cand], tol)
            except Exception:
                bad = cand
                break
        assert bad is not None
        doc = classify_document([good, bad], tol, keep_going=True)
        kinds = [("error" in rec) for rec in doc["results"]]
        assert kinds == [False, True]
        assert doc["results"][1]["error"]["type"] == "NonIntegerChern"

    def test_keep_going_records_linalg_error(self, monkeypatch):
        # numpy's LinAlgError in one rep is recorded and the batch goes on
        import logroots.io as lio
        from logroots import MonodromyRep
        good = MonodromyRep(np.diag([1, -1]), np.array([[-1, 1], [0, 1]]),
                            label="good")
        bad = MonodromyRep(np.diag([1j, 1, -1]), np.diag([-1j, 1, -1]),
                           label="bad")
        jordan_form = lio.jordan_form

        def failing_for_dim3(m, tol, spectrum):
            if m.shape[0] == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return jordan_form(m, tol, spectrum)

        monkeypatch.setattr(lio, "jordan_form", failing_for_dim3)
        with pytest.raises(np.linalg.LinAlgError):
            classify_document([good, bad])
        doc = classify_document([good, bad], keep_going=True)
        jsonschema.validate(doc, output_schema())
        first, second = doc["results"]
        assert first["result"]["canonical"] == ["(-1,-1)"]
        assert second["error"]["type"] == "LinAlgError"

    def test_chern_document_records_linalg_error(self, monkeypatch):
        # chern_document records the same per-rep errors as classify_document
        import logroots.io as lio
        reps = parse_input_document(preset("aux-character")) \
            + parse_input_document(preset("pslz-section5"))
        chern_class = lio.chern_class

        def failing_for_dim3(rep, tol, exact=False):
            if rep.n == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return chern_class(rep, tol, exact=exact)

        monkeypatch.setattr(lio, "chern_class", failing_for_dim3)
        with pytest.raises(np.linalg.LinAlgError):
            chern_document(reps)
        first, second = chern_document(reps, keep_going=True)["results"]
        assert first["chern"]["c1"] == -1
        assert second["error"]["type"] == "LinAlgError"

    def test_chern_document(self):
        reps = parse_input_document(preset("aux-character"))
        doc = chern_document(reps)
        assert doc["results"][0]["chern"]["c1"] == -1
