"""JSON interchange: schema validation, entry parsing, document building."""

import json
from fractions import Fraction

import jsonschema
import numpy as np
import pytest

from logroots import DEFAULT, MonodromyRep, parse_input_document, preset
from logroots.errors import SchemaError
from logroots.io import (
    chern_document,
    classify_document,
    input_schema,
    load_input,
    output_schema,
    parse_input_document,
)

from conftest import angle, count_calls, minimal_doc, random_unitary


def eigvals_cluster_gap(rep, tol=DEFAULT):
    """The cluster_gap margin from numpy's eigenvalues of M0, M1 and M0*M1:
    the least distance between two eigenvalues of one matrix that are not
    within its eps_cluster radius, over its spectral radius, in units of
    eps_cluster; None where every pair is within it."""
    ratios = []
    for m in (rep.m0, rep.m1, rep.m0 @ rep.m1):
        z = np.linalg.eigvals(m)
        radius = np.abs(z).max()
        dist = np.abs(z[:, None] - z[None, :])
        apart = dist[dist > tol.eps_cluster * radius]
        if apart.size:
            ratios.append(apart.min() / radius)
    return min(ratios) / tol.eps_cluster if ratios else None


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
        # one certified spectrum per local monodromy of the rep; its subs
        # and quotients take their shares of it
        calls = count_calls(monkeypatch, "exact", "rational_angles")
        reps = parse_input_document(preset("pslz-section5"))
        classify_document(reps, exact=True)
        # each call certifies the eigenvalues of one 3x3 matrix
        assert [sum(ev.multiplicity for ev in spectrum)
                for spectrum in calls] == [3] * 3

    def test_float_document_computes_three_spectra(self, monkeypatch):
        # each rep's M0, M1 and M0*M1 are solved once, in one LAPACK call
        # for all 3x3 matrices of the document; the cluster_gap margin and
        # the spectra of the parts read them
        eigvals = np.linalg.eigvals
        solved = []

        def spy(a):
            solved.append(np.array(a))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", spy)
        calls = count_calls(monkeypatch, "linalg", "eigenvalues")
        reps = parse_input_document(preset("pslz-section5")) * 2
        for rec in classify_document(reps)["results"]:
            assert rec["result"]["canonical"] == ["(0,-1,-2)"]
        assert calls == []
        (stack,) = [a for a in solved if a.shape[-2:] == (3, 3)]
        want = [m for rep in reps for m in (rep.m0, rep.m1, rep.m0 @ rep.m1)]
        assert len(stack) == len(want)
        for got, m in zip(stack, want):
            assert np.array_equal(got, m)
        # the parts solve nothing of their own
        assert len(solved) == 1

    def test_flags_present(self):
        reps = parse_input_document(preset("aux-character"))
        (rec,) = classify_document(reps)["results"]
        assert set(rec["flags"]) == {"branch_sensitive", "non_isolated",
                                     "conjectural_notes"}
        assert set(rec["margins"]) == {"cluster_gap"}

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

    @staticmethod
    def fail_on(monkeypatch, name: str, marked: list) -> None:
        """Make ``np.linalg.<name>`` raise LinAlgError on any input that
        holds one of the ``marked`` matrices, a stack or a single one."""
        real = getattr(np.linalg, name)

        def failing(a, *args, **kwargs):
            a = np.asarray(a)
            if any(a.shape[-2:] == m.shape
                   and np.any(np.all(a.reshape(-1, *m.shape) == m,
                                     axis=(1, 2))) for m in marked):
                raise np.linalg.LinAlgError("injected")
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, failing)

    def test_keep_going_records_linalg_error(self, monkeypatch):
        # a LinAlgError from one matrix of a multi-rep stack is recorded
        # for the rep that holds it alone, and the batch goes on; this
        # holds for the document's stacked spectra and for the stacked
        # pencils of one rep's invariant search
        from logroots import MonodromyRep, local_spectra
        from logroots.io import classify_rep_to_json
        from conftest import random_invertible
        rng = np.random.default_rng(7)
        reps = [MonodromyRep(random_invertible(rng, n),
                             random_invertible(rng, n), label=f"r{i}")
                for i, n in enumerate((3, 2, 3, 3, 2))]
        bad = reps[2]
        alone = [classify_rep_to_json(rep) for rep in reps]
        lam, mu = (pole[0].value for pole in local_spectra(bad).poles[:2])
        injections = [
            # the stacked eigvals of the 3x3 matrices holds bad's M1
            ("eigvals", [bad.m1]),
            # the SVD screening bad's pencils [M0 - lam I; M1 - mu I]
            ("svd", [np.concatenate([bad.m0 - lam * np.eye(3),
                                     bad.m1 - mu * np.eye(3)])]),
        ]
        for name, marked in injections:
            with monkeypatch.context() as patch:
                self.fail_on(patch, name, marked)
                with pytest.raises(np.linalg.LinAlgError):
                    classify_document(reps)
                doc = classify_document(reps, keep_going=True)
            jsonschema.validate(doc, output_schema())
            for rep, rec, lone in zip(reps, doc["results"], alone):
                if rep is bad:
                    assert rec == {"label": "r2", "n": 3, "error": {
                        "type": "LinAlgError", "message": "injected"}}, name
                else:
                    assert rec == lone, name

    @staticmethod
    def mixed_reps(exact: bool):
        """Reps of dims 1, 2 and 3: presets, a scalar triple, a rep with two
        eigenvalues ten cluster radii apart, random ones and a singular
        one."""
        from logroots import MonodromyRep
        from conftest import random_invertible
        rng = np.random.default_rng(11)
        w, z = angle(1 / 3), angle(1 / 5)
        reps = (parse_input_document(preset("pslz-section5"))
                + parse_input_document(preset("aux-character"))
                + [MonodromyRep(w * np.eye(3), z * np.eye(3), label="scalar"),
                   MonodromyRep(np.diag([1.0, 1e-13]), np.eye(2),
                                label="singular")])
        if not exact:
            reps.append(MonodromyRep(np.array([[1, 1e3], [0, 1 + 1e-6]]),
                                     np.array([[0, 1], [1, 0]]), label="ill"))
        # in exact mode these are refused as not rational-angle reps
        reps += [MonodromyRep(random_invertible(rng, n),
                              random_invertible(rng, n), label=f"r{i}")
                 for i, n in enumerate((1, 2, 3, 3, 2, 1, 3))]
        return reps

    @pytest.mark.parametrize("exact", [False, True])
    def test_document_records_equal_lone_records(self, exact):
        # the stacked pass changes no record: each equals the record of
        # its rep classified alone, errors included, and cluster_gap is
        # the closest pair of eigenvalues numpy finds at a pole
        reps = self.mixed_reps(exact)
        doc = classify_document(reps, exact=exact, keep_going=True)
        jsonschema.validate(doc, output_schema())
        near = errors = 0
        for rep, rec in zip(reps, doc["results"]):
            (lone,) = classify_document([rep], exact=exact,
                                        keep_going=True)["results"]
            assert rec == lone, rep.label
            if "error" in rec:
                errors += 1
                continue
            gap = rec["margins"]["cluster_gap"]
            want = eigvals_cluster_gap(rep)
            if want is None:
                assert gap is None, rep.label
            else:
                assert gap == pytest.approx(want, rel=1e-6), rep.label
                near += gap < 100
        assert doc["results"][0]["result"]["canonical"] == ["(0,-1,-2)"]
        assert doc["results"][3]["error"]["type"] == "SingularMatrix"
        assert near == (0 if exact else 1)
        assert errors == (8 if exact else 1)

    def test_rep_errors_keep_their_order(self, monkeypatch):
        # per rep: the spectra error, then the classify error; without
        # keep_going the first rep's is raised
        import logroots.io as lio
        from logroots import MonodromyRep
        from logroots.errors import NonIntegerChern, SingularMatrix
        pslz = parse_input_document(preset("pslz-section5"))[0]
        classify = lio.classify

        def refusing(rep, tol, spectra):
            if rep.label != "pslz":
                raise NonIntegerChern("refused")
            return classify(rep, tol, spectra=spectra)

        monkeypatch.setattr(lio, "classify", refusing)
        pslz = MonodromyRep(pslz.m0, pslz.m1, label="pslz")
        refused = MonodromyRep(pslz.m0, pslz.m1, label="refused")
        singular = MonodromyRep(np.diag([1.0, 1.0, 1e-13]), np.eye(3),
                                label="singular")
        reps = [pslz, refused, singular]
        results = classify_document(reps, keep_going=True)["results"]
        assert "error" not in results[0]
        assert [r["error"]["type"] for r in results[1:]] == [
            "NonIntegerChern", "SingularMatrix"]
        with pytest.raises(NonIntegerChern):
            classify_document(reps)
        with pytest.raises(SingularMatrix):
            classify_document(reps[::-1])

    def test_chern_document_records_linalg_error(self, monkeypatch):
        # chern_document records the same per-rep errors as classify_document
        import logroots.io as lio
        reps = parse_input_document(preset("aux-character")) \
            + parse_input_document(preset("pslz-section5"))
        chern_class = lio.chern_class

        def failing_for_dim3(rep, tol, exact=False, spectra=None):
            if rep.n == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return chern_class(rep, tol, exact=exact, spectra=spectra)

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


class TestClusterGap:
    """margins.cluster_gap, moved across eps_cluster = 1e-7 at one pole;
    the other two poles of M1 = [[0, 1], [1, 0]] sit at +-1."""

    SWAP = np.array([[0, 1], [1, 0]])

    @staticmethod
    def record(m0, m1, exact=False):
        (rec,) = classify_document([MonodromyRep(m0, m1)],
                                   exact=exact)["results"]
        jsonschema.validate({"version": "1", "results": [rec]},
                            output_schema())
        return rec

    def test_pair_two_radii_apart_reads_two(self):
        rec = self.record(np.diag([1, 1 + 2e-7]), self.SWAP)
        assert rec["margins"]["cluster_gap"] == pytest.approx(2, rel=1e-6)
        assert rec["result"]["canonical"] == ["(0,-1)"]

    def test_merged_pair_leaves_the_pole_without_one(self):
        # half a radius apart, the pair is one eigenvalue; the margin is
        # then that of M1 and M-infinity, each a pair 2 apart on radius 1
        from logroots import local_spectra
        from logroots.io import _cluster_gap
        rep = MonodromyRep(np.diag([1, 1 + 5e-8]), self.SWAP)
        spectra = local_spectra(rep)
        assert [ev.multiplicity for ev in spectra.poles[0]] == [2]
        assert _cluster_gap(spectra, DEFAULT) == pytest.approx(2e7, rel=1e-6)
        assert eigvals_cluster_gap(rep) == pytest.approx(2e7, rel=1e-6)

    def test_ill_conditioned_jordan_basis_reads_ten(self):
        # M0 = [[1, t], [0, 1 + g]] has eigenvectors (1, 0) and about
        # (1, g/t), so cond(P) is about 2t/g = 2e9; its relative eigenvalue
        # gap 1e-6 is ten times eps_cluster
        rec = self.record(np.array([[1, 1e3], [0, 1 + 1e-6]]), self.SWAP)
        assert rec["margins"]["cluster_gap"] == pytest.approx(10, rel=1e-5)
        assert rec["result"]["canonical"] == ["(0,-1)"]

    @pytest.mark.parametrize("exact", [False, True])
    def test_character_has_no_pair(self, exact):
        rec = self.record(np.array([[angle(1 / 3)]]),
                          np.array([[angle(1 / 4)]]), exact)
        assert rec["margins"] == {"cluster_gap": None}

    def test_exact_margin_is_the_certified_separation(self):
        # angles 1/5 and 1/4 at M0, and 7/10 and 3/4 at M0*M1: each pair
        # is 1/20 of a turn apart, |e(a) - e(b)| = 2 sin(pi/20); M1 = -1
        m0 = np.diag([angle(1 / 5), angle(1 / 4)])
        rec = self.record(m0, np.diag([angle(1 / 2), angle(1 / 2)]),
                          exact=True)
        want = 2 * np.sin(np.pi / 20) / DEFAULT.eps_cluster
        assert rec["margins"]["cluster_gap"] == pytest.approx(want, rel=1e-12)

    def test_zero_cluster_radius_gives_no_margin(self):
        (rec,) = classify_document(
            [MonodromyRep(np.diag([1, 1 + 2e-7]), self.SWAP)],
            DEFAULT.override(eps_cluster=0.0))["results"]
        assert rec["margins"] == {"cluster_gap": None}

    @staticmethod
    def defective_ensemble(n, count=400, seed=5):
        """M0 = P J P^-1 with J = J_2(1), or J_2(1) + e(0.3) at n = 3, P
        complex normal; M1 random unitary.  Each rep comes with its
        reference degree: numpy eigvals at M1 and M-infinity, and the
        planted angles at M0."""
        j = np.eye(n, dtype=complex)
        j[0, 1] = 1.0
        q0 = 0.0
        if n == 3:
            j[2, 2], q0 = angle(0.3), 0.3
        rng = np.random.default_rng(seed)
        reps, refs = [], []
        for _ in range(count):
            p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            m0, m1 = p @ j @ np.linalg.inv(p), random_unitary(rng, n)
            total = q0 + sum(np.angle(z) / (2 * np.pi) % 1.0
                             for m in (m1, np.linalg.inv(m0 @ m1))
                             for z in np.linalg.eigvals(m))
            assert abs(total - round(total)) < 1e-6
            reps.append(MonodromyRep(m0, m1))
            refs.append(-round(total))
        return reps, refs

    @pytest.mark.parametrize("n, wrong", [(2, 19), (3, 32)])
    def test_margin_flags_every_wrong_defective_degree(self, n, wrong):
        # a 2-block's eigenvalues split by about the square root of the
        # rounding error times cond(P); where they split past eps_cluster
        # the degree can move by one, and the margin reads below 10 there
        reps, refs = self.defective_ensemble(n)
        doc = classify_document(reps, keep_going=True)
        missed = []
        for i, (rec, ref) in enumerate(zip(doc["results"], refs)):
            assert "error" not in rec
            if rec["chern"]["c1"] != ref:
                missed.append(i)
                gap = rec["margins"]["cluster_gap"]
                assert gap is not None and gap < 10, (i, gap)
        # the ensemble does hold the defect the margin is there to show
        assert len(missed) == wrong


class TestMonodromyConvention:
    """Matrices act on column vectors, infinity maps to (M0 M1)^-1, a sub
    is spanned by common eigenvectors of (M0, M1), and transposing the
    pair swaps sub and quotient."""

    @pytest.mark.parametrize("exact", [False, True])
    def test_character_root_is_minus_the_angle_sum(self, exact):
        rng = np.random.default_rng(4400)
        for _ in range(30):
            q0, q1 = (Fraction(int(rng.integers(0, s)), int(s))
                      for s in rng.integers(1, 13, size=2))
            q_inf = (-(q0 + q1)) % 1  # the angle of (v0 v1)^-1
            doc = minimal_doc()
            doc["reps"][0]["m0"] = [[{"angle": str(q0)}]]
            doc["reps"][0]["m1"] = [[{"angle": str(q1)}]]
            (rec,) = classify_document(parse_input_document(doc),
                                       exact=exact)["results"]
            assert rec["result"]["options"] == [[-(q0 + q1 + q_inf)]]

    @pytest.mark.parametrize("exact", [False, True])
    def test_transpose_swaps_sub_and_quotient(self, exact):
        # e1 is the one common eigenvector of the upper triangular pair:
        # the sub has angles (.7, .8, .5) and root -2, the quotient
        # (.1, .1, .8) and root -1
        m0 = np.array([[angle(0.7), 0.3], [0, angle(0.1)]])
        m1 = np.array([[angle(0.8), 0.5], [0, angle(0.1)]])
        upper, lower = classify_document(
            [MonodromyRep(m0, m1), MonodromyRep(m0.T, m1.T)],
            exact=exact)["results"]
        for rec, sub, quotient in ((upper, -2, -1), (lower, -1, -2)):
            assert rec["composition"]["sequence"] == {
                "sub_dim": 1, "sub_roots": [[sub]],
                "quotient_roots": [[quotient]]}
            assert rec["result"]["options"] == [[-1, -2]]
