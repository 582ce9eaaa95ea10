"""Sampling ensembles, randomized checks, and the direct-sum ground truth."""

import json
import re

import numpy as np
import pytest

from logroots import (
    DEFAULT,
    MonodromyRep,
    SampleSpec,
    SplittingType,
    classify,
    conjecture_scan,
    direct_sum_oracle,
    sample_and_check,
    sample_rep,
    sample_reps,
    unitarity_test,
)
from logroots.errors import AmbiguousPart
from logroots.oracle import CHECKS, ENSEMBLES, assemble_direct_sum

from conftest import angle, count_calls


class TestEnsembles:
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_produces_valid_reps(self, ensemble):
        dim = 3 if ensemble == "blockUpperTriangular" else 2
        spec = SampleSpec(count=20, dim=dim, ensemble=ensemble, seed=5)
        reps = list(sample_reps(spec))
        assert len(reps) == 20
        for rep in reps:
            assert rep.n == dim
            assert abs(np.linalg.det(rep.m0)) > 1e-12

    def test_unitary_ensemble_is_unitary(self):
        spec = SampleSpec(count=30, dim=2, ensemble="unitary", seed=3)
        assert all(unitarity_test(rep) for rep in sample_reps(spec))

    def test_block_upper_triangular_is_reducible(self):
        spec = SampleSpec(count=30, dim=3, ensemble="blockUpperTriangular",
                          seed=9)
        for rep in sample_reps(spec):
            res = classify(rep)
            assert res.composition_kind != "irreducible"

    def test_rational_angle_spectra(self):
        spec = SampleSpec(count=20, dim=3, ensemble="rationalAngle", seed=1)
        for rep in sample_reps(spec):
            for lam in np.linalg.eigvals(rep.m0):
                assert abs(abs(lam) - 1) < 1e-9

    def test_same_seed_same_stream(self):
        spec = SampleSpec(count=5, dim=2, ensemble="generic", seed=77)
        a = [rep.m0 for rep in sample_reps(spec)]
        b = [rep.m0 for rep in sample_reps(spec)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SampleSpec(count=-5, dim=2)
        assert list(sample_reps(SampleSpec(count=0, dim=2))) == []

    def test_planted_split_needs_dim_two_or_three(self):
        # a character has no invariant subspace to plant; the 1+1 split
        # it was once given sampled 2x2 reps
        with pytest.raises(ValueError, match="dim 2 or 3"):
            SampleSpec(count=3, dim=1, ensemble="blockUpperTriangular")

    @pytest.mark.parametrize("split", ["2+2", "1+1", "3", "2+1+1"])
    def test_dim3_split_is_a_partition_of_three(self, split):
        # refused when the spec is made, not while its samples are drawn
        with pytest.raises(ValueError, match=re.escape(f"split '{split}'")):
            SampleSpec(count=2, dim=3, ensemble="blockUpperTriangular",
                       split=split)
        for planted in ("2+1", "1+2", "1+1+1"):
            spec = SampleSpec(count=2, dim=3, ensemble="blockUpperTriangular",
                              split=planted)
            assert all(rep.n == 3 for rep in sample_reps(spec))


class TestSampleAndCheck:
    def test_all_checks_clean_on_seeded_batch(self):
        spec = SampleSpec(count=100, dim=2, ensemble="generic", seed=13)
        report = sample_and_check(
            spec, ["chern-bound-dim2", "root-bound-dim2", "sum-rule",
                   "integrality"])
        assert report.ok
        assert report.violations == []
        assert sum(report.c1_histogram.values()) == 100

    def test_one_record_and_analysis_per_sample(self, monkeypatch):
        # the degree, the classification and the strict unitary check all
        # read one record of each sample's spectra and one analysis
        batches = count_calls(monkeypatch, "rep", "local_spectra_batch")
        analyses = count_calls(monkeypatch, "rep", "analyze")
        spec = SampleSpec(count=20, dim=2, ensemble="unitary", seed=8)
        report = sample_and_check(
            spec, ["chern-bound-dim2", "strict-bound-unitary-dim2",
                   "root-bound-dim2", "sum-rule", "integrality"])
        assert report.ok and report.skipped == 0
        assert report.checks_run == 5 * 20
        reps = list(sample_reps(spec))
        # the records come from one batch over all samples
        (batch,) = batches
        for calls in (batch, analyses):
            assert len(calls) == 20
            assert all(np.array_equal(got.m0, rep.m0)
                       for got, rep in zip(calls, reps))

    def test_one_degree_per_sample(self, monkeypatch):
        # a classified sample's degree is the one its classification holds
        degrees = count_calls(monkeypatch, "chern", "chern_class")
        spec = SampleSpec(count=20, dim=3, ensemble="blockUpperTriangular",
                          seed=8)
        report = sample_and_check(spec, ["sum-rule", "integrality"])
        assert report.ok and report.checks_run == 2 * 20
        reps = list(sample_reps(spec))
        own = [got for got in degrees
               if any(np.array_equal(got.m0, rep.m0) for rep in reps)]
        assert len(own) == 20

    def test_non_integer_degree_is_one_violation(self):
        # with eps_int = 0 some samples miss an integer by rounding; they
        # are reported alike whether or not a check needs a classification
        tol = DEFAULT.override(eps_int=0.0)
        spec = SampleSpec(count=60, dim=2, ensemble="generic", seed=3)
        alone = sample_and_check(spec, ["integrality"], tol)
        classified = sample_and_check(spec, ["sum-rule", "integrality"], tol)
        missed = [v for v in alone.violations if v["expected"] == "integer c1"]
        assert missed and all("NonIntegerChern" in v["got"] for v in missed)
        assert [v for v in classified.violations
                if v["expected"] == "integer c1"] == missed
        assert classified.c1_histogram == alone.c1_histogram
        assert sum(alone.c1_histogram.values()) == 60 - len(missed)

    def test_branch_roundtrip_check(self):
        spec = SampleSpec(count=50, dim=3, ensemble="generic", seed=21)
        report = sample_and_check(spec, ["branch-roundtrip"])
        assert report.ok

    def test_exact_check_certifies_the_float_record(self, monkeypatch):
        # exact mode certifies the eigenvalues the float record holds: the
        # 300 matrices of 100 samples are solved once, in one batch, and
        # each is certified once
        batches = count_calls(monkeypatch, "linalg", "eigenvalues_batch")
        certified = count_calls(monkeypatch, "exact", "rational_angles")
        spec = SampleSpec(count=100, dim=3, ensemble="rationalAngle", seed=0)
        report = sample_and_check(spec, ["exact-float-agreement"])
        assert report.ok and report.checks_run == 100
        assert [len(mats) for mats in batches] == [300]
        assert len(certified) == 300

    def test_exact_float_agreement_check(self):
        spec = SampleSpec(count=30, dim=2, ensemble="rationalAngle", seed=4)
        report = sample_and_check(spec, ["exact-float-agreement"])
        assert report.ok

    def test_exact_mode_refusal_is_a_violation(self):
        # generic spectra are not rational-angle, so exact mode refuses
        # every sample; the report still comes back
        spec = SampleSpec(count=3, dim=2, ensemble="generic", seed=0)
        report = sample_and_check(spec, ["exact-float-agreement"])
        assert report.checks_run == 3 and not report.ok
        assert [v["sample"] for v in report.violations] == [0, 1, 2]
        for v in report.violations:
            assert v["expected"].startswith("exact c1 == float c1 = ")
            assert v["got"].startswith("ExactModeError: ")

    def test_unknown_check_rejected(self):
        spec = SampleSpec(count=1, dim=2, ensemble="generic", seed=0)
        with pytest.raises(ValueError):
            sample_and_check(spec, ["no-such-check"])

    def test_report_json_deterministic(self):
        spec = SampleSpec(count=40, dim=2, ensemble="unitary", seed=8)
        checks = ["strict-bound-unitary-dim2", "sum-rule"]
        a = sample_and_check(spec, checks).to_json()
        b = sample_and_check(spec, checks).to_json()
        assert a == b
        json.loads(a)  # valid JSON

    def test_summary_mentions_ensemble_and_seed(self):
        spec = SampleSpec(count=10, dim=2, ensemble="generic", seed=99)
        line = sample_and_check(spec, ["sum-rule"]).summary()
        assert "generic" in line and "99" in line


class TestDirectSumOracle:
    def test_union_of_parts(self):
        parts = [
            MonodromyRep(np.array([[angle(0.5)]]), np.array([[angle(0.5)]])),
            MonodromyRep(np.array([[1.0 + 0j]]), np.array([[1.0 + 0j]])),
        ]
        assert direct_sum_oracle(parts) == SplittingType.of((-1, 0))

    def test_assembly_matches_classification(self, rng):
        from conftest import random_invertible
        for _ in range(30):
            parts = [MonodromyRep(random_invertible(rng, 2),
                                  random_invertible(rng, 2)),
                     MonodromyRep(random_invertible(rng, 1),
                                  random_invertible(rng, 1))]
            whole = assemble_direct_sum(parts)
            assert whole.n == 3
            res = classify(whole)
            assert res.determined
            assert res.options[0] == direct_sum_oracle(parts)

    def test_ambiguous_part_raises(self):
        # indecomposable dim-2 part in the non-split range: candidates only
        m0 = np.diag([angle(0.75), 1.0]).astype(complex)
        m1 = np.diag([angle(0.75), 1.0]).astype(complex)
        m1[0, 1] = 1.0
        ambiguous = MonodromyRep(m0, m1)
        assert not classify(ambiguous).determined
        with pytest.raises(AmbiguousPart):
            direct_sum_oracle([ambiguous])


def test_conjecture_scan_reports_findings():
    spec = SampleSpec(count=40, dim=3, ensemble="generic", seed=17)
    report = conjecture_scan(spec)
    tally = report.findings[-1]["tally"]
    assert tally["inside"] > 0
    # out-of-window roots are findings, never failures; each one is itemized
    itemized = [f for f in report.findings if "note" in f]
    assert len(itemized) == tally["outside"]


def test_checks_registry_is_complete():
    assert {"chern-bound-dim2", "strict-bound-unitary-dim2",
            "root-bound-dim2", "reducible-bound-dim3", "nonroots",
            "sum-rule", "integrality", "branch-roundtrip",
            "exact-float-agreement"} == set(CHECKS)
