"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_checks.py -q

Each reference check must accept the program's real answer and reject a
deliberately wrong one; a traced run must return the untraced run's roots
and repeat its call counts exactly.
"""

import copy
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def float_doc():
    wl = workloads.FloatBatch()
    request = wl.make(seed=5, index=0)
    reply = json.loads(wl.run(request.payload))
    return request.expects, reply["results"]


@pytest.fixture(scope="module")
def exact_doc():
    wl = workloads.ExactBatch()
    request = wl.make(seed=5, index=0)
    reply = json.loads(wl.run(request.payload))
    return request.expects, reply["results"]


def _pick(doc, prefix):
    expects, records = doc
    for exp, rec in zip(expects, records):
        if exp["label"].startswith(prefix):
            return copy.deepcopy(rec), exp
    raise LookupError(prefix)


def _rejects(record, expect, fragment):
    problems = ref.check_record(record, expect)
    assert any(fragment in p for p in problems), problems


def test_real_answers_pass(float_doc, exact_doc):
    for expects, records in (float_doc, exact_doc):
        assert ref.check_document({"results": records}, expects) == []


def test_planted_references():
    assert ref.c1_from_angles(*workloads.PSLZ_ANGLES) == -3
    assert ref.character_root(0.25, 0.5) == -1
    assert ref.character_root(0.75, 0.5) == -2
    assert ref.character_root(0.0, 0.0) == 0
    assert ref.c1_from_angles([Fraction(1, 2)], [Fraction(1, 2)]) == -1
    assert ref.irreducible_dim3_options(-3) == {(-1, -1, -1), (0, -1, -2)}
    assert ref.irreducible_dim3_options(-2) == {(0, -1, -1)}
    assert ref.irreducible_dim3_options(-4) == {(-1, -1, -2)}


@pytest.mark.parametrize("prefix", ["irr3", "planted", "charsum", "generic2"])
def test_wrong_c1_rejected(float_doc, prefix):
    rec, exp = _pick(float_doc, prefix)
    rec["chern"]["c1"] -= 1
    _rejects(rec, exp, "eigvals reference")


def test_wrong_exact_c1_rejected(exact_doc):
    rec, exp = _pick(exact_doc, "rational")
    rec["chern"]["c1"] += 1
    _rejects(rec, exp, "planted-angle reference")


@pytest.mark.parametrize("prefix", ["irr3", "planted", "charsum", "char-",
                                    "unitary2"])
def test_shifted_root_rejected(float_doc, prefix):
    rec, exp = _pick(float_doc, prefix)
    rec["result"]["options"][0][0] += 1
    _rejects(rec, exp, "does not sum")


@pytest.mark.parametrize("prefix", ["charsum3", "charsum2"])
def test_direct_sum_roots_required(float_doc, prefix):
    rec, exp = _pick(float_doc, prefix)
    roots = rec["result"]["options"][0]
    roots[0] += 1  # same degree, another multiset
    roots[-1] -= 1
    _rejects(rec, exp, "planted roots")


def test_character_root_required(float_doc):
    rec, exp = _pick(float_doc, "char-")
    rec["result"]["options"] = [[exp["c1"] - 1]]
    _rejects(rec, exp, "planted roots")


def test_pslz_roots_required(exact_doc):
    rec, exp = _pick(exact_doc, "pslz")
    rec["result"]["options"] = [[-1, -1, -1]]
    _rejects(rec, exp, "planted roots")


@pytest.mark.parametrize("prefix", ["planted-2+1", "planted-1+2",
                                    "planted-1+1+1", "charsum"])
def test_wrong_kind_rejected(float_doc, prefix):
    rec, exp = _pick(float_doc, prefix)
    rec["composition"]["kind"] = "irreducible"
    _rejects(rec, exp, "planted")


def test_irreducible_option_set_required(float_doc):
    rec, exp = _pick(float_doc, "irr3")
    z = exp["c1"]
    rec["result"]["options"] = [[0, 0, z]]
    _rejects(rec, exp, "c1 mod 3 theorem")


def test_windows_enforced(float_doc, exact_doc):
    rec, exp = _pick(exact_doc, "rational")
    exp = dict(exp, c1=-4, c1_exact=-4)
    rec["chern"]["c1"] = -4
    rec["result"]["options"] = [[0, -1, -3]]
    _rejects(rec, exp, "outside (-3, 0]")
    _rejects(rec, exp, "excluded multiset")
    rec, exp = _pick(float_doc, "generic2")
    rec["result"]["options"] = [[1, exp["c1"] - 1]]
    _rejects(rec, exp, "outside [-2, 0]")
    rec, exp = _pick(float_doc, "char-")
    exp = dict(exp, c1=1)
    rec["chern"]["c1"] = 1
    rec["result"]["options"] = [[1]]
    _rejects(rec, exp, "outside {0, -1, -2}")


def test_unitary_strict_bound(float_doc):
    rec, exp = _pick(float_doc, "unitary2")
    exp = dict(exp, c1=0)
    rec["chern"]["c1"] = 0
    rec["result"]["options"] = [[0, 0]]
    _rejects(rec, exp, "c1 = 0 >= 0")


def test_program_error_and_missing_record_rejected(float_doc):
    rec, exp = _pick(float_doc, "irr3")
    assert ref.check_record({"error": {"type": "X"}}, exp)
    expects, records = float_doc
    assert ref.check_document({"results": records[:-1]}, expects)


def test_known_failure_required(float_doc):
    rec, exp = _pick(float_doc, "failing2")
    assert rec["error"]["type"] == "RootOutOfProvenRange"
    assert ref.c1_from_eigvals(*workloads.FAILING_DIM2) == -5
    assert ref.check_record(rec, exp) == []
    answered = copy.deepcopy(_pick(float_doc, "generic2")[0])
    answered["label"] = exp["label"]
    _rejects(answered, exp, "expected the known")
    _rejects(dict(rec, error={"type": "LinAlgError"}), exp,
             "expected the known")


def test_report_checks():
    wl = workloads.VerifySweep()
    for index in range(wl.cycle):
        request = wl.make(seed=5, index=index)
        report = wl.run(request.payload)
        problems, _, failed = wl.check(request, report)
        assert problems == []
        assert failed == len(request.expects[1])
    assert failed == 1  # the last kind holds the known c1 = -5 sample
    known = request.expects[1]
    hist = Counter(report.c1_histogram)
    assert ref.check_report(report.violations, hist, hist, known) == []
    assert ref.check_report(report.violations, hist, hist)
    assert ref.check_report([], hist, hist, known)
    extra = report.violations + [{"sample": 0, "expected": "x", "got": "y"}]
    assert ref.check_report(extra, hist, hist, known)
    wrong = [dict(report.violations[0], got="NonIntegerChern: x")]
    assert ref.check_report(wrong, hist, hist, known)
    moved = Counter(hist)
    c = next(iter(moved))
    moved[c] -= 1
    moved[c - 1] += 1
    assert ref.check_report(report.violations, moved, hist, known)


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed3-trace{trace}.roots.json") as fh:
        roots = json.load(fh)["requests"]
    return result, roots


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_repeats_counts_and_roots(workload):
    plain, plain_roots = _run(workload, 0)
    traced, traced_roots = _run(workload, 1)
    again, _ = _run(workload, 1)
    for result in (plain, traced, again):
        assert result["correct"]
        # the known failure is one op in every document or sweep cycle
        assert result["failed"] * plain["attempted"] == \
            plain["failed"] * result["attempted"]
    assert (plain["failed"] > 0) == (workload != "exact-batch")
    common = min(len(plain_roots), len(traced_roots))
    assert plain_roots[:common] == traced_roots[:common]
    counts = {k: v["value"] for k, v in traced["metrics"].items()
              if "_calls" in k}
    assert counts == {k: v["value"] for k, v in again["metrics"].items()
                      if "_calls" in k}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(traced["metrics"]) == {m["name"] for m in bench["per_layer"]}
    assert set(plain["metrics"]) == {m["name"] for m in bench["end_to_end"]}
