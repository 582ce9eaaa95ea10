"""End-to-end acceptance suite.

Each test prints one PASS line on success (visible with pytest -s or -rP);
a failure reads as the usual pytest report for that criterion.
"""

import time

import numpy as np
import pytest
import scipy.linalg

from logroots import (
    MonodromyRep,
    SampleSpec,
    SplittingType,
    analyze,
    candidate_tree,
    chern_class,
    classify,
    direct_sum_oracle,
    parse_input_document,
    preset,
    principal_log,
    sample_and_check,
    sample_rep,
)
from logroots.classify import _EXCEPTIONAL, _roots_irreducible, ext_splits
from logroots.oracle import assemble_direct_sum

from conftest import random_invertible


def st(*roots):
    return SplittingType.of(roots)


def test_criterion_1_worked_example_exact():
    (rep,) = parse_input_document(preset("pslz-section5"))
    res = classify(rep, exact=True)
    assert res.determined
    assert res.options == (st(0, -1, -2),)
    comp = analyze(rep)
    sub_quot = set()
    for seq in comp.sequences:
        if seq.sub_dim == 2:
            sub = classify(seq.sub_rep, exact=True)
            quot = classify(seq.quotient_rep, exact=True)
            assert sub.determined and quot.determined
            sub_quot.add((sub.options[0], quot.options[0]))
    assert (st(0, -2), st(-1)) in sub_quot
    print("PASS criterion 1: worked example roots (0,-1,-2), "
          "sub (0,-2), quotient (-1)")


def test_criterion_2_auxiliary_character():
    (chi,) = parse_input_document(preset("aux-character"))
    res = classify(chi, exact=True)
    assert res.chern.c1 == -1
    assert res.options == (st(-1),)
    print("PASS criterion 2: character (-1,-1) has c1 = -1, root -1")


def test_criterion_3_irreducible_table():
    expected = {
        0: {st(0, 0, 0), st(1, 0, -1)},
        -1: {st(0, 0, -1)},
        -2: {st(0, -1, -1)},
        -3: {st(-1, -1, -1), st(0, -1, -2)},
        -4: {st(-1, -1, -2)},
        -5: {st(-1, -2, -2)},
        -6: {st(-2, -2, -2), st(-1, -2, -3)},
    }
    for z, want in expected.items():
        options, _, _ = _roots_irreducible(3, z)
        assert set(options) == want, f"z = {z}"
        assert (len(options) > 1) == (z % 3 == 0)
    print("PASS criterion 3: irreducible dim-3 table matches for "
          "z in {-6..0}, two candidates iff z = 0 mod 3")


def test_criterion_4_reducible_tables():
    # the 8 exceptional branches: 3 exceptional triples x 2 sequence shapes,
    # each contributing its stated candidate pair
    expected_pairs = {
        (-2, -2, 0): {st(-2, -1, -1), st(-2, -2, 0)},
        (-2, -1, 0): {st(-2, -1, 0), st(-1, -1, -1)},
        (-2, 0, 0): {st(-2, 0, 0), st(-1, -1, 0)},
    }
    assert len(_EXCEPTIONAL) == 3
    branches = 0
    for triple, want in expected_pairs.items():
        got = {SplittingType.of(r) for r in _EXCEPTIONAL[triple]}
        assert got == want
        branches += 2  # same table drives both the sub-2 and sub-1 shapes
    assert branches == 8 - 2  # 6 table branches ...
    # ... plus the two split-side catch-alls: every non-exceptional triple
    # with roots in the proven windows passes the split test
    non_exceptional = 0
    for xs_pair in [(a, b) for a in range(-2, 1) for b in range(a, 1)]:
        for xq in range(-2, 1):
            key = (xs_pair[0], xs_pair[1], xq)
            if key in _EXCEPTIONAL:
                continue
            sub = st(*xs_pair)
            quot = st(xq)
            if ext_splits(sub, quot):
                non_exceptional += 1
    assert non_exceptional > 0
    # mirrored shape: 1-dim sub, 2-dim quotient
    for xs in range(-2, 1):
        for xq_pair in [(a, b) for a in range(-2, 1) for b in range(a, 1)]:
            key = (xs, xq_pair[0], xq_pair[1])
            if key not in _EXCEPTIONAL:
                assert ext_splits(st(xs), st(*xq_pair)), key
    print("PASS criterion 4: 8 exceptional branches reproduce their "
          "candidate pairs; all non-exceptional triples split")


def test_criterion_5_proven_bounds_sampled():
    t0 = time.time()
    generic = sample_and_check(
        SampleSpec(count=10000, dim=2, ensemble="generic", seed=4),
        ["chern-bound-dim2", "root-bound-dim2", "sum-rule", "integrality"])
    assert generic.ok, generic.violations[:3]
    unitary = sample_and_check(
        SampleSpec(count=1000, dim=2, ensemble="unitary", seed=2),
        ["strict-bound-unitary-dim2", "root-bound-dim2"])
    assert unitary.ok, unitary.violations[:3]
    reducible = sample_and_check(
        SampleSpec(count=1000, dim=3, ensemble="blockUpperTriangular", seed=3),
        ["reducible-bound-dim3", "nonroots", "sum-rule"])
    assert reducible.ok, reducible.violations[:3]
    elapsed = time.time() - t0
    assert elapsed < 30
    print(f"PASS criterion 5: 10000 generic dim-2 (0 >= c1 >= -4), 1000 "
          f"unitary (c1 < 0), roots in [-2,0], 1000 reducible dim-3 in "
          f"(-3,0], no (0,-1,-3); {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for split in ("2+1", "1+1+1"):
        dims = [int(s) for s in split.split("+")]
        rng = np.random.default_rng(sum(dims) * 100 + len(dims))
        specs = {d: SampleSpec(count=1, dim=d, ensemble="generic", seed=0)
                 for d in set(dims)}
        for _ in range(1000):
            parts = [sample_rep(specs[d], rng) for d in dims]
            whole = assemble_direct_sum(parts)
            truth = direct_sum_oracle(parts)
            res = classify(whole)
            assert res.determined, (split, [str(o) for o in res.options])
            assert res.options[0] == truth, (split, str(truth),
                                             str(res.options[0]))
            checked += 1
    elapsed = time.time() - t0
    assert checked == 2000
    assert elapsed < 20
    print(f"PASS criterion 6: classify == direct-sum oracle on 1000 planted "
          f"decomposable reps per split shape; {elapsed:.1f}s")


def test_criterion_7_numerical_core():
    t0 = time.time()
    rng = np.random.default_rng(4)
    for i in range(1000):
        n = int(rng.integers(1, 4))
        m = random_invertible(rng, n)
        log = principal_log(m)
        back = scipy.linalg.expm(log.L)
        assert np.linalg.norm(back - m) < 1e-8 * max(1.0, np.linalg.norm(m))
        for lam in np.linalg.eigvals(log.L):
            assert -1e-9 <= lam.imag / (2 * np.pi) < 1.0
        if n >= 1 and i % 2 == 0:
            other = random_invertible(rng, n)
            data = chern_class(MonodromyRep(m, other))
            assert abs(data.raw_sum - data.c1) < 1e-6
    elapsed = time.time() - t0
    assert elapsed < 10
    print(f"PASS criterion 7: exp(log) round trip < 1e-8 relative, branches "
          f"in [0,1), c1 residual < 1e-6 on 1000 samples; {elapsed:.1f}s")


def test_criterion_8_tree_generator():
    leaves = candidate_tree(3, 3)
    assert set(leaves) == {(0, 0, 0), (0, 0, -1), (0, -1, -1), (0, -1, -2)}
    assert len(leaves) == 4
    print("PASS criterion 8: depth-3 tree has exactly the four leaf "
          "patterns x^3, x^2(x-1), x(x-1)^2, x(x-1)(x-2)")
