"""Independent verification harness: sampling ensembles and brute-force
oracles backing the statistical invariants and the derived values.

Sampling uses numpy's default generator (PCG64) with a fixed stream
discipline, so a report is reproducible byte-for-byte from its seed.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .chern import chern_class, unitarity_test
from .classify import SplittingType, classify
from .config import DEFAULT, Tolerances
from .errors import (AmbiguousPart, ExactModeError, LogrootsError,
                     NonIntegerChern)
from .exact import rational_angles
from .linalg import _value
from .rep import MonodromyRep, _spectra, local_spectra_batch

ENSEMBLES = ("generic", "unitary", "rationalAngle", "blockUpperTriangular")
# the planted splits of a dim-3 blockUpperTriangular sample; at dim 2 it
# is always 1+1, and a character has no split
_SPLITS = ("2+1", "1+2", "1+1+1")


@dataclass(frozen=True)
class SampleSpec:
    count: int
    dim: int
    ensemble: str = "generic"
    seed: int = 0
    max_denominator: int = 12
    split: str = "2+1"  # planted split for blockUpperTriangular at dim 3

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if self.dim not in (1, 2, 3):
            raise ValueError("dim must be 1, 2 or 3")
        if self.count < 0:
            raise ValueError(f"count {self.count} is negative")
        if self.ensemble == "blockUpperTriangular":
            if self.dim == 1:
                raise ValueError("blockUpperTriangular needs dim 2 or 3: "
                                 "a character has no invariant subspace "
                                 "to plant")
            if self.dim == 3 and self.split not in _SPLITS:
                raise ValueError(f"split {self.split!r} is not one of "
                                 f"{', '.join(_SPLITS)}")

    @property
    def planted_split(self) -> Optional[str]:
        """The split ``sample_rep`` plants: 1+1 at dim 2 and ``split`` at
        dim 3 for blockUpperTriangular; None for an ensemble that plants
        nothing."""
        if self.ensemble != "blockUpperTriangular":
            return None
        return self.split if self.dim == 3 else "1+1"


@dataclass
class OracleReport:
    spec: SampleSpec
    checks: tuple[str, ...]
    checks_run: int = 0
    skipped: int = 0
    violations: list = field(default_factory=list)
    c1_histogram: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        doc = {
            "spec": {
                "count": self.spec.count,
                "dim": self.spec.dim,
                "ensemble": self.spec.ensemble,
                "seed": self.spec.seed,
                "max_denominator": self.spec.max_denominator,
                "split": self.spec.planted_split,
            },
            "checks": list(self.checks),
            "ok": self.ok,
            "checks_run": self.checks_run,
            "skipped": self.skipped,
            "violations": self.violations,
            "c1_histogram": {str(k): v for k, v in sorted(self.c1_histogram.items())},
            "findings": self.findings,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        hist = ", ".join(f"c1={k}: {v}"
                         for k, v in sorted(self.c1_histogram.items()))
        return (f"[{self.spec.ensemble} dim={self.spec.dim} "
                f"seed={self.spec.seed}] {self.checks_run} checks, "
                f"{self.skipped} skipped: {status}; {hist}")


# ---------------------------------------------------------------------------
# ensembles

def _disk_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    radius = np.sqrt(rng.uniform(0.0, 1.0, (n, n)))
    angle = rng.uniform(0.0, 2.0 * np.pi, (n, n))
    return radius * np.exp(1j * angle)


def _random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    while True:
        m = _disk_matrix(rng, n)
        if abs(np.linalg.det(m)) > 1e-3:
            return m


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _conjugator(rng: np.random.Generator, n: int) -> np.ndarray:
    # cond <= 100 by construction, so planted structure stays detectable
    u = _random_unitary(rng, n)
    v = _random_unitary(rng, n)
    s = np.exp(rng.uniform(np.log(0.3), np.log(3.0), n))
    return u @ np.diag(s) @ v


def _rational_angle_pair(rng: np.random.Generator, n: int,
                         max_den: int) -> tuple[np.ndarray, np.ndarray]:
    """Simultaneously triangularizable pair with rational unit-circle
    diagonals, so the product's spectrum is rational-angle as well.

    Angles are resampled until each generator and the product have
    simple spectra; a repeated angle with off-diagonal coupling would be
    defective, and float64 data splits a defective eigenvalue by about
    the square root of its rounding error, which exact mode certifies
    only while the split stays within one ``eps_cluster`` cluster.
    """
    def angles():
        dens = rng.integers(1, max_den + 1, n)
        nums = np.array([rng.integers(0, d) for d in dens])
        return [Fraction(int(p), int(s)) for p, s in zip(nums, dens)]

    while True:
        q0, q1 = angles(), angles()
        qprod = [(a + b) % 1 for a, b in zip(q0, q1)]
        if all(len(set(qs)) == n for qs in (q0, q1, qprod)):
            break

    def tri(qs):
        diag = np.exp(2j * np.pi * np.array([float(q) for q in qs]))
        t = np.triu(_disk_matrix(rng, n), k=1).astype(complex)
        return t + np.diag(diag)

    p = _conjugator(rng, n)
    pinv = np.linalg.inv(p)
    return p @ tri(q0) @ pinv, p @ tri(q1) @ pinv


def _planted_reducible_pair(rng: np.random.Generator, split: str
                            ) -> tuple[np.ndarray, np.ndarray]:
    dims = [int(s) for s in split.split("+")]
    n = sum(dims)

    def block_upper():
        m = np.zeros((n, n), dtype=complex)
        pos = 0
        for d in dims:
            m[pos:pos + d, pos:pos + d] = _random_invertible(rng, d)
            if pos + d < n:
                m[pos:pos + d, pos + d:] = _disk_matrix(rng, max(d, n - pos - d))[:d, :n - pos - d]
            pos += d
        return m

    p = _conjugator(rng, n)
    pinv = np.linalg.inv(p)
    return p @ block_upper() @ pinv, p @ block_upper() @ pinv


def sample_rep(spec: SampleSpec, rng: np.random.Generator) -> MonodromyRep:
    n = spec.dim
    if spec.ensemble == "generic":
        return MonodromyRep(_random_invertible(rng, n), _random_invertible(rng, n))
    if spec.ensemble == "unitary":
        return MonodromyRep(_random_unitary(rng, n), _random_unitary(rng, n))
    if spec.ensemble == "rationalAngle":
        m0, m1 = _rational_angle_pair(rng, n, spec.max_denominator)
        return MonodromyRep(m0, m1)
    m0, m1 = _planted_reducible_pair(rng, spec.planted_split)
    return MonodromyRep(m0, m1)


def sample_reps(spec: SampleSpec):
    """Deterministic stream of sample representations."""
    rng = np.random.default_rng(spec.seed)
    for _ in range(spec.count):
        yield sample_rep(spec, rng)


# ---------------------------------------------------------------------------
# direct-sum ground truth

def direct_sum_oracle(parts: list[MonodromyRep],
                      tol: Tolerances = DEFAULT) -> SplittingType:
    """Ground-truth roots of a block-diagonal assembly: the extension is
    exact, so the roots are the multiset union of the parts' roots.  Every
    part must classify as determined."""
    roots: list[int] = []
    for part in parts:
        res = classify(part, tol)
        if not res.determined:
            raise AmbiguousPart(
                f"part {part.label or ''} classified as candidates "
                f"{[str(o) for o in res.options]}")
        roots.extend(res.options[0].roots)
    return SplittingType.of(roots)


def assemble_direct_sum(parts: list[MonodromyRep]) -> MonodromyRep:
    n = sum(p.n for p in parts)
    m0 = np.zeros((n, n), dtype=complex)
    m1 = np.zeros((n, n), dtype=complex)
    pos = 0
    for p in parts:
        m0[pos:pos + p.n, pos:pos + p.n] = p.m0
        m1[pos:pos + p.n, pos:pos + p.n] = p.m1
        pos += p.n
    return MonodromyRep(m0, m1)


# ---------------------------------------------------------------------------
# checks

def _violation(report: OracleReport, index: int, expected: str, got: str):
    report.violations.append({"sample": index, "expected": expected, "got": got})


def _check_chern_bound_dim2(rep, data, report, i, tol):
    if rep.n == 2 and not (0 >= data["c1"] >= -4):
        _violation(report, i, "0 >= c1 >= -4", f"c1 = {data['c1']}")


def _check_strict_unitary(rep, data, report, i, tol):
    if rep.n != 2 or not unitarity_test(rep, tol):
        return "skip"
    if data["result"].composition_kind != "irreducible":
        return "skip"
    if not data["c1"] < 0:
        _violation(report, i, "c1 < 0 (irreducible unitary dim 2)",
                   f"c1 = {data['c1']}")
    return None


def _check_root_bound_dim2(rep, data, report, i, tol):
    if rep.n != 2:
        return "skip"
    for opt in data["result"].options:
        for r in opt.roots:
            if not (-2 <= r <= 0):
                _violation(report, i, "dim-2 roots in [-2, 0]", str(opt))


def _check_reducible_bound_dim3(rep, data, report, i, tol):
    if rep.n != 3 or data["result"].composition_kind == "irreducible":
        return "skip"
    for opt in data["result"].options:
        for r in opt.roots:
            if not (-3 < r <= 0):
                _violation(report, i, "reducible dim-3 roots in (-3, 0]", str(opt))


def _check_nonroots(rep, data, report, i, tol):
    if rep.n != 3 or data["result"].composition_kind == "irreducible":
        return "skip"
    bad = SplittingType.of((0, -1, -3))
    if bad in data["result"].options:
        _violation(report, i, "no reducible dim-3 option equals (0,-1,-3)",
                   str(data["result"].options))


def _check_sum_rule(rep, data, report, i, tol):
    for opt in data["result"].options:
        if opt.total != data["c1"]:
            _violation(report, i, f"sum(roots) == c1 = {data['c1']}", str(opt))


def _check_integrality(rep, data, report, i, tol):
    resid = abs(data["chern"].raw_sum - data["c1"])
    if resid > tol.eps_int:
        _violation(report, i, f"|rawSum - c1| <= {tol.eps_int}", f"{resid:.3e}")


def _check_branch_roundtrip(rep, data, report, i, tol):
    from scipy.linalg import expm  # independent exponential (Pade/squaring)
    from .linalg import principal_log
    for m in (rep.m0, rep.m1):
        pl = principal_log(m, tol)
        err = np.linalg.norm(expm(pl.L) - m) / max(np.linalg.norm(m), 1e-300)
        if err > 1e-8:
            _violation(report, i, "||exp(log A) - A|| < 1e-8 rel", f"{err:.3e}")
        for lam in np.linalg.eigvals(pl.L):
            frac = lam.imag / (2.0 * math.pi)
            if not (-1e-9 <= frac < 1.0 + 1e-9):
                _violation(report, i, "Im(eig log)/2pi in [0, 1)", f"{frac}")


def _check_exact_float_agreement(rep, data, report, i, tol):
    expected = f"exact c1 == float c1 = {data['c1']}"
    # exact mode certifies the eigenvalues of M0, M1 and M0*M1 that the
    # float record holds, the last as the inverses of those at infinity
    s0, s1, s_inf = data["spectra"].poles
    try:
        certified = _spectra(*(rational_angles(s, tol) for s in
                               (s0, s1, [ev.inverse() for ev in s_inf])),
                             True)
        exact_c1 = chern_class(rep, tol, spectra=certified).c1
    except ExactModeError as exc:
        _violation(report, i, expected, f"ExactModeError: {exc}")
        return
    if exact_c1 != data["c1"]:
        _violation(report, i, expected, f"exact c1 = {exact_c1}")


CHECKS: dict[str, Callable] = {
    "chern-bound-dim2": _check_chern_bound_dim2,
    "strict-bound-unitary-dim2": _check_strict_unitary,
    "root-bound-dim2": _check_root_bound_dim2,
    "reducible-bound-dim3": _check_reducible_bound_dim3,
    "nonroots": _check_nonroots,
    "sum-rule": _check_sum_rule,
    "integrality": _check_integrality,
    "branch-roundtrip": _check_branch_roundtrip,
    "exact-float-agreement": _check_exact_float_agreement,
}

_NEEDS_RESULT = {"strict-bound-unitary-dim2", "root-bound-dim2",
                 "reducible-bound-dim3", "nonroots", "sum-rule"}


# samples drawn before their spectra are taken in one batch; the bound
# keeps memory flat however many samples a report checks
_SAMPLE_BATCH = 1024


def _with_spectra(reps, tol: Tolerances):
    """Each rep of the iterable ``reps`` with the outcome of its local
    spectra, taken in one ``local_spectra_batch`` per ``_SAMPLE_BATCH``
    reps."""
    reps = iter(reps)
    while batch := list(itertools.islice(reps, _SAMPLE_BATCH)):
        yield from zip(batch, local_spectra_batch(batch, tol))


def sample_and_check(spec: SampleSpec, checks: list[str],
                     tol: Tolerances = DEFAULT) -> OracleReport:
    """Run the named checks over the ensemble; violations are data, not
    exceptions, so a report always comes back.  The samples are drawn
    first and their local spectra taken in one ``local_spectra_batch``
    per ``_SAMPLE_BATCH`` samples; each sample's record serves its
    degree, its classification and the exact-mode check, and meets its
    own errors in its turn.  Its degree is computed once: a
    classification carries it.  A sample whose degree is no integer is
    one violation; a sample that classify refuses otherwise still counts
    in the degree histogram."""
    for name in checks:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
    report = OracleReport(spec=spec, checks=tuple(checks))
    need_result = bool(_NEEDS_RESULT & set(checks))
    for i, (rep, spectra) in enumerate(_with_spectra(sample_reps(spec), tol)):
        spectra = _value(spectra)
        result = refusal = None
        if need_result:
            try:
                result = classify(rep, tol, spectra=spectra)
            except LogrootsError as exc:
                refusal = exc
        if result is not None:
            chern = result.chern
        else:
            try:
                chern = chern_class(rep, tol, spectra=spectra)
            except NonIntegerChern as exc:
                _violation(report, i, "integer c1", f"NonIntegerChern: {exc}")
                continue
        report.c1_histogram[chern.c1] = report.c1_histogram.get(chern.c1, 0) + 1
        if refusal is not None:
            _violation(report, i, "classification succeeds",
                       f"{type(refusal).__name__}: {refusal}")
            continue
        data = {"chern": chern, "c1": chern.c1, "result": result,
                "spectra": spectra}
        for name in checks:
            if name in _NEEDS_RESULT and data["result"] is None:
                continue
            status = CHECKS[name](rep, data, report, i, tol)
            if status == "skip":
                report.skipped += 1
            else:
                report.checks_run += 1
    return report


def conjecture_scan(spec: SampleSpec, tol: Tolerances = DEFAULT) -> OracleReport:
    """Tally roots against the conjectured window (-m, 0] with m = 3.
    Observations outside it are findings, never failures."""
    report = OracleReport(spec=spec, checks=("conjectured-window",))
    inside = outside = 0
    for i, rep in enumerate(sample_reps(spec)):
        try:
            result = classify(rep, tol)
        except LogrootsError as exc:
            report.findings.append({"sample": i,
                                    "note": f"{type(exc).__name__}: {exc}"})
            continue
        report.c1_histogram[result.chern.c1] = \
            report.c1_histogram.get(result.chern.c1, 0) + 1
        report.checks_run += 1
        for opt in result.options:
            for r in opt.roots:
                if -3 < r <= 0:
                    inside += 1
                else:
                    outside += 1
                    report.findings.append(
                        {"sample": i, "note": f"root {r} outside (-3, 0]"})
    report.findings.append({"tally": {"inside": inside, "outside": outside}})
    return report
