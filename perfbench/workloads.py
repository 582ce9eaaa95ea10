"""The benchmark's workloads: seeded input generators, the request each
client call makes, and the reference checks applied to each reply.

Request ``i`` of a run with seed ``s`` is generated from
``SeedSequence([s, workload_id, i])``, so it is the same in every run with
that seed however long the run is.  The program receives only the
generated inputs; what the benchmark planted stays on this side.
"""

from __future__ import annotations

import copy
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import logroots.io as lio
import logroots.oracle as loracle
import logroots.presets as lpresets

import reference as ref


@dataclass
class Request:
    index: int
    payload: object
    ops: int  # representations classified, or samples checked
    expects: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# input generators (independent of logroots.oracle's ensembles)

def _rng(seed: int, workload_id: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, workload_id, index]))


def _disk(rng, shape) -> np.ndarray:
    return np.sqrt(rng.uniform(0.0, 1.0, shape)) * \
        np.exp(2j * np.pi * rng.uniform(0.0, 1.0, shape))


def _invertible(rng, n: int) -> np.ndarray:
    while True:
        m = _disk(rng, (n, n))
        if abs(np.linalg.det(m)) > 1e-2:
            return m


def _unitary(rng, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _conjugator(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """P = U diag(s) V with s in [1/2, 2], so cond(P) <= 4; returns P, P^-1."""
    s = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
    p = _unitary(rng, n) @ np.diag(s) @ _unitary(rng, n)
    return p, np.linalg.inv(p)


def _generic_dim2(rng) -> tuple[np.ndarray, np.ndarray]:
    """A generic dim-2 pair with degree in the window 0 >= c1 >= -4.

    About one generic pair in 4000 has c1 = -5, and classify refuses such a
    pair, and a reducible dim-3 rep with such a block, with
    RootOutOfProvenRange.  Drawn freely, they would fail on some seeds and
    not others, so they are drawn again here; ``FAILING_DIM2`` puts that
    failure into every document instead.
    """
    while True:
        m0, m1 = _invertible(rng, 2), _invertible(rng, 2)
        if ref.c1_from_eigvals(m0, m1) >= -4:
            return m0, m1


# A generic dim-2 pair with c1 = -5, the 703rd pair drawn by _invertible
# from SeedSequence([0, 99, 0]).  classify raises RootOutOfProvenRange on
# it, so it is the one operation of each float-batch document that fails,
# every time and whatever the seed.
FAILING_DIM2 = (
    np.array([[0.5746810661432135 + 0.20207427370502262j,
               0.5152102560955301 - 0.6018259792906299j],
              [0.24111166984872223 + 0.22911171152768767j,
               0.5978439911458443 - 0.2980913473153968j]]),
    np.array([[0.7403226234769891 - 0.5808410873001847j,
               -0.4960947401596337 - 0.39174472285352085j],
              [-0.33133551213838774 - 0.07521561372571361j,
               0.031537603422195665 + 0.819658892643917j]]),
)
FAILING_ERROR = "RootOutOfProvenRange"


def _planted_pair(rng, dims) -> tuple[np.ndarray, np.ndarray]:
    """Block upper-triangular pair with diagonal blocks of sizes ``dims``."""
    n = sum(dims)
    m0, m1 = np.triu(_disk(rng, (n, n))), np.triu(_disk(rng, (n, n)))
    pos = 0
    for d in dims:
        if d == 2:
            b0, b1 = _generic_dim2(rng)
        else:
            b0, b1 = _invertible(rng, d), _invertible(rng, d)
        m0[pos:pos + d, pos:pos + d] = b0
        m1[pos:pos + d, pos:pos + d] = b1
        pos += d
    return m0, m1


def _entries(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _record(label: str, m0: np.ndarray, m1: np.ndarray) -> dict:
    return {"label": label, "n": int(m0.shape[0]),
            "m0": _entries(m0), "m1": _entries(m1)}


def _expect(label: str, m0, m1, **extra) -> dict:
    return {"label": label, "n": int(m0.shape[0]),
            "c1": ref.c1_from_eigvals(m0, m1), **extra}


PLANTED_KINDS = {(2, 1): "sub2", (1, 2): "sub1", (1, 1, 1): "both"}


FLOAT_BLOCKS = 25  # blocks of the 20-rep mix below: 500 reps per document


def _float_block(rng, block: int, add) -> None:
    """One block of the float-batch mix: 20 reps, fresh values."""
    for j in range(6):
        add(f"irr3-{block}-{j}", _invertible(rng, 3), _invertible(rng, 3),
            kind="irreducible", irreducible_dim3=True)
    for j in range(2):
        for dims, kind in PLANTED_KINDS.items():
            p, pinv = _conjugator(rng, 3)
            m0, m1 = _planted_pair(rng, dims)
            add(f"planted-{'+'.join(map(str, dims))}-{block}-{j}",
                p @ m0 @ pinv, p @ m1 @ pinv, kind=kind)
    for j, n in enumerate((3, 2, 1, 1)):
        q0 = rng.uniform(0.0, 1.0, n)
        q1 = rng.uniform(0.0, 1.0, n)
        r0 = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
        r1 = np.exp(rng.uniform(math.log(0.5), math.log(2.0), n))
        d0 = np.diag(r0 * np.exp(2j * np.pi * q0))
        d1 = np.diag(r1 * np.exp(2j * np.pi * q1))
        roots = [ref.character_root(a, b) for a, b in zip(q0, q1)]
        if n == 1:
            add(f"char-{block}-{j}", d0, d1, roots=roots)
        else:
            p, pinv = _conjugator(rng, n)
            add(f"charsum{n}-{block}", p @ d0 @ pinv, p @ d1 @ pinv,
                kind="decomposable", roots=roots)
    for j in range(2):
        m0, m1 = _generic_dim2(rng)
        add(f"generic2-{block}-{j}", m0, m1, kind="irreducible")
        add(f"unitary2-{block}-{j}", _unitary(rng, 2), _unitary(rng, 2),
            kind="irreducible", unitary=True)


def _float_reps(rng) -> list[tuple[dict, dict]]:
    """One float-batch document: FLOAT_BLOCKS mix blocks, then FAILING_DIM2."""
    out = []

    def add(label, m0, m1, **extra):
        out.append((_record(label, m0, m1), _expect(label, m0, m1, **extra)))

    for block in range(FLOAT_BLOCKS):
        _float_block(rng, block, add)
    add("failing2", *FAILING_DIM2, error=FAILING_ERROR)
    return out


def _rational_angles(rng, n: int, max_den: int = 12) -> list[Fraction]:
    dens = rng.integers(1, max_den + 1, n)
    return [Fraction(int(rng.integers(0, d)), int(d)) for d in dens]


def _rational_rep(rng, label: str) -> tuple[dict, dict]:
    """Triangular pair with rational unit-circle diagonals, conjugated.

    Angles are drawn until each generator and the product have simple
    spectra: a repeated angle with off-diagonal coupling is defective, and
    float64 data cannot certify a defective eigenvalue to exact precision.
    """
    while True:
        q0, q1 = _rational_angles(rng, 3), _rational_angles(rng, 3)
        qp = [(a + b) % 1 for a, b in zip(q0, q1)]
        if all(len(set(qs)) == 3 for qs in (q0, q1, qp)):
            break

    def tri(qs):
        diag = np.exp(2j * np.pi * np.array([float(q) for q in qs]))
        return np.triu(_disk(rng, (3, 3)), k=1) + np.diag(diag)

    p, pinv = _conjugator(rng, 3)
    m0, m1 = p @ tri(q0) @ pinv, p @ tri(q1) @ pinv
    return _record(label, m0, m1), _expect(
        label, m0, m1, c1_exact=ref.c1_from_angles(q0, q1), kind="both")


# The paper's worked example: diagonal T-image with sixth-root angles, and
# the S-image upper triangular, so its degree follows from the diagonals.
PSLZ_ANGLES = ((Fraction(0), Fraction(5, 6), Fraction(1, 6)),
               (Fraction(0), Fraction(1, 2), Fraction(1, 2)))
PSLZ_ROOTS = (0, -1, -2)


def _entry_value(entry) -> complex:
    if isinstance(entry, dict):
        turn = Fraction(entry["angle"]) % 1
        return entry.get("modulus", 1.0) * complex(
            math.cos(2 * math.pi * turn), math.sin(2 * math.pi * turn))
    return complex(entry[0], entry[1])


def _pslz_rep() -> tuple[dict, dict]:
    record = copy.deepcopy(lpresets.preset("pslz-section5")["reps"][0])
    m0, m1 = (np.array([[_entry_value(e) for e in row] for row in record[k]])
              for k in ("m0", "m1"))
    return record, _expect(record["label"], m0, m1,
                           c1_exact=ref.c1_from_angles(*PSLZ_ANGLES),
                           roots=PSLZ_ROOTS)


# ---------------------------------------------------------------------------
# workloads

class DocumentWorkload:
    """Each request is one JSON input document sent through the batch path:
    json.loads, parse_input_document, classify_document with keep_going
    (a rep the program refuses becomes an error record, as with the CLI's
    ``--keep-going``), json.dumps."""

    cycle = 1

    def __init__(self, workload_id: int, exact: bool):
        self.workload_id = workload_id
        self.exact = exact

    def reps(self, rng) -> list[tuple[dict, dict]]:
        raise NotImplementedError

    def make(self, seed: int, index: int) -> Request:
        pairs = self.reps(_rng(seed, self.workload_id, index))
        doc = {"version": "1", "reps": [rec for rec, _ in pairs]}
        return Request(index=index, payload=json.dumps(doc), ops=len(pairs),
                       expects=[exp for _, exp in pairs])

    def run(self, payload: str) -> str:
        reps = lio.parse_input_document(json.loads(payload))
        return json.dumps(lio.classify_document(reps, exact=self.exact,
                                                keep_going=True))

    def check(self, request: Request, reply: str):
        """(problems, digest, failed ops) of one reply."""
        doc = json.loads(reply)
        problems = [f"request {request.index}: {p}"
                    for p in ref.check_document(doc, request.expects)]
        results = doc.get("results", [])
        digest = [[r.get("label"), r.get("result", {}).get("options")]
                  for r in results]
        return problems, digest, sum("error" in r for r in results)


class FloatBatch(DocumentWorkload):
    def __init__(self):
        super().__init__(workload_id=1, exact=False)

    def reps(self, rng):
        return _float_reps(rng)


class ExactBatch(DocumentWorkload):
    RATIONAL_PER_DOC = 49  # plus pslz-section5: 50 reps per document

    def __init__(self):
        super().__init__(workload_id=2, exact=True)

    def reps(self, rng):
        return [_rational_rep(rng, f"rational-{j}")
                for j in range(self.RATIONAL_PER_DOC)] + [_pslz_rep()]


_DIM2_CHECKS = ["chern-bound-dim2", "strict-bound-unitary-dim2",
                "root-bound-dim2", "sum-rule", "integrality"]
_DIM3_REDUCIBLE_CHECKS = ["reducible-bound-dim3", "nonroots", "sum-rule",
                          "integrality"]
_ROUNDTRIP = ["branch-roundtrip", "sum-rule", "integrality"]


def _c1_reference(spec) -> list[int]:
    return [ref.c1_from_eigvals(r.m0, r.m1) for r in loracle.sample_reps(spec)]


class VerifySweep:
    """Each request is one ``sample_and_check`` call over SAMPLES samples.

    Requests cycle through the kinds below; a run ends on a whole cycle,
    so every run has the same make-up.  The first kind imports scipy
    lazily (branch round trip), so the untimed warm-up request covers it.
    With an odd number of kinds the median request falls inside one kind's
    block of request times rather than on the edge between two.

    Every kind but the last draws a fresh sample seed per request.  About
    27 generic dim-2 samples in 100000 have c1 = -5, which classify
    refuses; drawn freely, they would fail on some seeds only.  So a
    generic dim-2 seed whose samples hold one (by the eigvals reference)
    is drawn again, and the last kind is a fixed generic dim-2 request
    whose sample FAILING_SAMPLE has c1 = -5: it fails there every cycle,
    whatever the seed.  Planted 2+1 and 1+2 splits, whose 2-blocks are
    generic dim-2 pairs the benchmark cannot see, are timed in float-batch.
    """

    workload_id = 3
    SAMPLES = 100
    FAILING_SEED, FAILING_SAMPLE = 58, 27
    KINDS = (
        (dict(dim=3, ensemble="generic"), _ROUNDTRIP),
        (dict(dim=2, ensemble="generic"), _DIM2_CHECKS),
        (dict(dim=2, ensemble="unitary"), _DIM2_CHECKS),
        (dict(dim=3, ensemble="blockUpperTriangular", split="1+1+1"),
         _DIM3_REDUCIBLE_CHECKS),
        (dict(dim=2, ensemble="generic", seed=FAILING_SEED), _DIM2_CHECKS),
    )
    cycle = len(KINDS)

    def make(self, seed: int, index: int) -> Request:
        kw, checks = self.KINDS[index % self.cycle]
        if "seed" in kw:
            spec = loracle.SampleSpec(count=self.SAMPLES, **kw)
            c1s = _c1_reference(spec)
            known = {i: FAILING_ERROR for i, c in enumerate(c1s) if c == -5}
            return Request(index=index, payload=(spec, checks),
                           ops=self.SAMPLES, expects=[c1s, known])
        states = np.random.SeedSequence(
            [seed, self.workload_id, index]).generate_state(64)
        for sample_seed in states:
            spec = loracle.SampleSpec(count=self.SAMPLES,
                                      seed=int(sample_seed), **kw)
            c1s = _c1_reference(spec)
            if kw["dim"] != 2 or -5 not in c1s:
                return Request(index=index, payload=(spec, checks),
                               ops=self.SAMPLES, expects=[c1s, {}])
        raise RuntimeError(f"request {index}: no sample seed without c1 = -5")

    def run(self, payload):
        spec, checks = payload
        return loracle.sample_and_check(spec, checks)

    def check(self, request: Request, report):
        c1s, known = request.expects
        problems = [f"request {request.index}: {p}" for p in ref.check_report(
            report.violations, report.c1_histogram, Counter(c1s), known)]
        digest = [sorted(report.c1_histogram.items()), report.checks_run,
                  report.skipped, len(report.violations)]
        return problems, digest, len(report.violations)


WORKLOADS = {
    "float-batch": FloatBatch,
    "exact-batch": ExactBatch,
    "verify-sweep": VerifySweep,
}
