"""Reference checks kept apart from the program under test.

Nothing here imports logroots.  Degrees are recomputed from
``numpy.linalg.eigvals`` (LAPACK), or in Fraction arithmetic from angles the
benchmark planted; splitting types are compared against the statements of
the theorems, written out here a second time.  Every check returns a list of
problems, empty when the answer is accepted.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

# An eigenvalue this close below angle 1 is the eigenvalue 1 seen through
# rounding; its branch angle is 0 by the [0, 1) convention.
BRANCH_SNAP = 1e-9
# The angle sum of a well-conditioned input lands this close to an integer.
INTEGER_SLACK = 1e-6

FORBIDDEN_REDUCIBLE_DIM3 = (0, -1, -3)


class Undecided(Exception):
    """The reference computation itself could not decide (bad input)."""


def branch_angle(z: complex) -> float:
    """Angle of z as a fraction of a full turn, in [0, 1)."""
    q = (math.atan2(z.imag, z.real) / (2.0 * math.pi)) % 1.0
    return 0.0 if q > 1.0 - BRANCH_SNAP else q


def c1_from_eigvals(m0: np.ndarray, m1: np.ndarray) -> int:
    """Minus the summed branch angles of M0, M1 and (M0 M1)^-1."""
    m_inf = np.linalg.inv(m0 @ m1)
    total = sum(branch_angle(z) for m in (m0, m1, m_inf)
                for z in np.linalg.eigvals(m))
    c = round(total)
    if abs(total - c) > INTEGER_SLACK:
        raise Undecided(f"angle sum {total!r} is not near an integer")
    return -c


def c1_from_angles(q0s, q1s) -> int:
    """Degree of a triangular pair with diagonal angles q0s, q1s (Fractions).

    The product is triangular with angles q0 + q1, so the angles at infinity
    are -(q0 + q1) mod 1.
    """
    total = sum(q0s, Fraction(0)) + sum(q1s, Fraction(0))
    total += sum(((-(a + b)) % 1 for a, b in zip(q0s, q1s)), Fraction(0))
    if total.denominator != 1:
        raise Undecided(f"planted angle sum {total} is not an integer")
    return -int(total)


def character_root(q0: float, q1: float) -> int:
    """Root of the character with branch angles q0, q1 at 0 and 1."""
    s = q0 + q1
    return -round(s + (-s) % 1.0)


def irreducible_dim3_options(c1: int) -> set[tuple[int, ...]]:
    """Splitting types the c1 mod 3 theorem allows for irreducible dim 3."""
    z = c1
    if z % 3 == 0:
        k = z // 3
        return {(k, k, k), (k + 1, k, k - 1)}
    if z % 3 == 1:
        return {((z + 2) // 3, (z - 1) // 3, (z - 1) // 3)}
    return {((z + 1) // 3, (z + 1) // 3, (z - 2) // 3)}


def _desc(roots) -> tuple[int, ...]:
    return tuple(sorted((int(r) for r in roots), reverse=True))


def check_record(record: dict, expect: dict) -> list[str]:
    """Problems with one output record of ``classify_document``.

    ``expect`` carries what the benchmark knows about the input: ``label``,
    ``n``, ``c1`` (from eigvals), optionally ``c1_exact`` (Fraction
    arithmetic), ``kind`` (planted composition kind), ``roots`` (the
    determined answer), ``irreducible_dim3`` / ``unitary`` flags, or
    ``error``: the error type the program is known to raise on the input.
    """
    label = expect["label"]
    if "error" in expect:  # an input the program is known to refuse
        got = record.get("error", {}).get("type")
        if record.get("label") != label or got != expect["error"]:
            return [f"{label}: expected the known {expect['error']}, "
                    f"got {got or 'an answer'}"]
        return []
    if "error" in record:
        return [f"{label}: program error {record['error']}"]
    problems = []

    def bad(msg):
        problems.append(f"{label}: {msg}")

    if record.get("label") != label or record.get("n") != expect["n"]:
        bad(f"record is for {record.get('label')!r} n={record.get('n')}")
    c1 = record["chern"]["c1"]
    if c1 != expect["c1"]:
        bad(f"c1 {c1} != eigvals reference {expect['c1']}")
    if "c1_exact" in expect and c1 != expect["c1_exact"]:
        bad(f"c1 {c1} != planted-angle reference {expect['c1_exact']}")
    options = [_desc(o) for o in record["result"]["options"]]
    if not options:
        bad("no options")
    for opt in options:
        if sum(opt) != expect["c1"]:
            bad(f"option {opt} does not sum to c1 = {expect['c1']}")
    kind = record["composition"]["kind"]
    if "kind" in expect and kind != expect["kind"]:
        bad(f"composition {kind!r} != planted {expect['kind']!r}")
    if "roots" in expect and options != [_desc(expect["roots"])]:
        bad(f"options {options} != planted roots {_desc(expect['roots'])}")
    if expect.get("irreducible_dim3") and \
            set(options) != irreducible_dim3_options(expect["c1"]):
        bad(f"options {options} != c1 mod 3 theorem "
            f"{sorted(irreducible_dim3_options(expect['c1']))}")
    n = expect["n"]
    for opt in options:
        if n == 1 and opt[0] not in (0, -1, -2):
            bad(f"character root {opt[0]} outside {{0, -1, -2}}")
        if n == 2 and not all(-2 <= r <= 0 for r in opt):
            bad(f"dim-2 option {opt} outside [-2, 0]")
        if n == 3 and kind != "irreducible":
            if not all(-3 < r <= 0 for r in opt):
                bad(f"reducible dim-3 option {opt} outside (-3, 0]")
            if opt == FORBIDDEN_REDUCIBLE_DIM3:
                bad(f"excluded multiset {opt} for a reducible dim-3 rep")
    if expect.get("unitary") and kind == "irreducible" and not c1 < 0:
        bad(f"irreducible unitary dim-2 with c1 = {c1} >= 0")
    return problems


def check_document(doc: dict, expects: list[dict]) -> list[str]:
    results = doc.get("results", [])
    if len(results) != len(expects):
        return [f"{len(results)} records for {len(expects)} reps"]
    problems = []
    for record, expect in zip(results, expects):
        problems.extend(check_record(record, expect))
    return problems


def check_report(violations: list, histogram: dict, reference: Counter,
                 known: dict | None = None) -> list[str]:
    """Problems with one ``sample_and_check`` report.

    ``known`` maps a sample index to the error type the program is known to
    raise on it; those samples, and only those, must be violations naming
    that error.
    """
    known = known or {}
    problems = []
    found = {v["sample"]: v for v in violations}
    if len(found) != len(violations) or set(found) != set(known):
        problems.append(f"violations at samples {sorted(found)}, expected "
                        f"{sorted(known)}: {violations[:3]}")
    for i, error in known.items():
        if i in found and not str(found[i]["got"]).startswith(error):
            problems.append(f"sample {i}: expected {error}, got {found[i]}")
    if dict(histogram) != dict(reference):
        problems.append(f"c1 histogram {dict(sorted(histogram.items()))} != "
                        f"eigvals reference {dict(sorted(reference.items()))}")
    return problems
