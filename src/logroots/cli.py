"""Command-line front end.

Subcommands: classify, chern, tree, verify, example.  Exit codes: 0 on
success, 2 on schema/usage errors, 3 on computation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import io as lio
from .classify import candidate_tree
from .config import DEFAULT, TOLERANCE_NAMES, Tolerances
from .errors import SchemaError
from .linalg import _REP_ERRORS
from .oracle import CHECKS, ENSEMBLES, SampleSpec, sample_and_check
from .presets import PRESETS, preset


def _add_tol_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("tolerances")
    group.add_argument("--config", metavar="FILE",
                       help="JSON file of tolerance overrides "
                            "(flag > file > default)")
    for name in TOLERANCE_NAMES:
        flag = "--tol-" + name.replace("_", "-")
        group.add_argument(flag, type=type(getattr(DEFAULT, name)),
                           dest=f"tol_{name}", default=None,
                           help=f"override {name} (default {getattr(DEFAULT, name)})")


def _at_least(low: int):
    """An argparse type: an integer no less than ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is less than {low}")
        return value
    parse.__name__ = "integer"
    return parse


def _tolerances(args) -> Tolerances:
    overrides = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_overrides = json.load(fh)
        if not isinstance(file_overrides, dict):
            raise SchemaError(f"config {args.config} does not hold a JSON "
                              "object of tolerance names")
        unknown = set(file_overrides) - set(TOLERANCE_NAMES)
        if unknown:
            raise SchemaError(f"unknown tolerance names in config: {sorted(unknown)}")
        overrides.update(file_overrides)
    for name in TOLERANCE_NAMES:
        value = getattr(args, f"tol_{name}", None)
        if value is not None:
            overrides[name] = value
    return DEFAULT.override(**overrides)


def _emit(doc, out: Optional[str]) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _pretty_classify(doc) -> str:
    lines = []
    header = f"{'label':<20} {'n':>1} {'c1':>3} {'kind':<12} {'status':<10} roots"
    lines.append(header)
    lines.append("-" * len(header))
    for rec in doc["results"]:
        if "error" in rec:
            lines.append(f"{rec.get('label') or '-':<20} {rec['n']:>1} "
                         f"ERROR {rec['error']['type']}: {rec['error']['message']}")
            continue
        roots = " or ".join(rec["result"]["canonical"])
        lines.append(f"{rec.get('label') or '-':<20} {rec['n']:>1} "
                     f"{rec['chern']['c1']:>3} "
                     f"{rec['composition']['kind']:<12} "
                     f"{rec['result']['status']:<10} {roots}")
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    tol = _tolerances(args)
    reps = lio.load_input(args.path)
    doc = lio.classify_document(reps, tol, exact=args.exact,
                                keep_going=args.keep_going)
    if args.pretty:
        print(_pretty_classify(doc))
        if args.out:
            _emit(doc, args.out)
    else:
        _emit(doc, args.out)
    if any("error" in rec for rec in doc["results"]):
        return 3
    return 0


def _cmd_chern(args) -> int:
    tol = _tolerances(args)
    reps = lio.load_input(args.path)
    doc = lio.chern_document(reps, tol, exact=args.exact,
                             keep_going=args.keep_going)
    if args.pretty:
        for rec in doc["results"]:
            if "error" in rec:
                print(f"{rec.get('label') or '-'}: ERROR {rec['error']['message']}")
            else:
                per = ", ".join(f"q({p['pole']})={p['q_sum']:.6f}"
                                for p in rec["chern"]["per_pole"])
                print(f"{rec.get('label') or '-'}: c1 = {rec['chern']['c1']} ({per})")
        if args.out:
            _emit(doc, args.out)
    else:
        _emit(doc, args.out)
    if any("error" in rec for rec in doc["results"]):
        return 3
    return 0


def _cmd_tree(args) -> int:
    patterns = candidate_tree(args.m, args.d, args.c1)
    if args.c1 is None:
        doc = {
            "m": args.m, "d": args.d, "c1": None,
            "patterns": [list(p) for p in patterns],
            "canonical": ["(" + ",".join("x" if o == 0 else f"x{o}" for o in p) + ")"
                          for p in patterns],
        }
    else:
        doc = {
            "m": args.m, "d": args.d, "c1": args.c1,
            "patterns": [list(p.roots) for p in patterns],
            "canonical": [str(p) for p in patterns],
        }
    if args.m > 3:
        doc["conjectural"] = True
    _emit(doc, args.out)
    return 0


_DEFAULT_SUITE = (
    # (ensemble, dim, count, checks)
    ("generic", 2, 2000, ["chern-bound-dim2", "root-bound-dim2",
                          "sum-rule", "integrality"]),
    ("unitary", 2, 500, ["strict-bound-unitary-dim2"]),
    ("blockUpperTriangular", 3, 300, ["reducible-bound-dim3", "nonroots",
                                      "sum-rule"]),
    ("generic", 3, 500, ["sum-rule", "integrality"]),
    ("rationalAngle", 3, 100, ["exact-float-agreement"]),
)


def _cmd_verify(args) -> int:
    tol = _tolerances(args)
    if args.ensemble or args.dim or args.count is not None or args.checks:
        ensemble = args.ensemble or "generic"
        dim = args.dim or 2
        count = 1000 if args.count is None else args.count
        checks = args.checks or _default_checks(ensemble, dim)
        suite = [(ensemble, dim, count, checks)]
    else:
        suite = _DEFAULT_SUITE
    try:
        specs = [(SampleSpec(count=count, dim=dim, ensemble=ensemble,
                             seed=args.seed), checks)
                 for ensemble, dim, count, checks in suite]
    except ValueError as exc:
        raise SchemaError(f"verify: {exc}") from None
    reports = []
    failed = False
    for spec, checks in specs:
        report = sample_and_check(spec, list(checks), tol)
        print(report.summary())
        reports.append(report)
        failed |= not report.ok
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("[" + ",\n".join(r.to_json() for r in reports) + "]\n")
    return 1 if failed else 0


def _default_checks(ensemble: str, dim: int) -> list[str]:
    checks = ["sum-rule", "integrality"]
    if dim == 2:
        checks += ["chern-bound-dim2", "root-bound-dim2"]
        if ensemble == "unitary":
            checks.append("strict-bound-unitary-dim2")
    if dim == 3:
        checks += ["reducible-bound-dim3", "nonroots"]
    if ensemble == "rationalAngle":
        checks.append("exact-float-agreement")
    return checks


def _cmd_example(args) -> int:
    _emit(preset(args.name), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logroots",
        description="Splitting types of extended logarithmic connections "
                    "on the projective line from monodromy matrix pairs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify representations from a "
                                        "JSON input document")
    p.add_argument("path")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--exact", action="store_true",
                   help="certify branch angles as exact rationals")
    p.add_argument("--keep-going", action="store_true",
                   help="report per-rep errors instead of aborting")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("chern", help="print degree data per representation")
    p.add_argument("path")
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--keep-going", action="store_true")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_chern)

    p = sub.add_parser("tree", help="enumerate the candidate weight tree")
    p.add_argument("m", type=_at_least(2), help="number of punctures (>= 2)")
    p.add_argument("d", type=_at_least(1), help="depth / dimension (>= 1)")
    p.add_argument("c1", type=int, nargs="?", default=None,
                   help="solve for concrete roots with this degree")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("verify", help="run sampling verification suites")
    p.add_argument("--ensemble", choices=ENSEMBLES)
    p.add_argument("--dim", type=int, choices=(1, 2, 3))
    p.add_argument("--count", type=_at_least(1),
                   help="samples per suite (>= 1; default 1000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checks", nargs="+", choices=sorted(CHECKS))
    p.add_argument("--out", metavar="FILE")
    _add_tol_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="emit a bundled preset input document")
    p.add_argument("name", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # numpy's LinAlgError is a refusal of a rep, as in keep_going records
    except _REP_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
