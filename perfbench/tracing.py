"""Span tracing for the per-layer run, installed from outside the program.

``install`` replaces every public function of the traced logroots modules,
in every module namespace that holds it, by a wrapper that records a span
(name, start, end, parent, request).  Start and end are process CPU
times, like the request times of the untraced run.  Two calls into
libraries get spans too: ``jsonschema.validate`` as called from
``logroots.io`` and ``numpy.linalg.svd`` as called from any logroots
module.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import json
import time

MODULES = ("io", "rep", "linalg", "chern", "exact", "classify", "oracle")


class _Proxy:
    """Stands in for a module, overriding a few attributes."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        # rows: [name, start, end, parent index, request, outermost-of-name]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self.request = -1  # spans are recorded only while >= 0

    def wrap(self, name: str, fn):
        spans, stack, open_names = self.spans, self._stack, self._open
        clock = time.process_time

        def traced(*args, **kwargs):
            if self.request < 0:
                return fn(*args, **kwargs)
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request,
                   not open_names.get(name)]
            spans.append(row)
            stack.append(idx)
            open_names[name] = open_names.get(name, 0) + 1
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
                open_names[name] -= 1

        traced.__wrapped__ = fn
        return traced

    def write(self, path, meta: dict) -> None:
        """Write the spans as gzipped JSON, a chunk of rows at a time, so
        the file is never held in memory as a whole."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        head = json.dumps({**meta, "names": names,
                           "columns": ["name", "start_cpu_ns", "end_cpu_ns",
                                       "parent", "request"]},
                          separators=(",", ":"))
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(head[:-1] + ',"spans":[')
            for lo in range(0, len(self.spans), 10000):
                if lo:
                    fh.write(",")
                fh.write(",".join(
                    "[%d,%d,%d,%d,%d]" % (index[s[0]], round((s[1] - t0) * 1e9),
                                          round((s[2] - t0) * 1e9), s[3], s[4])
                    for s in self.spans[lo:lo + 10000]))
            fh.write("]}")


def install(tracer: Tracer) -> None:
    import jsonschema
    import numpy

    import logroots

    mods = {m: importlib.import_module(f"logroots.{m}") for m in MODULES}
    namespaces = [logroots, *mods.values()]
    for short, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != mod.__name__ \
                    or inspect.isgeneratorfunction(fn):
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", fn)
            for ns in namespaces:
                if vars(ns).get(attr) is fn:
                    setattr(ns, attr, wrapped)
    mods["io"].jsonschema = _Proxy(
        jsonschema, validate=tracer.wrap("io.schema_validate",
                                         jsonschema.validate))
    np_proxy = _Proxy(numpy, linalg=_Proxy(
        numpy.linalg, svd=tracer.wrap("numpy.linalg.svd", numpy.linalg.svd)))
    for mod in mods.values():
        if vars(mod).get("np") is numpy:
            mod.np = np_proxy


# ---------------------------------------------------------------------------
# per-layer metrics

_PARSE = {"io.parse_input_document", "io.input_schema", "io.load_input"}
_EMIT = {"io.classify_document", "io.classify_rep_to_json",
         "io.chern_to_json", "io.result_to_json", "io.output_schema",
         "io.chern_document"}

PER_LAYER_UNITS = {
    "io.parse_s": "s/rep",
    "io.schema_validate_s": "s/rep",
    "io.schema_validate_calls": "calls/request",
    "io.emit_self_s": "s/rep",
    "rep.analyze_calls_per_rep": "calls/rep",
    "rep.analyze_s": "s/rep",
    "rep.invariant_search_calls_per_rep": "calls/rep",
    "linalg.eigenvalues_calls_per_rep": "calls/rep",
    "linalg.eigenvalues_s": "s/rep",
    "linalg.jordan_form_s": "s/rep",
    "linalg.principal_log_calls_per_rep": "calls/rep",
    "linalg.principal_log_s": "s/rep",
    "linalg.svd_calls_per_rep": "calls/rep",
    "chern.chern_class_calls_per_rep": "calls/rep",
    "chern.chern_class_self_s": "s/rep",
    "exact.rational_angles_calls_per_rep": "calls/rep",
    "exact.rational_angles_s": "s/rep",
    "classify.classify_calls_per_rep": "calls/rep",
    "classify.classify_self_s": "s/rep",
    "oracle.sample_s": "s/rep",
    "oracle.check_self_s": "s/rep",
    "oracle.useful_check_ratio": "ratio",
}


def per_layer(spans, first_request: int, reps: int, requests: int,
              checks_run: int, checks_skipped: int) -> dict[str, float]:
    """Per-layer metrics over the spans of requests >= first_request.

    ``*_s`` are seconds per rep (per sample in verify-sweep): inclusive
    time of the outermost spans of a name, or self time (span minus its
    child spans) where the name says ``self``.  ``*_calls_per_rep`` count
    every span of the name.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s[4] < first_request:
            continue
        name, dur = s[0], s[2] - s[1]
        calls[name] = calls.get(name, 0) + 1
        if s[5]:
            incl[name] = incl.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]

    def per_rep_calls(name):
        return calls.get(name, 0) / reps

    def per_rep_time(table, *names):
        return sum(table.get(n, 0.0) for n in names) / reps

    total_checks = checks_run + checks_skipped
    out = {
        "io.parse_s": per_rep_time(self_t, *_PARSE),
        "io.schema_validate_s": per_rep_time(incl, "io.schema_validate"),
        "io.schema_validate_calls": calls.get("io.schema_validate", 0) / requests,
        "io.emit_self_s": per_rep_time(self_t, *_EMIT),
        "rep.analyze_calls_per_rep": per_rep_calls("rep.analyze"),
        "rep.analyze_s": per_rep_time(incl, "rep.analyze"),
        "rep.invariant_search_calls_per_rep":
            per_rep_calls("rep.common_invariant_subspaces"),
        "linalg.eigenvalues_calls_per_rep": per_rep_calls("linalg.eigenvalues"),
        "linalg.eigenvalues_s": per_rep_time(incl, "linalg.eigenvalues"),
        "linalg.jordan_form_s": per_rep_time(incl, "linalg.jordan_form"),
        "linalg.principal_log_calls_per_rep":
            per_rep_calls("linalg.principal_log"),
        "linalg.principal_log_s": per_rep_time(incl, "linalg.principal_log"),
        "linalg.svd_calls_per_rep": per_rep_calls("numpy.linalg.svd"),
        "chern.chern_class_calls_per_rep": per_rep_calls("chern.chern_class"),
        "chern.chern_class_self_s": per_rep_time(self_t, "chern.chern_class"),
        "exact.rational_angles_calls_per_rep":
            per_rep_calls("exact.rational_angles"),
        "exact.rational_angles_s": per_rep_time(incl, "exact.rational_angles"),
        "classify.classify_calls_per_rep": per_rep_calls("classify.classify"),
        "classify.classify_self_s": per_rep_time(self_t, "classify.classify"),
        "oracle.sample_s": per_rep_time(incl, "oracle.sample_rep"),
        "oracle.check_self_s": per_rep_time(self_t, "oracle.sample_and_check"),
        "oracle.useful_check_ratio":
            checks_run / total_checks if total_checks else 0.0,
    }
    return out
