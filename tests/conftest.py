import cmath
import importlib

import numpy as np
import pytest

from logroots import MonodromyRep, parse_input_document, preset


def angle(q):
    """Unit-modulus complex number with branch angle q (fraction of a turn)."""
    return cmath.exp(2j * cmath.pi * q)


def random_invertible(rng, n, scale=1.0):
    while True:
        m = scale * (rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n)))
        if abs(np.linalg.det(m)) > 1e-3:
            return m


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Count the calls to ``logroots.<module>.<name>`` from every logroots
    module that holds it; the returned list gets each call's first
    argument."""
    real = getattr(importlib.import_module(f"logroots.{module}"), name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    for short in ("chern", "classify", "exact", "io", "linalg", "oracle",
                  "rep"):
        mod = importlib.import_module(f"logroots.{short}")
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def minimal_doc(**overrides):
    """A valid one-rep input document, top-level keys overridden."""
    doc = {
        "version": "1",
        "reps": [{
            "label": "t",
            "n": 1,
            "m0": [[[-1.0, 0.0]]],
            "m1": [[{"angle": "1/2"}]],
        }],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def worked_example():
    """The reducible-indecomposable 3-dim rep with roots (0, -1, -2)."""
    return parse_input_document(preset("pslz-section5"))[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)
