"""Tolerances: every entry point refuses the same out-of-range values."""

import math

import numpy as np
import pytest

from logroots import DEFAULT, MonodromyRep, Tolerances, classify
from logroots.errors import SchemaError


@pytest.mark.parametrize("name, value", [
    ("eps_sing", "x"), ("eps_sing", -1.0), ("eps_cluster", math.nan),
    ("eps_recon", math.inf),
    pytest.param("eps_recon", 10 ** 400, id="eps_recon-int-beyond-float"),
    ("eps_int", True),
    ("eps_inv", None), ("max_denominator", 2.5), ("max_denominator", 0),
    ("max_denominator", True), ("max_denominator", "60"),
    ("max_denominator", -5),
])
def test_bad_value_is_schema_error(name, value):
    with pytest.raises(SchemaError, match=f"tolerance {name}:"):
        DEFAULT.override(**{name: value})
    with pytest.raises(SchemaError, match=f"tolerance {name}:"):
        Tolerances(**{name: value})


def test_classify_refuses_before_computing():
    rep = MonodromyRep(np.eye(2), np.eye(2))
    with pytest.raises(SchemaError, match="eps_sing"):
        classify(rep, DEFAULT.override(eps_sing="x"))


def test_valid_values_are_coerced():
    tol = DEFAULT.override(eps_int=0, eps_branch=0.0,
                           max_denominator=np.int64(16), eps_inv=np.float64(1e-9))
    assert tol.eps_int == 0.0 and type(tol.eps_int) is float
    assert tol.max_denominator == 16 and type(tol.max_denominator) is int
    assert type(tol.eps_inv) is float
    assert DEFAULT.override(eps_int=0.0).eps_int == 0.0
    assert Tolerances() == DEFAULT
