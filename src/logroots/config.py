"""Numerical tolerances used across the package.

All thresholds live in one place so they can be overridden consistently
(e.g. from the command line or a config file).  Relative tolerances are
applied against a problem-dependent scale by the caller.  A float field
holds a finite number >= 0 and an integer field an integer >= 1; any
other value, a bool included, raises SchemaError naming the field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real

from .errors import SchemaError


def _checked(name: str, value, integer: bool):
    """``value`` as the tolerance ``name``: an integer >= 1 for an integer
    field, else a finite float >= 0.  Raises SchemaError naming ``name``."""
    if not isinstance(value, bool):
        if integer:
            if isinstance(value, Integral) and value >= 1:
                return int(value)
        elif isinstance(value, Real):
            try:
                x = float(value)
            except OverflowError:  # an integer beyond the float range
                x = math.inf
            if math.isfinite(x) and x >= 0:
                return x
    wanted = "an integer >= 1" if integer else "a finite number >= 0"
    raise SchemaError(f"tolerance {name}: {value!r} is not {wanted}")


@dataclass(frozen=True)
class Tolerances:
    # invertibility: |det A| must exceed this
    eps_sing: float = 1e-12
    # residual allowed in the modular-group relations (relative to the
    # scale) and in the unitarity test
    eps_recon: float = 1e-8
    # relative clustering radius deciding equal eigenvalues; the output's
    # margins.cluster_gap counts the closest pair's distance in its units
    eps_cluster: float = 1e-7
    # distance from the branch cut q in {0, 1} below which q snaps to 0;
    # the snap moves exp(log z) by up to 2*pi*eps_branch relative
    eps_branch: float = 1e-10
    # relative residual for invariant-subspace detection
    eps_inv: float = 1e-8
    # absolute residual allowed when snapping the Chern sum to an integer
    eps_int: float = 1e-6
    # relative threshold for the dim-2 irreducibility certificate sigma
    eps_sigma: float = 1e-9
    # largest denominator tried when recognizing rational branch angles
    max_denominator: int = 4096

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _checked(f.name, getattr(self, f.name),
                                        isinstance(f.default, int)))

    def override(self, **kwargs) -> "Tolerances":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT = Tolerances()

TOLERANCE_NAMES = tuple(f.name for f in fields(Tolerances))
