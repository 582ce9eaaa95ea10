"""Exception hierarchy."""


class LogrootsError(Exception):
    """Base class for all errors raised by this package."""


class SingularMatrix(LogrootsError):
    """Matrix is singular (or numerically indistinguishable from singular)."""


class DimensionError(LogrootsError):
    """Dimension outside the supported range or inconsistent with the input."""


class NonFiniteMatrix(LogrootsError, ValueError):
    """A matrix has an infinite or NaN entry, such as a product of finite
    generators that overflows."""


class InconsistentCertificate(LogrootsError):
    """The subspace search and the sigma certificate disagree about
    irreducibility, or a sub, quotient or summand has a block eigenvalue
    that matches no parent eigenvalue, or several.  The message states
    both verdicts and the tolerance each was judged against: the line
    search's relative pencil residual ``eps_inv``, sigma's ``eps_sigma``
    times the eigenvalue scale, or the ``eps_cluster`` radius of the
    match.  Usually a sign of a borderline input, such as eigenvalues
    merged within ``eps_cluster``."""


class RelationViolated(LogrootsError):
    """The candidate modular-group images do not satisfy S^2 = (ST)^3 = I."""

    def __init__(self, res_s2: float, res_st3: float):
        self.res_s2 = res_s2
        self.res_st3 = res_st3
        super().__init__(
            f"group relations violated: |S^2 - I| = {res_s2:.3e}, "
            f"|(ST)^3 - I| = {res_st3:.3e}"
        )


class NonIntegerChern(LogrootsError):
    """The branch-angle sum did not land on an integer within tolerance.
    Indicates numerical inconsistency; consider exact rational-angle input."""


class ProvenBoundViolated(LogrootsError):
    """A dim-2 rep's degree is outside the window 0 >= c1 >= -4, or an
    irreducible unitary one has c1 = 0.  The window is enforced on every
    dim-2 pair, unitary or not, and non-unitary pairs with c1 = -5 exist;
    ``classify`` refuses those with RootOutOfProvenRange first."""


class RootOutOfProvenRange(LogrootsError):
    """A computed root fell outside its proven window."""


class EmptyIntersection(LogrootsError):
    """Candidate sets from two sound classification routes have empty
    intersection.  Never expected; indicates an internal inconsistency."""


class AmbiguousPart(LogrootsError):
    """A direct-sum component classified as a candidate set, so the direct-sum
    oracle cannot produce a single ground-truth multiset."""


class SchemaError(LogrootsError):
    """Input document failed schema validation."""


class ExactModeError(LogrootsError):
    """Exact mode could not certify the input (angle not recognized as a
    rational with bounded denominator, or modulus not 1)."""
