"""Shared exception types."""


class ContradictionError(RuntimeError):
    """Two independent computations of one fact disagree on a concrete graph.

    Each raise compares two computations, such as the exact spectrum against
    the structure read off M^2, or a closed formula against a construction,
    on an input inside the statement's hypotheses; a disagreement indicates
    a bug.  Never raised for ordinary negative answers or for inputs outside
    the hypotheses, nor by a check that restates the code's own arithmetic.
    """


class InfeasibleError(ValueError):
    """Parameter or multiplicity arithmetic has no feasible solution."""


class SpectrumShapeError(ValueError):
    """A spectrum does not match the eigenvalue pattern an operation needs."""
