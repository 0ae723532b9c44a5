"""Shared exception types."""


class ContradictionError(RuntimeError):
    """A concrete instance falsified a statement the toolkit verifies.

    Raised only when arithmetic on an actual graph inside a statement's
    hypotheses contradicts it, which indicates a bug; never for ordinary
    negative answers or for inputs outside the hypotheses.
    """


class InfeasibleError(ValueError):
    """Parameter or multiplicity arithmetic has no feasible solution."""


class SpectrumShapeError(ValueError):
    """A spectrum does not match the eigenvalue pattern an operation needs."""
