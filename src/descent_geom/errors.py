"""Exception types shared across the library."""


class DescentGeomError(Exception):
    """Base class for all library errors."""


class InvalidInput(DescentGeomError):
    """Malformed or out-of-range input data."""


class DimensionMismatch(InvalidInput):
    """Operands live in different ambient dimensions."""


class PreconditionViolated(DescentGeomError):
    """A documented operation precondition does not hold."""


class NumericalFailure(DescentGeomError):
    """An iterative solver failed to reach its certificate."""


class NotAChain(InvalidInput):
    """Two bodies in a candidate stratification are not nested either way."""

    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__(f"bodies {i} and {j} are not comparable by inclusion")


class Degenerate(InvalidInput):
    """A stratification whose minimum and maximum coincide."""
