"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Inputs live on spheres of different ambient dimension."""


class InvalidDimensionError(ValueError):
    """Sphere dimension must be at least 1 (ambient dimension at least 2)."""


class FeasibilityError(ValueError):
    """Input size exceeds what the operation can handle exactly."""


class PreconditionError(ValueError):
    """A documented precondition on the inputs is violated."""


class NumericalError(RuntimeError):
    """A numerical routine failed beyond its recovery ladder."""
