"""Exception types shared across the package."""


class InfeasibleProblem(ValueError):
    """No admissible solution exists for the requested model coefficients."""


class ImprovementUndefined(ValueError):
    """The one-step policy improvement target is not a proper Gaussian."""
