"""Exception types shared across the package."""


class AmplassoError(Exception):
    """Base class for errors raised by this package."""


class ConvergenceError(AmplassoError):
    """An iterative routine hit its iteration cap before meeting tolerance.

    Carries the partial trajectory (list of iterates) when available.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class DivergenceError(AmplassoError):
    """An iteration produced non-finite values. Carries the iteration index
    and, for stacked iterates, the indices of the rows that diverged."""

    def __init__(self, message, t=None, rows=None):
        super().__init__(message)
        self.t = t
        self.rows = rows


class ConsistencyError(AmplassoError):
    """An internal identity that should hold to numerical precision failed."""
