"""Error types shared across the package.

ValidationError maps to CLI exit code 1, ConvergenceError to exit code 2.
"""


class ValidationError(ValueError):
    """Invalid physical parameters or request options."""


class ConvergenceError(RuntimeError):
    """A numerical procedure failed to reach its tolerance within budget.

    Carries the best value reached and an error bound.  The run drivers
    turn the exact oracle's into a degraded row that keeps them; a gap
    solve's stops the whole command (CLI exit code 2).
    """

    def __init__(self, message, value=None, bound=None):
        super().__init__(message)
        self.value = value
        self.bound = bound
