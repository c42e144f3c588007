"""Exception types shared across the package."""


class CrossfluxError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CrossfluxError):
    """Raised for structurally invalid configuration: bad grid sizes,
    mismatched shapes, unknown schemes, malformed config files."""


class DomainError(CrossfluxError, ValueError):
    """Raised when an argument is outside the mathematical domain of an
    operation (negative time, non-positive diffusivity, and so on)."""


class BlowupError(CrossfluxError):
    """A run's state stopped being finite: raised by one run, returned by a batch member.

    Carries the step index at which the blow-up was detected and the
    partial trajectory recorded up to that point.
    """

    def __init__(self, step: int, trajectory):
        super().__init__(f"non-finite state detected at step {step}")
        self.step = step
        self.trajectory = trajectory
