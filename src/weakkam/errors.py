"""Exception types shared across the package."""


class WeakKamError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(WeakKamError):
    """Invalid or inconsistent experiment configuration."""


class NoSublevelError(WeakKamError):
    """The requested sublevel {H(x, p) <= c} is empty."""


class TruncationError(WeakKamError):
    """A numerical conjugate attained its max on the momentum-box boundary."""


class StencilError(WeakKamError):
    """A velocity stencil is inconsistent with the grid or bounds."""


class ConvergenceError(WeakKamError):
    """Iteration budget exhausted, or the final residual above its target."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class EmptyAubryError(WeakKamError):
    """No node satisfies h(y, y) <= eps; the shift or eps is misconfigured."""


class InfeasibleError(WeakKamError):
    """A linear program that should always be feasible was not."""


class UnboundedError(WeakKamError):
    """A linear program with a bounded optimum reported unboundedness."""
