"""Exception types shared across the lab."""


class LabError(Exception):
    """Base class for all jumplab errors."""


class DistanceUnreachable(LabError):
    """Two vertices of an explicit graph lie in different components."""


class WindowTooLarge(LabError):
    """A requested ball/window exceeds the enumeration cap, or its dense
    matrix the byte budget."""


class DivergentTail(LabError):
    """An infinite kernel sum does not converge (alpha <= 0)."""


class TruncationBudgetExceeded(LabError):
    """A semigroup series could not reach the tolerance within the term cap."""


class NoExit(LabError):
    """Expected exit time requested on a conservative (reflected) model."""


class NumericalFailure(LabError):
    """A linear solve failed or returned a non-finite result."""


class WindowUnconverged(LabError):
    """Doubling the window moved a probed quantity by more than the allowed margin."""


class ConfigError(LabError):
    """Malformed experiment configuration."""
