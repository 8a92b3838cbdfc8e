"""Exception hierarchy shared across the package."""


class FiemError(Exception):
    """Base class for all library errors."""


class ConfigurationError(FiemError):
    """Fatal configuration problem (dimension mismatch, invalid constants)."""


class DomainError(FiemError):
    """A statistic vector lies outside the domain of the maximization map.

    The message names the violated admissibility condition.
    """


class UnsupportedCapabilityError(FiemError):
    """The model does not expose the requested optional capability."""


class MemoryStateError(FiemError):
    """A memory table was used before being initialized."""


class InfeasiblePlanError(FiemError):
    """A step-size plan cannot be built; ``condition`` names the violated
    inequality."""

    def __init__(self, condition: str):
        super().__init__(condition)
        self.condition = condition


class RunAbortError(FiemError):
    """A run hit a domain violation or diverged mid-path."""

    def __init__(self, iteration: int, condition: str):
        super().__init__(f"iteration {iteration}: {condition}")
        self.iteration = iteration
        self.condition = condition

    def __reduce__(self):
        # rebuild from both fields, so the error survives a process pool
        return type(self), (self.iteration, self.condition)
