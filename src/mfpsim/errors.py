"""Exception types shared across the engine."""


class ResourceConflictError(RuntimeError):
    """A reservation touched a cell already held by a different service."""


class LinkUnusableError(ValueError):
    """A transfer was requested over a link with non-positive spectral efficiency."""


class InfeasibleError(ValueError):
    """A workload cannot be produced with the given attributes or budgets."""


class GainShortfallError(RuntimeError):
    """The requested gain interval cannot be reached by any feasible allocation.

    Carries the best achievable gain so callers can record partial progress
    instead of aborting a whole simulation.
    """

    def __init__(self, reason: str, max_gain: float):
        super().__init__(f"gain target unreachable ({reason}); max achievable {max_gain:.6g}")
        self.reason = reason
        self.max_gain = max_gain


class ConfigError(ValueError):
    """Experiment configuration failed schema validation."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
