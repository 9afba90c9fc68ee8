"""Exception types shared across the engine."""


class ResourceConflictError(RuntimeError):
    """A reservation touched a cell already held by a different service."""


class LinkUnusableError(ValueError):
    """A transfer was requested over a link with non-positive spectral efficiency."""


class InfeasibleError(ValueError):
    """A workload cannot be produced with the given attributes or budgets."""


class GainShortfallError(RuntimeError):
    """The market found no allocation that reaches the gain floor within the
    window and keeps every client and the platform rational.

    `reason` names the check that stopped it: "floor out of reach", "server
    rationality" or "rationality loop failed to settle".  The runner then
    loads the saturated fallback instead.
    """

    def __init__(self, reason: str):
        super().__init__(f"gain target unreachable ({reason})")
        self.reason = reason


class ConfigError(ValueError):
    """Experiment configuration failed schema validation."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
