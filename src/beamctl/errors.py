"""Error types shared across the package."""

__all__ = ["ConfigError", "NumericalError"]


class ConfigError(Exception):
    """Invalid or inconsistent run configuration.

    `key` points at the offending configuration entry when known.
    """

    def __init__(self, message: str, key: str | None = None):
        self.message = message
        self.key = key
        super().__init__(f"{key}: {message}" if key else message)


class NumericalError(Exception):
    """Numerical failure: divergence, ill-conditioning, or non-convergence."""
