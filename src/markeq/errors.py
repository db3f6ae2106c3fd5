"""Exception types shared across the package."""


class MarkeqError(Exception):
    """Base class for all package errors."""


class ModelError(MarkeqError, ValueError):
    """Invalid model data (bad grids, non-stochastic rows, empty intervals...)."""


class ConfigError(MarkeqError, ValueError):
    """Malformed or incomplete configuration document."""


class InfeasibleControlError(MarkeqError, ValueError):
    """A control value lies outside the feasible interval at its state."""


class KernelError(MarkeqError, ValueError):
    """Kernel violates its contract (sigma floor, bad quadrature, ...)."""


class SolverError(MarkeqError, RuntimeError):
    """Backward induction could not complete (non-finite objective, ...)."""
