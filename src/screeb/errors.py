"""Shared exception types."""


class InvalidDataError(ValueError):
    """Input data violates a basic contract (non-finite values, ragged CSV,
    all-duplicate points, disconnected component passed where a connected
    one is required, ...)."""


class DegenerateInputError(ValueError):
    """Input is structurally too small for the operation (e.g. a kNN graph
    on fewer than two points)."""


class IsolatedPointError(ValueError):
    """An affinity row sums to zero, so the diffusion operator is undefined
    for that point."""


class SolverError(RuntimeError):
    """The Fiedler solve on a component of more than 4096 points, where no
    dense fallback runs, failed: the shift-invert eigensolver did not
    converge, its sparse LU was singular, or its pairs failed the magnitude
    certificate. The message carries the solver's diagnostics."""


class UnitMismatchError(ValueError):
    """A normalized persistence diagram was compared with an unnormalized
    one."""


class ConfigError(ValueError):
    """A configuration file or parameter set failed validation. The message
    names the offending field."""


class GenerationReject(Exception):
    """A synthetic-sample candidate violated a generation constraint and
    must be re-drawn. Carries a short machine-readable reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class GenerationError(RuntimeError):
    """A sample index exhausted its rejection budget; indicates a
    configuration problem rather than bad luck."""
