"""Exception types shared across the pipeline, mapped to CLI exit codes."""


class ClusterHopError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1
    error_class = "error"


class ParseError(ClusterHopError):
    """Input file is not syntactically valid (bad JSON, bad CSV, ...)."""

    exit_code = 2
    error_class = "parse"


class ValidationError(ClusterHopError):
    """Input parsed but violates an invariant; message names the violation."""

    exit_code = 2
    error_class = "validate"


class InfeasibleError(ClusterHopError):
    """No valid plan exists (e.g. no snapshot of the requested size)."""

    exit_code = 3
    error_class = "infeasible"


class CapExceededError(ClusterHopError):
    """A combinatorial enumeration would exceed its configured cap."""

    exit_code = 4
    error_class = "cap-exceeded"


class SolverError(ClusterHopError):
    """The LP solver failed: its basis matrix became singular, or an LP
    that always has an optimum reported none or an unbounded ray."""

    exit_code = 6
    error_class = "solver"
