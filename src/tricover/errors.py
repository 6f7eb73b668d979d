"""Exceptions shared across the package."""


class TricoverError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(TricoverError):
    """An input file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class NotLinearError(TricoverError):
    """Operation requires a linear hypergraph (pairwise hyperedge intersections of size at most 1)."""


class NotThreeUniformError(TricoverError):
    """Operation requires every hyperedge to have exactly 3 vertices."""


class CyclicInputError(TricoverError):
    """Operation requires an acyclic hypergraph."""


class EmptyHyperedgeError(TricoverError):
    """Operation cannot handle empty hyperedges (a transversal would not exist)."""


class IsolatedVertexError(TricoverError):
    """Operation requires a hypergraph without isolated vertices."""


class ExperimentSpecError(TricoverError, ValueError):
    """An experiment spec has an out-of-range or unknown field. Also a
    ValueError, since it rejects a bad argument value."""


class BudgetExceededError(TricoverError):
    """An exact search ran past its instance-size or node budget."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in tricover, not bad input.

    Deliberately not a TricoverError, so the CLI never reports it as a
    precondition violation. Raised explicitly rather than through `assert`,
    which `python -O` strips.
    """
