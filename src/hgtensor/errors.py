"""Exception types shared across the package."""

from __future__ import annotations


class HgTensorError(Exception):
    """Base class for all hgtensor errors."""


class EmptyHypergraph(HgTensorError):
    """Raised when an operation needs at least one hyperedge."""


class UnknownVertex(HgTensorError):
    """Raised when a vertex index is outside the hypergraph's range."""


class VertexCollision(HgTensorError):
    """Raised when a vertex to be added is already present."""


class RepeatedHyperedge(HgTensorError):
    """Raised when an operation requires pairwise-distinct hyperedges.

    Carries the 1-based positions of the two colliding edges.
    """

    def __init__(self, first: int, second: int, message: str | None = None):
        self.first = first
        self.second = second
        super().__init__(
            message or f"hyperedges {first} and {second} are identical"
        )


class NotUniform(HgTensorError):
    """Raised when a layer is expected to be k-uniform but is not."""


class NotHomogeneous(HgTensorError):
    """Raised when a polynomial is expected to be homogeneous but is not."""


class UnexpectedRepeatedIndex(HgTensorError):
    """Raised on a monomial or tuple with a repeated index.

    The layered construction only ever produces square-free monomials
    (every hyperedge holds distinct vertices), so a repeated index
    signals an upstream bug rather than a representable input.
    """


class MalformedTensor(HgTensorError):
    """Raised when a tensor is not a layered e-adjacency tensor.

    Carries the offending canonical entry, when one entry is at fault.
    """

    def __init__(self, message: str, entry: tuple[int, ...] | None = None):
        self.entry = entry
        super().__init__(message)


class DimensionMismatch(HgTensorError):
    """Raised when a vector length does not match the tensor dimension."""


class OrderTooSmall(HgTensorError):
    """Raised when the eigensolver is asked for an order-1 tensor."""


class NoConvergence(HgTensorError):
    """Power iteration did not converge within the iteration budget.

    Carries the last Perron bracket [lambda_min, lambda_max] (shift
    already subtracted).
    """

    def __init__(self, lambda_min: float, lambda_max: float, iterations: int):
        self.lambda_min = lambda_min
        self.lambda_max = lambda_max
        self.iterations = iterations
        super().__init__(
            f"no convergence after {iterations} iterations; "
            f"eigenvalue bracketed in [{lambda_min!r}, {lambda_max!r}]"
        )


class ParseError(HgTensorError):
    """Input file could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
