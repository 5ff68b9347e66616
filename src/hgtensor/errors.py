"""Exception types shared across the package."""

from __future__ import annotations


class HgTensorError(Exception):
    """Base class for all hgtensor errors."""


class EmptyHypergraph(HgTensorError):
    """Raised when an operation needs at least one hyperedge."""


class UnknownVertex(HgTensorError):
    """Raised when a vertex index is outside the hypergraph's range."""


class RepeatedHyperedge(HgTensorError):
    """Raised when a hypergraph is given two equal hyperedges.

    Carries the 1-based positions of the two colliding edges (file lines
    when raised by ``fileio.parse_hypergraph``).
    """

    def __init__(self, first: int, second: int, message: str | None = None):
        self.first = first
        self.second = second
        super().__init__(
            message or f"hyperedges {first} and {second} are identical"
        )


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

    When one row (entry) is at fault, carries its 0-based index as
    ``row``, and the message is prefixed with ``row <row>: ``; ``args[0]``
    is the message without the prefix.
    """

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        super().__init__(message)

    def __str__(self) -> str:
        message = super().__str__()
        return message if self.row is None else f"row {self.row}: {message}"


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
