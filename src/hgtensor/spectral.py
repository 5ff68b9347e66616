"""Degree extraction, the spectral-radius bound, and the H-eigensolver.

For a layered e-adjacency tensor the row sums recover every degree: the
slot of an original vertex sums to its degree, and the slot of special
vertex y_i sums to |{e : |e| <= i}|, so consecutive differences give the
per-layer edge counts.  Every H-eigenvalue lambda (convention
A x^{k-1} = lambda x^{[k-1]}) satisfies |lambda| <= max(Delta, Delta*),
the larger of the maximal original-vertex and special-vertex degrees;
for an r-regular r-uniform hypergraph the bound is attained.

The product and the solver read only a ``LayeredTensor``, whose entries
all hold 1/(k-1)! > 0 and are square-free by construction, so neither
checks sign or repeated indices.  ``largest_h_eigenvalue`` runs a
nonnegative-tensor power iteration on the shifted tensor A + I
(H-eigenpairs shift by exactly 1, which is subtracted back); any
positive shift makes the iteration primitive.  The iterate is normalised
to max 1, so its entries stay of order 1 at every dimension; see the
function docstring for the two stopping rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from hgtensor import kernels
from hgtensor.errors import DimensionMismatch, NoConvergence, OrderTooSmall
from hgtensor.tensor import LayeredTensor


@dataclass(frozen=True)
class DegreeReport:
    """Per-slot degrees of a layered e-adjacency tensor.

    ``degrees`` has length n + k_max - 1: original-vertex degrees first,
    then the cumulative special-vertex degrees (non-decreasing).
    ``layer_counts[j-1]`` is the number of edges of cardinality j; the
    top layer is |E| minus the last special degree, since there is no
    special vertex beyond level k_max - 1.
    """

    n: int
    k_max: int
    degrees: tuple[int, ...]
    layer_counts: tuple[int, ...]

    @property
    def n_edges(self) -> int:
        return sum(self.layer_counts)

    @property
    def delta(self) -> int:
        """Largest original-vertex degree."""
        return max(self.degrees[: self.n])

    @property
    def delta_star(self) -> int:
        """Largest special-vertex degree (0 when there are none)."""
        return max(self.degrees[self.n :], default=0)


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: float
    vector: np.ndarray
    iterations: int
    residual: float


def degrees_from_tensor(t: LayeredTensor) -> DegreeReport:
    """Row sums of the tensor, as exact per-slot degrees.

    A slot's degree is the sum of the tensor over all tuples starting
    with that slot; every row is a square-free tuple of value 1/(k-1)!,
    so it contributes (k-1)! * value = 1 to each of its k slots, and a
    degree counts the rows holding the slot.  y_j is held by the edges
    of size <= j, so successive differences of
    (0, d_y1, ..., d_y{k-1}, |E|) are the layer counts.
    """
    n = t.n
    degrees = tuple(np.bincount(t.rows.ravel(), minlength=t.dim + 1)[1:].tolist())
    cumulative = (0, *degrees[n:], t.nnz)
    layer_counts = tuple(b - a for a, b in zip(cumulative, cumulative[1:]))
    return DegreeReport(n, t.order, degrees, layer_counts)


def spectral_bound(report: DegreeReport) -> int:
    """max(Delta, Delta*): bound on |lambda| for every H-eigenvalue."""
    return max(report.delta, report.delta_star)


def apply(t: LayeredTensor, x) -> np.ndarray:
    """Multilinear product A x^{k-1}: component i sums value * x_{i_2}...x_{i_k}
    over all semantic tuples (i, i_2, ..., i_k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (t.dim,):
        raise DimensionMismatch(
            f"vector of length {x.shape} against dimension {t.dim}"
        )
    indices, values = t.coords()
    return kernels.apply_coords(indices, values, x)


def largest_h_eigenvalue(
    t: LayeredTensor,
    tol: float = 1e-10,
    max_iter: int = 100_000,
    shift: float = 1.0,
    residual_tol: float = 1e-12,
) -> EigenResult:
    """Largest H-eigenvalue of a layered e-adjacency tensor.

    The tensor is nonnegative (every entry holds 1/(k-1)!), as the
    power iteration below requires.

    Power iteration x <- (A x^{k-1} + sigma * x^{[k-1]})^{[1/(k-1)]} from
    x = (1, ..., 1), renormalised to max 1, with sigma = ``shift``
    (H-eigenvalues of the shifted tensor are exactly lambda + sigma, so
    the shift is subtracted without error; Ng-Qi-Zhou 2009).  Two rules:

    * Perron bracket: the component-wise ratios y_i / x_i^{k-1} bracket
      the shifted eigenvalue; converged when max - min < ``tol``.
    * Residual: converged when the unshifted residual
      max_i |(A x^{k-1})_i - lambda * x_i^{k-1}| <= ``residual_tol``,
      with lambda the quotient sum(x * A x^{k-1}) / sum(x^k).  This rule
      also covers tensors whose bracket cannot close: zero rows pin the
      min ratio at sigma and non-dominant irreducible blocks pin it at
      their own eigenvalue, while their components (and hence the
      residual) decay geometrically.

    Returns the vector at unit 1-norm.  Raises ValueError for max_iter < 1,
    a tolerance not >= 0 (NaN included) or a shift not > 0, and
    NoConvergence with the last bracket if ``max_iter`` is hit.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if not (tol >= 0 and residual_tol >= 0 and shift > 0):
        raise ValueError(f"need tol, residual_tol >= 0 and shift > 0, got "
                         f"{tol}, {residual_tol}, {shift}")
    if t.order < 2:
        raise OrderTooSmall("the eigensolver needs a tensor of order >= 2")
    k = t.order
    indices, values = t.coords()

    x = np.ones(t.dim)
    root = 1.0 / (k - 1)
    lam_lo = lam_hi = math.nan
    for iteration in range(1, max_iter + 1):
        ax = kernels.apply_coords(indices, values, x)
        xk1 = x ** (k - 1)
        lam = float(np.dot(x, ax) / np.sum(x * xk1))
        residual = float(np.max(np.abs(ax - lam * xk1)))

        y = ax + shift * xk1
        positive = xk1 > 0.0
        ratios = y[positive] / xk1[positive]
        lam_lo = float(ratios.min()) - shift
        lam_hi = float(ratios.max()) - shift

        if (lam_hi - lam_lo) < tol or residual <= residual_tol:
            return EigenResult(lam, x / x.sum(), iteration, residual)

        x = y**root
        x /= x.max()
    raise NoConvergence(lam_lo, lam_hi, max_iter)
