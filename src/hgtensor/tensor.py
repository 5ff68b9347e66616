"""The layered e-adjacency tensor, exact sparse tensors, both routes.

A symmetric order-k tensor is stored by canonical (non-decreasing) index
tuple; the value at an arbitrary tuple is the value at its sorted form.
The layered e-adjacency tensor of a hypergraph with range k_max has
order k_max and dimension n + k_max - 1: the hyperedge e = {i_1 < ... < i_j}
contributes the single canonical entry

    (i_1, ..., i_j, n + j, ..., n + k_max - 1)  ->  1 / (k_max - 1)!

i.e. the edge padded with the special vertices for its missing levels.
Since every entry holds the same value, the tensor *is* its padded edge
array: ``LayeredTensor`` stores the (|E|, k_max) integer array of those
tuples, checked once with array operations when it is made, and answers
degrees, the handshake total, reconstruction and the solver's COO arrays
from it; it is the only tensor the solver reads.  ``SymSparseTensor`` is
the general exact container (a dict of ``Fraction`` values): the
homogenisation route and the exact oracles use it, and
``LayeredTensor.to_sparse`` is the one conversion between the two.

Two independent routes build the tensor: the direct padding formula
above, and the polynomial homogenisation route (per-layer adjacency
polynomials P_k, folded via R_{k+1} = R_k * y^k + c_{k+1} * P_{k+1}
with dilatation coefficients c_j = k_max / j).  They agree entry for
entry, and the construction is bijective: the hypergraph is recovered
from the tensor with no ambiguity.

All values here are exact rationals; floating point enters only through
``LayeredTensor.coords``, the solver's COO arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from hgtensor.errors import (
    MalformedTensor,
    NotHomogeneous,
    NotUniform,
    UnexpectedRepeatedIndex,
)
from hgtensor.hypergraph import Hypergraph, _require_int
from hgtensor.polynomial import Polynomial
from hgtensor.uniformise import _prepare

DENSE_LIMIT = 1_000_000
INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SymSparseTensor:
    """Order-k, dimension-d symmetric tensor keyed by sorted index tuple."""

    order: int
    dim: int
    entries: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1 or self.dim < 1:
            raise ValueError("order and dimension must be positive")
        clean: dict[tuple[int, ...], Fraction] = {}
        for tup, value in self.entries.items():
            tup = tuple(tup)
            if len(tup) != self.order:
                raise ValueError(f"index tuple {tup} is not of length {self.order}")
            if any(i < 1 or i > self.dim for i in tup):
                raise ValueError(f"index tuple {tup} outside 1..{self.dim}")
            if any(a > b for a, b in zip(tup, tup[1:])):
                raise ValueError(f"index tuple {tup} is not non-decreasing")
            value = Fraction(value)
            if value == 0:
                raise ValueError(f"stored value at {tup} must be nonzero")
            clean[tup] = value
        object.__setattr__(self, "entries", clean)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def value_at(self, indices: Sequence[int]) -> Fraction:
        """Semantic lookup: any permutation resolves to the sorted tuple."""
        if len(indices) != self.order:
            raise ValueError(f"need {self.order} indices, got {len(indices)}")
        return self.entries.get(tuple(sorted(indices)), Fraction(0))


def _pattern_fault(rows: np.ndarray, n: int) -> tuple[int, str] | None:
    """The bad row that comes first in canonical order, and why.

    A padded edge holds j >= 1 increasing original indices (<= n), then
    exactly the special suffix n + j, ..., n + k - 1; equivalently,
    position p (0-based) of a non-decreasing row holds an original index
    or n + p, and originals do not repeat.  Returns None when every row
    is a padded edge.
    """
    k = rows.shape[1]
    originals = rows <= n
    step = rows[:, 1:] - rows[:, :-1]

    def not_the_suffix(i: int) -> str:
        tup = rows[i].tolist()
        j = sum(v <= n for v in tup)
        reason = (f"has special indices {tuple(tup[j:])}, not the suffix "
                  f"{tuple(range(n + j, n + k))} for origin size {j}")
        if tup[-1] > n + k - 1:  # the row is non-decreasing by now
            reason += f", and {tup[-1]} is outside 1..{n + k - 1}"
        return reason

    checks = (
        (rows[:, 0] < 1, "has an index below 1"),
        ((step < 0).any(axis=1), "is not non-decreasing"),
        (~originals[:, 0], f"holds no original vertex (n={n})"),
        (((step == 0) & originals[:, 1:]).any(axis=1), "repeats an original vertex"),
        ((~originals & (rows != n + np.arange(k))).any(axis=1), not_the_suffix),
    )
    bad = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if not bad.size:
        return None
    i = int(bad[np.lexsort(rows[bad].T[::-1])[0]])
    reason = next(reason for mask, reason in checks if mask[i])
    return i, reason if isinstance(reason, str) else reason(i)


@dataclass(frozen=True, eq=False)
class LayeredTensor:
    """Layered e-adjacency tensor, stored as its padded edge array.

    ``rows`` is the read-only (|E|, order) int64 array of the canonical
    1-based index tuples, one per hyperedge in edge order: the edge's
    original vertices (<= n), then its special suffix.  Every entry holds
    ``value`` = 1/(order-1)!, so the rows are the whole tensor.  The
    constructor checks the pattern and that no row repeats, and raises
    MalformedTensor carrying the bad row that comes first in canonical
    order (for a repeat, the later copy).
    """

    n: int
    order: int
    rows: np.ndarray
    _lex: np.ndarray = field(init=False, repr=False)  # canonical row order

    def __post_init__(self):
        _require_int(self.n, "n")
        _require_int(self.order, "order")
        if self.n < 1 or self.order < 1:
            raise MalformedTensor(
                f"need n >= 1 and order >= 1, got n={self.n}, order={self.order}"
            )
        if self.dim > INT64_MAX:
            raise MalformedTensor(f"dimension {self.dim} exceeds the int64 index range")
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != self.order:
            raise MalformedTensor(
                f"rows of shape {rows.shape}, expected (nnz, {self.order})"
            )
        if rows.dtype.kind not in "iu":
            raise MalformedTensor(f"rows of dtype {rows.dtype}, expected integers")
        rows = rows.astype(np.int64)  # a private, read-only copy
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        if not len(rows):  # the checks below take O(order) memory and time
            object.__setattr__(self, "_lex", np.arange(0))
            return
        fault = _pattern_fault(rows, self.n)
        if fault is not None:
            i, reason = fault
            raise MalformedTensor(f"entry {tuple(rows[i].tolist())} {reason}", i)
        # A stable sort, so equal rows are neighbours in row order.
        lex = np.lexsort(rows.T[::-1])
        object.__setattr__(self, "_lex", lex)
        ordered = rows[lex]
        same = np.flatnonzero((ordered[1:] == ordered[:-1]).all(axis=1))
        if same.size:
            first, second = lex[same[0]: same[0] + 2].tolist()
            raise MalformedTensor(
                f"duplicate canonical entry: rows {first} and {second} hold "
                f"the same entry {tuple(rows[first].tolist())}",
                second,
            )

    @property
    def dim(self) -> int:
        return self.n + self.order - 1

    @property
    def nnz(self) -> int:
        return len(self.rows)

    @property
    def value(self) -> Fraction:
        return Fraction(1, math.factorial(self.order - 1))

    def canonical_rows(self) -> np.ndarray:
        """The rows in lexicographic order, the canonical entry order."""
        return self.rows[self._lex]

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """0-based COO indices and float values, in edge order."""
        return self.rows - 1, np.full(self.nnz, float(self.value))

    def to_sparse(self) -> SymSparseTensor:
        """The same tensor as an exact ``SymSparseTensor``."""
        entries = dict.fromkeys(map(tuple, self.rows.tolist()), self.value)
        return SymSparseTensor(self.order, self.dim, entries)


def permutation_count(tup: tuple[int, ...]) -> int:
    """Distinct orderings of the index multiset: k! / prod(mult_i!)."""
    count = math.factorial(len(tup))
    run = 1
    for a, b in zip(tup, tup[1:]):
        run = run + 1 if a == b else 1
        if run > 1:
            count //= run
    return count


def semantic_total(t: SymSparseTensor) -> Fraction:
    """Sum of the tensor over all dim**order index tuples, computed sparsely."""
    return sum(
        (permutation_count(tup) * v for tup, v in t.entries.items()),
        Fraction(0),
    )


def edge_count_from_handshake(t: LayeredTensor) -> Fraction:
    """Generalized handshake: total entry sum divided by the order.

    Every row is square-free (the constructor checks it), so each entry
    is summed over its order! orderings and the exact total is
    nnz * order! * value.  Equals |E| exactly for a layered e-adjacency
    tensor.
    """
    return t.nnz * math.factorial(t.order) * t.value / t.order


def to_dense(t: SymSparseTensor):
    """Debug materialization as a dense float array (small tensors only)."""
    if t.dim**t.order > DENSE_LIMIT:
        raise ValueError(
            f"dense tensor would hold {t.dim ** t.order} elements "
            f"(limit {DENSE_LIMIT})"
        )
    dense = np.zeros((t.dim,) * t.order)
    for tup, value in t.entries.items():
        for perm in set(itertools.permutations(tup)):
            dense[tuple(i - 1 for i in perm)] = float(value)
    return dense


def layer_adjacency(layer: Hypergraph, k: int) -> SymSparseTensor:
    """Degree-normalized adjacency tensor of a k-uniform layer.

    Every hyperedge {i_1 < ... < i_k} stores 1/(k-1)! at its canonical
    tuple, so that summing over all permutations of one edge yields k
    and row sums yield vertex degrees.
    """
    if k < 1:
        raise ValueError("order must be positive")
    value = Fraction(1, math.factorial(k - 1))
    entries: dict[tuple[int, ...], Fraction] = {}
    for e in layer.edges:
        if len(e) != k:
            raise NotUniform(f"edge {e} has cardinality {len(e)}, expected {k}")
        entries[e] = value
    return SymSparseTensor(k, layer.n, entries)


def tensor_to_polynomial(t: SymSparseTensor) -> Polynomial:
    """Homogeneous polynomial with one variable per tensor slot.

    The coefficient of a monomial is the tensor summed over every index
    tuple with that variable multiset; for a canonical tuple of distinct
    indices with value a this is k! * a.
    """
    terms: dict[tuple[int, ...], Fraction] = {}
    for tup, value in t.entries.items():
        exps = [0] * t.dim
        for i in tup:
            exps[i - 1] += 1
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + permutation_count(tup) * value
    # A stored index lies in 1..dim, so every exponent vector is valid.
    return Polynomial._derived(t.dim, terms)


def polynomial_to_tensor(p: Polynomial, order: int, dim: int) -> SymSparseTensor:
    """Inverse of ``tensor_to_polynomial`` for square-free monomials.

    Each degree-``order`` monomial spreads its coefficient uniformly over
    the order! permutations of its variables, i.e. the canonical tuple
    stores coefficient / order!.  Monomials with a repeated variable are
    rejected: the layered construction never produces them, so one is an
    upstream bug.
    """
    entries: dict[tuple[int, ...], Fraction] = {}
    scale = math.factorial(order)
    for exps, coeff in p.terms.items():
        if sum(exps) != order:
            raise NotHomogeneous(
                f"monomial of degree {sum(exps)} in a degree-{order} polynomial"
            )
        if max(exps, default=0) > 1:
            raise UnexpectedRepeatedIndex(
                f"monomial with repeated variable: exponents {exps}"
            )
        tup = tuple(itertools.compress(range(1, len(exps) + 1), exps))
        entries[tup] = coeff / scale
    return SymSparseTensor(order, dim, entries)


def _require_buildable(h: Hypergraph) -> int:
    k_max = h.range()  # raises EmptyHypergraph
    h.require_no_repeats()
    return k_max


def php_polynomials(
    h: Hypergraph, coeffs: Sequence[Fraction] | None = None
) -> list[Polynomial]:
    """All intermediate homogenisation polynomials R_1 .. R_{k_max}.

    R_1 = c_1 * P_1; then R_{k+1} = R_k * y^k + c_{k+1} * P_{k+1}, where
    P_k is the layer-k adjacency polynomial and y^k is the variable of
    special vertex k (slot n + k).  The multiplication by y^k happens
    even when layer k+1 is empty, so each R_k is homogeneous of degree k.
    """
    k_max, cs = _prepare(h, coeffs)
    nvars = h.n + k_max - 1
    layers = h.layers()
    ps = [
        tensor_to_polynomial(layer_adjacency(layers[k - 1], k)).with_nvars(nvars)
        for k in range(1, k_max + 1)
    ]
    out = [ps[0].scaled(cs[0])]
    for k in range(1, k_max):
        out.append(out[-1].times_var(h.n + k) + ps[k].scaled(cs[k]))
    return out


def php_build(
    h: Hypergraph, coeffs: Sequence[Fraction] | None = None
) -> Polynomial:
    """Final homogenisation polynomial R_{k_max}."""
    return php_polynomials(h, coeffs)[-1]


def build_e_adjacency(h: Hypergraph) -> LayeredTensor:
    """Layered e-adjacency tensor, built directly edge by edge.

    Its ``to_sparse()`` equals the homogenisation route
    ``polynomial_to_tensor(php_build(h), k_max, n + k_max - 1)`` exactly.
    """
    k_max = _require_buildable(h)
    m = len(h.edges)
    sizes = np.fromiter(map(len, h.edges), np.int64, m)
    originals = np.fromiter(
        itertools.chain.from_iterable(h.edges), np.int64, int(sizes.sum())
    )
    # Start every row as the full special range, then write each edge's
    # vertices over its first |e| slots (row-major, as ``originals`` runs).
    rows = np.tile(h.n + np.arange(k_max), (m, 1))
    rows[np.arange(k_max) < sizes[:, None]] = originals
    return LayeredTensor(h.n, k_max, rows)


def reconstruct(t: LayeredTensor) -> Hypergraph:
    """Invert ``build_e_adjacency``: recover the hypergraph from the tensor.

    Each row, taken in canonical order, encodes one hyperedge: its
    indices <= n.  A tensor from outside reaches this as a checked
    ``LayeredTensor``: through ``fileio.parse_tensor`` or the constructor.
    """
    rows = t.canonical_rows()
    originals = rows <= t.n
    # Row-major, so each row's original vertices come out consecutively.
    vertices = iter(rows[originals].tolist())
    sizes = originals.sum(axis=1).tolist()
    return Hypergraph(
        t.n, tuple(tuple(itertools.islice(vertices, j)) for j in sizes)
    )
