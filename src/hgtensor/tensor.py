"""Sparse symmetric tensors and the layered e-adjacency construction.

A symmetric order-k tensor is stored by canonical (non-decreasing) index
tuple; the value at an arbitrary tuple is the value at its sorted form.
The layered e-adjacency tensor of a hypergraph with range k_max has
order k_max and dimension n + k_max - 1: the hyperedge e = {i_1 < ... < i_j}
contributes the single canonical entry

    (i_1, ..., i_j, n + j, ..., n + k_max - 1)  ->  1 / (k_max - 1)!

i.e. the edge padded with the special vertices for its missing levels.
Two independent routes build it: the direct padding formula above, and
the polynomial homogenisation route (per-layer adjacency polynomials
P_k, folded via R_{k+1} = R_k * y^k + c_{k+1} * P_{k+1} with dilatation
coefficients c_j = k_max / j).  They agree entry for entry, and the
construction is bijective: the hypergraph is recovered from the tensor
with no ambiguity.

All values here are exact rationals; floating point enters only in the
spectral module.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from hgtensor.errors import (
    MalformedTensor,
    NotHomogeneous,
    NotUniform,
    UnexpectedRepeatedIndex,
)
from hgtensor.hypergraph import Hypergraph
from hgtensor.polynomial import Polynomial
from hgtensor.uniformise import _prepare

DENSE_LIMIT = 1_000_000


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

    def canonical_items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.entries.items())


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


def edge_count_from_handshake(t: SymSparseTensor) -> Fraction:
    """Generalized handshake: total entry sum divided by the order.

    Equals |E| exactly for a layered e-adjacency tensor.
    """
    return semantic_total(t) / t.order


def to_dense(t: SymSparseTensor):
    """Debug materialization as a dense float array (small tensors only)."""
    import numpy as np

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


def build_e_adjacency(h: Hypergraph) -> SymSparseTensor:
    """Layered e-adjacency tensor, built directly edge by edge.

    Equals the homogenisation route
    ``polynomial_to_tensor(php_build(h), k_max, n + k_max - 1)`` exactly.
    """
    k_max = _require_buildable(h)
    dim = h.n + k_max - 1
    value = Fraction(1, math.factorial(k_max - 1))
    entries: dict[tuple[int, ...], Fraction] = {}
    for e in h.edges:
        j = len(e)
        entries[e + tuple(range(h.n + j, h.n + k_max))] = value
    return SymSparseTensor(k_max, dim, entries)


def _split_entry(
    tup: tuple[int, ...], value: Fraction, n: int, order: int
) -> tuple[int, ...]:
    """Validate one canonical entry against the layered pattern.

    Returns the original-vertex part (the encoded hyperedge).  A valid
    entry holds j >= 1 distinct original indices followed by exactly the
    special suffix (n + j, ..., n + order - 1), with value 1/(order-1)!.
    """
    if value != Fraction(1, math.factorial(order - 1)):
        raise MalformedTensor(
            f"entry {tup} has value {value}, expected 1/{math.factorial(order - 1)}"
        )
    originals = tuple(i for i in tup if i <= n)
    specials = tuple(i for i in tup if i > n)
    if not originals:
        raise MalformedTensor(f"entry {tup} holds no original vertex (n={n})")
    if len(set(originals)) != len(originals):
        raise MalformedTensor(f"entry {tup} repeats an original vertex")
    j = len(originals)
    if specials != tuple(range(n + j, n + order)):
        raise MalformedTensor(
            f"entry {tup}: special indices {specials} do not form the "
            f"suffix {tuple(range(n + j, n + order))} for origin size {j}"
        )
    return originals


def reconstruct(t: SymSparseTensor, n: int) -> Hypergraph:
    """Invert ``build_e_adjacency``: recover the hypergraph from the tensor.

    Each canonical entry encodes one hyperedge (its indices <= n); any
    entry that does not match the layered pattern raises MalformedTensor.
    """
    if n < 1 or t.dim != n + t.order - 1:
        raise MalformedTensor(
            f"dimension {t.dim} incompatible with n={n} and order {t.order}"
        )
    edges = [
        _split_entry(tup, value, n, t.order)
        for tup, value in t.canonical_items()
    ]
    return Hypergraph(n, tuple(edges))
