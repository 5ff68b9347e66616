"""Uniformisation of a general hypergraph into a k_max-uniform one.

The process runs in two alternating phases.  Starting from the layer of
singleton edges (weighted c_1), step k first *inflates*: every edge
gains the special vertex y_k, raising uniformity from k to k+1.  It
then *merges* with layer k+1 (weighted c_{k+1}).  After k_max - 1 steps
every original hyperedge e of size j has become e u {y_j, ..., y_{k_max-1}}
with weight c_j, a k_max-uniform weighted hypergraph over the original
vertices plus k_max - 1 special ones.

Special vertex y_level is materialized as index n + level right away, so
one dense indexing scheme covers the whole pipeline.  All k_max - 1
special vertices are created even when some layers are empty.

The dilatation coefficients are fixed at c_j = k_max / j
(``default_coefficients``): that choice makes every entry of the layered
tensor 1/(k_max-1)!, so the tensor is described by its edges alone.

``uniformise`` builds the result directly via the per-edge padding
formula (O(|E| * k_max)); ``uniformise_iterative`` runs the literal
two-phase fold on plain edge and weight lists.  The edges of a
``Hypergraph`` are distinct, so neither checks for repeats.  Both
produce identical output, edges ordered layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hgtensor.hypergraph import Hypergraph


@dataclass(frozen=True)
class UniformisedHypergraph:
    """k_max-uniform weighted hypergraph over V plus the special vertices.

    Each edge keeps its original cardinality in ``origin_sizes``; an edge
    of origin size j contains exactly the special vertices y_j..y_{k_max-1}
    alongside its j original vertices.
    """

    n_original: int
    k_max: int
    edges: tuple[tuple[int, ...], ...]
    weights: tuple[Fraction, ...]
    origin_sizes: tuple[int, ...]

    def __post_init__(self):
        n, k_max = self.n_original, self.k_max
        if not (len(self.edges) == len(self.weights) == len(self.origin_sizes)):
            raise ValueError("edges, weights and origin_sizes must align")
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        for e, w, j in zip(self.edges, self.weights, self.origin_sizes):
            if len(e) != k_max:
                raise ValueError(f"edge {e} is not {k_max}-uniform")
            if w <= 0:
                raise ValueError("weights must be positive")
            originals = tuple(v for v in e if v <= n)
            specials = tuple(v for v in e if v > n)
            if len(originals) != j or specials != tuple(range(n + j, n + k_max)):
                raise ValueError(
                    f"edge {e} does not match origin size {j} over n={n}"
                )

    @property
    def dim(self) -> int:
        """Total vertex count, n + k_max - 1."""
        return self.n_original + self.k_max - 1


def default_coefficients(k_max: int) -> tuple[Fraction, ...]:
    """Dilatation coefficients c_j = k_max / j.

    This choice makes every nonzero entry of the layered e-adjacency
    tensor equal and the generalized handshake identity exact.
    """
    return tuple(Fraction(k_max, j) for j in range(1, k_max + 1))


def uniformise(h: Hypergraph) -> UniformisedHypergraph:
    """Per-edge padding shortcut: e of size j -> e u {y_j..y_{k_max-1}}, weight c_j."""
    k_max, n = h.range(), h.n
    cs = default_coefficients(k_max)
    edges: list[tuple[int, ...]] = []
    weights: list[Fraction] = []
    origins: list[int] = []
    for e in sorted(h.edges, key=len):  # stable: layer by layer, in edge order
        j = len(e)
        edges.append(e + tuple(range(n + j, n + k_max)))
        weights.append(cs[j - 1])
        origins.append(j)
    return UniformisedHypergraph(
        n, k_max, tuple(edges), tuple(weights), tuple(origins)
    )


def uniformise_iterative(h: Hypergraph) -> UniformisedHypergraph:
    """Literal inflation/merging fold; agrees with ``uniformise`` exactly."""
    k_max, n = h.range(), h.n
    cs = default_coefficients(k_max)
    layers = h.layers()
    edges = list(layers[0].edges)
    weights = [cs[0]] * len(edges)
    for k in range(1, k_max):
        edges = [e + (n + k,) for e in edges]  # inflate with y_k
        edges += layers[k].edges  # merge in layer k + 1, weighted c_{k+1}
        weights += [cs[k]] * len(layers[k].edges)
    origins = tuple(sum(1 for v in e if v <= n) for e in edges)
    return UniformisedHypergraph(n, k_max, tuple(edges), tuple(weights), origins)
