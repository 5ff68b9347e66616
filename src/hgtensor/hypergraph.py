"""General hypergraph data model: validation, layers, degrees.

A hypergraph is a family of hyperedges (non-empty vertex sets) over the
vertex set {1, ..., n}.  The family is ordered and may contain repeats;
operations that need pairwise-distinct edges check for that explicitly.
All types are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from hgtensor.errors import EmptyHypergraph, RepeatedHyperedge, UnknownVertex


def _require_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")


def _canonical_edge(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    edge = tuple(sorted(set(vertices)))
    if not edge:
        raise ValueError("hyperedge must contain at least one vertex")
    for v in edge:  # inline: this runs once per vertex of every edge
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"vertex index must be an integer, got {v!r}")
    if edge[0] < 1 or edge[-1] > n:
        raise UnknownVertex(
            f"hyperedge {edge} has a vertex outside 1..{n}"
        )
    return edge


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph over vertices 1..n with an ordered hyperedge family.

    Hyperedges are canonicalized at construction: vertex lists are
    deduplicated and stored sorted ascending.  Isolated vertices (in no
    hyperedge) are allowed.
    """

    n: int
    edges: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        _require_int(self.n, "vertex count")
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = tuple(_canonical_edge(e, self.n) for e in self.edges)
        object.__setattr__(self, "edges", canon)

    def range(self) -> int:
        """Largest hyperedge cardinality, k_max."""
        if not self.edges:
            raise EmptyHypergraph("range is undefined without hyperedges")
        return max(len(e) for e in self.edges)

    def layers(self) -> list[Hypergraph]:
        """Partition the edge family by cardinality.

        Returns one hypergraph per k in 1..k_max, each over the full
        vertex set; layer k holds exactly the edges of cardinality k and
        may be empty.  Within a layer the input edge order is kept.
        """
        k_max = self.range()
        by_size: list[list[tuple[int, ...]]] = [[] for _ in range(k_max)]
        for e in self.edges:
            by_size[len(e) - 1].append(e)
        return [Hypergraph(self.n, tuple(group)) for group in by_size]

    def degree(self, v: int) -> int:
        """Number of hyperedges containing vertex v."""
        _require_int(v, "vertex index")
        if v < 1 or v > self.n:
            raise UnknownVertex(f"vertex {v!r} is outside 1..{self.n}")
        return sum(1 for e in self.edges if v in e)

    def degrees(self) -> tuple[int, ...]:
        counts = [0] * self.n
        for e in self.edges:
            for v in e:
                counts[v - 1] += 1
        return tuple(counts)

    def find_repeated_edge(self) -> tuple[int, int] | None:
        """1-based positions of the first pair of identical edges, if any."""
        seen: dict[tuple[int, ...], int] = {}
        for pos, e in enumerate(self.edges, start=1):
            if e in seen:
                return seen[e], pos
            seen[e] = pos
        return None

    def require_no_repeats(self) -> None:
        pair = self.find_repeated_edge()
        if pair is not None:
            raise RepeatedHyperedge(*pair)

    def canonical(self) -> Hypergraph:
        """Same hypergraph with edges sorted lexicographically."""
        return Hypergraph(self.n, tuple(sorted(self.edges)))


@dataclass(frozen=True)
class WeightedHypergraph:
    """Hypergraph with one positive weight per hyperedge."""

    base: Hypergraph
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(Fraction(w) for w in self.weights)
        if len(weights) != len(self.base.edges):
            raise ValueError(
                f"{len(weights)} weights for {len(self.base.edges)} edges"
            )
        if any(w <= 0 for w in weights):
            raise ValueError("hyperedge weights must be positive")
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        return self.base.edges


def uniform_weights(h: Hypergraph, w: Fraction | int) -> WeightedHypergraph:
    """Attach the same weight to every hyperedge."""
    return WeightedHypergraph(h, (Fraction(w),) * len(h.edges))
