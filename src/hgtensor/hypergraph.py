"""General hypergraph data model: validation, layers, degrees.

A hypergraph is a family of pairwise-distinct hyperedges (non-empty
vertex sets) over the vertex set {1, ..., n}, kept in input order.  Edges
are checked where input enters: the public constructor checks every edge
and that no two are equal, so every operation may rely on both.  Families
derived from checked input are wrapped by ``_derived``, not checked again.
All types are immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from hgtensor.errors import EmptyHypergraph, RepeatedHyperedge, UnknownVertex


def _require_int(value, what: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")


def _canonical_edge(vertices: Iterable[int], n: int) -> tuple[int, ...]:
    vertices = tuple(vertices)
    # Typed before de-duplication: True or 1.0 would merge into a 1.
    for v in vertices:  # inline: this runs once per vertex of every edge
        if not isinstance(v, int) or isinstance(v, bool):
            raise TypeError(f"vertex index must be an integer, got {v!r}")
    edge = tuple(sorted(set(vertices)))
    if not edge:
        raise ValueError("hyperedge must contain at least one vertex")
    if edge[0] < 1 or edge[-1] > n:
        raise UnknownVertex(
            f"hyperedge {edge} has a vertex outside 1..{n}"
        )
    return edge


def _check_distinct(edges: Sequence[tuple[int, ...]]) -> None:
    """Raise RepeatedHyperedge at the first repeat, naming both 1-based positions."""
    if len(set(edges)) < len(edges):  # only then find where
        seen: dict[tuple[int, ...], int] = {}
        for pos, e in enumerate(edges, start=1):
            first = seen.setdefault(e, pos)
            if first != pos:
                raise RepeatedHyperedge(first, pos)


@dataclass(frozen=True)
class Hypergraph:
    """Hypergraph over vertices 1..n with an ordered hyperedge family.

    Hyperedges are canonicalized at construction: vertex lists are
    deduplicated and stored sorted ascending.  Two edges equal as sets
    raise RepeatedHyperedge with the 1-based positions of the first
    repeat and of the edge it repeats.  Isolated vertices (in no
    hyperedge) are allowed.
    """

    n: int
    edges: tuple[tuple[int, ...], ...] = field(default=())

    def __post_init__(self):
        _require_int(self.n, "vertex count")
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = tuple(_canonical_edge(e, self.n) for e in self.edges)
        _check_distinct(canon)
        object.__setattr__(self, "edges", canon)

    @classmethod
    def _derived(cls, n: int, edges: tuple[tuple[int, ...], ...]) -> Hypergraph:
        """Wrap edges that are valid by construction: sorted tuples of
        distinct ints in 1..n, pairwise distinct."""
        h = object.__new__(cls)
        h.__dict__.update(n=n, edges=edges)
        return h

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
        return [Hypergraph._derived(self.n, tuple(group)) for group in by_size]

    def degrees(self) -> tuple[int, ...]:
        vertices = np.fromiter(itertools.chain.from_iterable(self.edges), np.int64)
        return tuple(np.bincount(vertices, minlength=self.n + 1)[1:].tolist())
