"""Seeded hypergraph instances for the pipeline benchmark.

An instance is a family of pairwise-distinct hyperedges over vertex
labels, drawn by the law of the repository's test generator
(``tests/gen.py``): each draw picks a cardinality uniformly on
1..k_max and then a uniform subset of that size of the vertex pool, and
a draw that repeats an edge is discarded, until the family has the
spec's number of edges.  The edge draws use ``random.Random(seed)``
alone, so an instance's edges depend only on its make-up and the seed.
A second stream, keyed by the instance name and the seed, chooses the
vertex labels and the order of labels within a line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """Make-up of an instance: vertex pool n, |E| and k_max."""

    name: str
    n: int
    edges: int
    k_max: int


@dataclass(frozen=True)
class Instance:
    """A generated edge family.

    ``edges`` holds each hyperedge as a sorted tuple of vertex ids in
    1..spec.n, in file-line order; ``lines`` gives each edge's vertex
    labels in the order they are written.
    """

    spec: Spec
    edges: tuple[tuple[int, ...], ...]
    lines: tuple[tuple[str, ...], ...]

    def text(self) -> str:
        return "".join(" ".join(line) + "\n" for line in self.lines)

    def label_edges(self) -> list[frozenset[str]]:
        return [frozenset(line) for line in self.lines]


def generate(spec: Spec, seed: int) -> Instance:
    rng = random.Random(seed)
    pool = range(1, spec.n + 1)
    family: dict[tuple[int, ...], None] = {}
    for _ in range(10 * spec.edges):
        if len(family) == spec.edges:
            break
        k = rng.randint(1, spec.k_max)
        family.setdefault(tuple(sorted(rng.sample(pool, k))), None)
    sizes = {len(e) for e in family}
    if len(family) < spec.edges or len(sizes) < spec.k_max:
        raise ValueError(f"{spec.name}: seed {seed} gives {len(family)} edges "
                         f"with sizes {sorted(sizes)}")
    dress = random.Random(f"{spec.name}:{seed}")
    names = dress.sample(range(10 * spec.n), spec.n)
    labels = {v: f"u{names[v - 1]}" for v in pool}
    lines = []
    for e in family:
        line = [labels[v] for v in e]
        dress.shuffle(line)
        lines.append(tuple(line))
    return Instance(spec, tuple(family), tuple(lines))
