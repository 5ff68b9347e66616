"""Seeded random instance generators shared across the test modules."""

from __future__ import annotations

import random
from itertools import combinations

from hgtensor import Hypergraph

CORPUS_SEED = 20260810
GRAPH_SEED = 424242
LARGE_SEED = 777


def random_hypergraph(
    rng: random.Random, max_n: int = 12, max_k: int = 5, max_edges: int = 40
) -> Hypergraph:
    """Random hypergraph with pairwise-distinct hyperedges."""
    n = rng.randint(1, max_n)
    k_cap = min(max_k, n)
    target = rng.randint(1, max_edges)
    edges: set[tuple[int, ...]] = set()
    for _ in range(target * 10):
        if len(edges) >= target:
            break
        k = rng.randint(1, k_cap)
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), k))))
    return Hypergraph(n, tuple(sorted(edges)))


def corpus(count: int = 200, seed: int = CORPUS_SEED) -> list[Hypergraph]:
    rng = random.Random(seed)
    return [random_hypergraph(rng) for _ in range(count)]


def random_graph(rng: random.Random, max_n: int = 19, max_edges: int = 30) -> Hypergraph:
    """Random 2-uniform hypergraph (the tensor dimension stays <= max_n + 1)."""
    n = rng.randint(2, max_n)
    pairs = list(combinations(range(1, n + 1), 2))
    m = rng.randint(1, min(len(pairs), max_edges))
    return Hypergraph(n, tuple(sorted(rng.sample(pairs, m))))


def graph_corpus(count: int = 50, seed: int = GRAPH_SEED) -> list[Hypergraph]:
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


def large_hypergraph(
    n: int = 12_000, m: int = 20_000, max_k: int = 5, seed: int = LARGE_SEED
) -> Hypergraph:
    """Seeded hypergraph on n vertices with m pairwise-distinct hyperedges of
    sizes 1..max_k, for tests at tensor dimension >= 10^4."""
    rng = random.Random(seed)
    edges: dict[tuple[int, ...], None] = {}
    while len(edges) < m:
        k = rng.randint(1, max_k)
        edges[tuple(sorted(rng.sample(range(1, n + 1), k)))] = None
    return Hypergraph(n, tuple(edges))
