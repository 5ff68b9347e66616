"""Hypergraph model: canonicalization, range, layers, degrees."""

from __future__ import annotations

import random

import pytest

from hgtensor import Hypergraph, WeightedHypergraph
from hgtensor.errors import EmptyHypergraph, RepeatedHyperedge, UnknownVertex
from tests.gen import corpus


def test_edges_are_canonicalized():
    h = Hypergraph(4, ((3, 1, 3), (2, 4)))
    assert h.edges == ((1, 3), (2, 4))


def test_empty_hyperedge_rejected():
    with pytest.raises(ValueError):
        Hypergraph(3, ((),))


def test_vertex_out_of_range_rejected():
    with pytest.raises(UnknownVertex):
        Hypergraph(3, ((1, 4),))
    with pytest.raises(UnknownVertex):
        Hypergraph(3, ((0, 1),))
    for bad in (True, 1.0):
        with pytest.raises(TypeError, match="vertex index"):
            Hypergraph(3, ((bad, 2),))


@pytest.mark.parametrize("n", [2.5, 2.0, "3", None, True, False])
def test_vertex_count_must_be_an_int(n):
    with pytest.raises(TypeError, match="vertex count"):
        Hypergraph(n, ((1, 2),) if n else ())


def test_range_examples():
    assert Hypergraph(4, ((1,), (1, 2), (2, 3, 4))).range() == 3
    assert Hypergraph(4, ((1, 2), (3, 4))).range() == 2
    with pytest.raises(EmptyHypergraph):
        Hypergraph(4, ()).range()


def test_layers_examples():
    h = Hypergraph(4, ((1,), (1, 2), (2, 3, 4)))
    layers = h.layers()
    assert [layer.edges for layer in layers] == [((1,),), ((1, 2),), ((2, 3, 4),)]
    assert all(layer.n == 4 for layer in layers)

    layers = Hypergraph(3, ((1, 2), (2, 3))).layers()
    assert [layer.edges for layer in layers] == [(), ((1, 2), (2, 3))]

    layers = Hypergraph(3, ((1, 2, 3),)).layers()
    assert [layer.edges for layer in layers] == [(), (), ((1, 2, 3),)]


def test_degree_examples():
    h = Hypergraph(4, ((1,), (1, 2), (2, 3, 4)))
    assert h.degree(1) == 2
    assert h.degree(3) == 1
    with pytest.raises(UnknownVertex):
        h.degree(5)
    for bad in (True, 1.0, "1", None):
        with pytest.raises(TypeError, match="vertex index"):
            h.degree(bad)


def test_layers_partition_and_handshake_on_corpus():
    for h in corpus(count=60):
        layers = h.layers()
        assert len(layers) == h.range()
        flattened = [e for layer in layers for e in layer.edges]
        assert sorted(flattened) == sorted(h.edges)
        for k, layer in enumerate(layers, start=1):
            assert all(len(e) == k for e in layer.edges)
        # range is the largest k with a non-empty layer
        assert len(layers[-1].edges) > 0
        # elementary handshake
        assert sum(h.degrees()) == sum(len(e) for e in h.edges)


def test_degrees_vector_matches_per_vertex():
    rng = random.Random(3)
    for h in corpus(count=20, seed=99):
        v = rng.randint(1, h.n)
        assert h.degrees()[v - 1] == h.degree(v)


def test_repeated_edge_detection():
    h = Hypergraph(3, ((1, 2), (2, 3), (2, 1)))
    assert h.find_repeated_edge() == (1, 3)
    with pytest.raises(RepeatedHyperedge) as exc:
        h.require_no_repeats()
    assert exc.value.first == 1 and exc.value.second == 3

    assert Hypergraph(3, ((1, 2), (2, 3))).find_repeated_edge() is None


def test_isolated_vertices_allowed():
    h = Hypergraph(5, ((1, 2),))
    assert h.degree(5) == 0


def test_canonical_sorts_edges():
    h = Hypergraph(4, ((2, 3, 4), (1,), (1, 2)))
    assert h.canonical().edges == ((1,), (1, 2), (2, 3, 4))


def test_weighted_validation():
    h = Hypergraph(3, ((1, 2),))
    with pytest.raises(ValueError):
        WeightedHypergraph(h, ())
    with pytest.raises(ValueError):
        WeightedHypergraph(h, (0,))
    hw = WeightedHypergraph(h, (3,))
    assert hw.weights[0] == 3 and hw.n == 3
