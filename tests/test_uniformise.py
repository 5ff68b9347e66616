"""The uniformisation pipeline: the padding shortcut and the literal fold."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hgtensor import (
    Hypergraph,
    default_coefficients,
    uniformise,
    uniformise_iterative,
)
from hgtensor.errors import EmptyHypergraph, RepeatedHyperedge
from tests.gen import corpus

EXAMPLE = Hypergraph(4, ((1,), (1, 2), (2, 3, 4)))


def padded(h: Hypergraph, coeffs):
    """Independent oracle: e of size j -> e + (n+j .. n+k_max-1), weight c_j."""
    k_max = max(len(e) for e in h.edges)
    out = []
    for e in h.edges:
        j = len(e)
        out.append((e + tuple(range(h.n + j, h.n + k_max)), coeffs[j - 1]))
    return sorted(out)


def test_default_coefficients():
    assert default_coefficients(3) == (Fraction(3), Fraction(3, 2), Fraction(1))
    assert default_coefficients(1) == (Fraction(1),)


def test_uniformise_worked_example():
    coeffs = (Fraction(3), Fraction(3, 2), Fraction(1))
    uni = uniformise(EXAMPLE)
    assert uni.k_max == 3 and uni.dim == 6
    assert list(zip(uni.edges, uni.weights)) == [
        ((1, 5, 6), Fraction(3)),
        ((1, 2, 6), Fraction(3, 2)),
        ((2, 3, 4), Fraction(1)),
    ]
    assert uni.origin_sizes == (1, 2, 3)
    assert sorted(zip(uni.edges, uni.weights)) == padded(EXAMPLE, coeffs)


def test_uniformise_uniform_input_is_identity():
    h = Hypergraph(4, ((1, 2, 3), (2, 3, 4)))
    uni = uniformise(h)
    assert uni.edges == h.edges
    assert uni.weights == (Fraction(1), Fraction(1))
    assert all(v <= 4 for e in uni.edges for v in e)
    assert uni.dim == 6  # the special vertices exist even if unused


def test_uniformise_single_pair():
    uni = uniformise(Hypergraph(2, ((1, 2),)))
    assert uni.edges == ((1, 2),)
    assert uni.weights == (Fraction(1),)
    assert uni.dim == 3
    assert all(3 not in e for e in uni.edges)  # y_1 is isolated


def test_iterative_agrees_with_direct_on_corpus():
    for h in corpus(count=80):
        assert uniformise_iterative(h) == uniformise(h)


def test_uniformise_properties_on_corpus():
    for h in corpus(count=80, seed=7):
        uni = uniformise(h)
        k_max = h.range()
        assert all(len(e) == k_max for e in uni.edges)
        assert len(uni.edges) == len(h.edges)
        # every edge is a set inside 1..dim
        assert Hypergraph(uni.dim, uni.edges).edges == uni.edges
        # stripping the special vertices recovers the edge family exactly
        stripped = [tuple(v for v in e if v <= h.n) for e in uni.edges]
        assert sorted(stripped) == sorted(h.edges)
        # deg(y_i) counts the edges of cardinality <= i
        for level in range(1, k_max):
            expected = sum(1 for e in h.edges if len(e) <= level)
            assert sum(h.n + level in e for e in uni.edges) == expected


def test_uniformise_rejects_bad_input():
    with pytest.raises(RepeatedHyperedge):
        uniformise(Hypergraph(3, ((1, 2), (2, 1))))
    with pytest.raises(EmptyHypergraph):
        uniformise(Hypergraph(3))
