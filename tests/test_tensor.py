"""Tensor construction: both routes, reconstruction, handshake, entry law."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from hgtensor import (
    Hypergraph,
    LayeredTensor,
    Polynomial,
    SymSparseTensor,
    build_e_adjacency,
    default_coefficients,
    edge_count_from_handshake,
    php_polynomials,
    polynomial_to_tensor,
    reconstruct,
)
from hgtensor.errors import (
    EmptyHypergraph,
    MalformedTensor,
    NotHomogeneous,
    ParseError,
    RepeatedHyperedge,
    UnexpectedRepeatedIndex,
)
from hgtensor.fileio import parse_tensor
from tests.gen import corpus
from tests.oracles import (
    permutation_count,
    semantic_total,
    tensor_to_polynomial,
    to_dense,
    value_at,
)

EXAMPLE = Hypergraph(4, ((1,), (1, 2), (2, 3, 4)))
HALF = Fraction(1, 2)


def sympy_php(h: Hypergraph, coeffs) -> list[dict[tuple[int, ...], Fraction]]:
    """Independent symbolic computation of the homogenisation recursion:
    the terms of every expanded intermediate R_1 .. R_{k_max}."""
    k_max = h.range()
    zs = sympy.symbols(f"z1:{h.n + 1}")
    ys = sympy.symbols(f"y1:{k_max}") if k_max > 1 else ()
    layers = h.layers()

    def terms(expr):
        poly = sympy.Poly(expr, *(zs + ys))
        return {
            tuple(monom): Fraction(int(c.p), int(c.q))
            for monom, c in poly.terms()
            if c != 0
        }

    def layer_poly(k):
        total = sympy.Integer(0)
        for e in layers[k - 1].edges:
            term = sympy.Integer(k)  # k! * 1/(k-1)!
            for v in e:
                term *= zs[v - 1]
            total += term
        return total

    expr = sympy.Rational(coeffs[0]) * layer_poly(1)
    out = [terms(expr)]
    for k in range(1, k_max):
        expr = sympy.expand(expr * ys[k - 1] + sympy.Rational(coeffs[k]) * layer_poly(k + 1))
        out.append(terms(expr))
    return out


# --- SymSparseTensor ---------------------------------------------------------


def test_tensor_validation():
    with pytest.raises(ValueError):
        SymSparseTensor(2, 3, {(2, 1): HALF})  # not non-decreasing
    with pytest.raises(ValueError):
        SymSparseTensor(2, 3, {(1, 4): HALF})  # out of range
    with pytest.raises(ValueError):
        SymSparseTensor(2, 3, {(1,): HALF})  # wrong length
    with pytest.raises(ValueError):
        SymSparseTensor(2, 3, {(1, 2): Fraction(0)})  # zero value


def test_semantic_lookup_is_permutation_invariant():
    rng = random.Random(5)
    t = build_e_adjacency(EXAMPLE).to_sparse()
    for tup in t.entries:
        for _ in range(5):
            shuffled = list(tup)
            rng.shuffle(shuffled)
            assert value_at(t, shuffled) == t.entries[tup]
    assert value_at(t, (1, 1, 1)) == 0  # diagonal stays zero
    assert value_at(t, (2, 1, 3)) == 0


def test_permutation_count():
    assert permutation_count((1, 2, 3)) == 6
    assert permutation_count((1, 1, 2)) == 3
    assert permutation_count((2, 2, 2)) == 1
    assert permutation_count((1,)) == 1


# --- polynomial conversions --------------------------------------------------


def test_tensor_to_polynomial_examples():
    t = SymSparseTensor(3, 4, {(2, 3, 4): HALF})
    assert tensor_to_polynomial(t).terms == {(0, 1, 1, 1): Fraction(3)}

    assert tensor_to_polynomial(SymSparseTensor(3, 4, {})).terms == {}

    t = SymSparseTensor(1, 1, {(1,): Fraction(1)})
    assert tensor_to_polynomial(t).terms == {(1,): Fraction(1)}


def test_tensor_to_polynomial_multiset():
    t = SymSparseTensor(2, 2, {(1, 1): Fraction(3), (1, 2): Fraction(1)})
    assert tensor_to_polynomial(t).terms == {
        (2, 0): Fraction(3),
        (1, 1): Fraction(2),
    }


def test_polynomial_to_tensor_examples():
    p = Polynomial(6, {(1, 0, 0, 0, 1, 1): Fraction(3)})
    t = polynomial_to_tensor(p, 3, 6)
    assert t.entries == {(1, 5, 6): HALF}

    assert polynomial_to_tensor(Polynomial(6), 3, 6).entries == {}

    p = Polynomial(3, {(1, 1, 0): Fraction(2)})
    assert polynomial_to_tensor(p, 2, 3).entries == {(1, 2): Fraction(1)}


def test_polynomial_to_tensor_errors():
    with pytest.raises(NotHomogeneous):
        polynomial_to_tensor(Polynomial(3, {(1, 0, 0): Fraction(1)}), 2, 3)
    with pytest.raises(UnexpectedRepeatedIndex):
        polynomial_to_tensor(Polynomial(3, {(2, 0, 0): Fraction(1)}), 2, 3)
    p = Polynomial(3, {(1, 1, 0): Fraction(2)})
    for dim in (2, 5):  # one slot per variable: 3
        with pytest.raises(ValueError, match=f"dimension {dim} .* 3 variables"):
            polynomial_to_tensor(p, 2, dim)


def test_conversions_invert_each_other():
    for h in corpus(count=30, seed=11):
        t = build_e_adjacency(h).to_sparse()
        assert polynomial_to_tensor(tensor_to_polynomial(t), t.order, t.dim) == t


# --- homogenisation route ----------------------------------------------------


def test_php_worked_example():
    coeffs = (Fraction(3), Fraction(3, 2), Fraction(1))
    r3 = php_polynomials(EXAMPLE)[-1]
    expected = {
        (1, 0, 0, 0, 1, 1): Fraction(3),  # z1*y1*y2
        (1, 1, 0, 0, 0, 1): Fraction(3),  # z1*z2*y2
        (0, 1, 1, 1, 0, 0): Fraction(3),  # z2*z3*z4
    }
    assert r3.terms == expected
    assert r3.terms == sympy_php(EXAMPLE, coeffs)[-1]


def test_php_single_pair():
    h = Hypergraph(2, ((1, 2),))
    r2 = php_polynomials(h)[-1]  # c = (2, 1)
    assert r2.nvars == 3  # y1 exists even though unused
    assert r2.terms == {(1, 1, 0): Fraction(2)}
    assert r2.terms == sympy_php(h, default_coefficients(2))[-1]


def test_php_base_case():
    h = Hypergraph(1, ((1,),))
    assert php_polynomials(h) == [Polynomial(1, {(1,): Fraction(1)})]


def test_php_multiplies_even_when_layer_empty():
    h = Hypergraph(4, ((1,), (2, 3, 4)))  # layer 2 empty
    r3 = php_polynomials(h)[-1]
    assert r3.terms == {
        (1, 0, 0, 0, 1, 1): Fraction(3),
        (0, 1, 1, 1, 0, 0): Fraction(3),
    }


def test_php_matches_sympy_on_corpus():
    # Every intermediate R_k, not only R_{k_max}: the fold's steps meet the
    # layer polynomials at each k.
    for h in corpus(count=25, seed=13):
        coeffs = default_coefficients(h.range())
        rs = php_polynomials(h)
        expected = sympy_php(h, coeffs)
        assert len(rs) == len(expected) == h.range()
        for k, (r, want) in enumerate(zip(rs, expected), start=1):
            assert r.terms == want, f"R_{k} differs"


def test_php_intermediates_homogeneous():
    for h in corpus(count=40, seed=17):
        for k, r in enumerate(php_polynomials(h), start=1):
            assert r.nvars == h.n + h.range() - 1
            assert all(sum(exps) == k for exps in r.terms)


# --- direct construction -----------------------------------------------------


def test_build_worked_example():
    t = build_e_adjacency(EXAMPLE)
    assert t.order == 3 and t.dim == 6 and t.n == 4
    assert t.rows.tolist() == [[1, 5, 6], [1, 2, 6], [2, 3, 4]]  # edge order
    assert t.to_sparse().entries == {(1, 5, 6): HALF, (1, 2, 6): HALF, (2, 3, 4): HALF}


def test_build_2_uniform_graph():
    h = Hypergraph(3, ((1, 2), (1, 3), (2, 3)))
    t = build_e_adjacency(h).to_sparse()
    assert t.dim == 4
    assert t.entries == {
        (1, 2): Fraction(1),
        (1, 3): Fraction(1),
        (2, 3): Fraction(1),
    }
    assert all(4 not in tup for tup in t.entries)  # y1 column all zero


def test_build_singleton():
    t = build_e_adjacency(Hypergraph(1, ((1,),)))
    assert t.order == 1 and t.dim == 1
    assert t.to_sparse().entries == {(1,): Fraction(1)}


def test_build_rejects_bad_input():
    with pytest.raises(EmptyHypergraph):
        build_e_adjacency(Hypergraph(3, ()))
    with pytest.raises(RepeatedHyperedge):
        build_e_adjacency(Hypergraph(3, ((1, 2), (2, 1))))


def test_routes_agree_exactly():
    for h in corpus(count=60, seed=19):
        t = build_e_adjacency(h)
        k_max = h.range()
        via_php = polynomial_to_tensor(php_polynomials(h)[-1], k_max, h.n + k_max - 1)
        assert t.to_sparse() == via_php


def test_entry_law_and_handshake():
    for h in corpus(count=60, seed=23):
        t = build_e_adjacency(h)
        k_max = t.order
        expected = Fraction(1, math.factorial(k_max - 1))
        assert t.nnz == len(h.edges) and t.value == expected
        assert all(v == expected for v in t.to_sparse().entries.values())
        assert semantic_total(t.to_sparse()) == k_max * len(h.edges)
        assert edge_count_from_handshake(t) == len(h.edges)


def test_handshake_worked_example():
    t = build_e_adjacency(EXAMPLE)
    assert semantic_total(t.to_sparse()) == 9
    assert edge_count_from_handshake(t) == 3


# --- reconstruction ----------------------------------------------------------


def test_reconstruct_worked_example():
    text = ("order=3 dim=6 n=4 format=canonical-coo\n"
            "1 5 6 1/2\n1 2 6 1/2\n2 3 4 1/2\n")
    h = reconstruct(parse_tensor(text))
    assert sorted(h.edges) == [(1,), (1, 2), (2, 3, 4)]
    assert h.n == 4


def test_reconstruct_graph_is_identity():
    h = Hypergraph(3, ((1, 2), (2, 3)))
    assert sorted(reconstruct(build_e_adjacency(h)).edges) == sorted(h.edges)


def test_reconstruct_rejects_malformed():
    # A tensor from outside reaches ``reconstruct`` through the COO reader
    # or the constructor; both reject one that is not layered.
    def layered(body, n=4):
        return parse_tensor(f"order=3 dim=6 n={n} format=canonical-coo\n" + body)

    with pytest.raises(ParseError, match="no original"):
        layered("5 6 6 1/2\n")
    with pytest.raises(ParseError, match="has value 1/3, expected 1/2"):
        layered("1 5 6 1/3\n")
    with pytest.raises(ParseError, match="repeats an original"):
        layered("1 1 6 1/2\n")
    with pytest.raises(ParseError, match="not the suffix"):  # wrong level
        layered("1 6 6 1/2\n")
    with pytest.raises(ParseError, match="dimension"):  # n does not fit dim
        layered("1 5 6 1/2\n", n=3)
    # a wrong value is reported at its line before any pattern fault; a
    # pattern fault at the line of the bad row first in canonical order
    with pytest.raises(ParseError) as exc:
        layered("1 2 6 1/2\n1 6 6 1/2\n2 5 6 1/3\n")
    assert exc.value.line == 4
    with pytest.raises(ParseError) as exc:
        layered("2 6 6 1/2\n1 6 6 1/2\n1 2 6 1/2\n")
    assert exc.value.line == 3
    assert str(exc.value).startswith("line 3: entry (1, 6, 6) has special indices")
    with pytest.raises(MalformedTensor) as exc:
        LayeredTensor(4, 3, np.array([[2, 6, 6], [1, 6, 6], [1, 2, 6]]))
    assert exc.value.row == 1
    assert str(exc.value).startswith("row 1: entry (1, 6, 6) has special indices")


def test_roundtrip_on_corpus():
    for h in corpus(count=60, seed=29):
        back = reconstruct(build_e_adjacency(h))
        assert sorted(back.edges) == sorted(h.edges)


# --- dense debug path --------------------------------------------------------


def test_to_dense_symmetric():
    t = build_e_adjacency(Hypergraph(2, ((1, 2),)))
    dense = to_dense(t.to_sparse())
    assert dense.shape == (3, 3)
    assert np.array_equal(dense, dense.T)
    assert dense[0, 1] == 1.0 and dense[2, 2] == 0.0


def test_to_dense_guard():
    t = SymSparseTensor(5, 20, {(1, 2, 3, 4, 5): Fraction(1, 24)})
    with pytest.raises(ValueError):
        to_dense(t)
