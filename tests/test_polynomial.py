"""Exponent-map polynomial arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest

from hgtensor import (
    Hypergraph,
    Polynomial,
    build_e_adjacency,
    php_polynomials,
)
from tests.gen import corpus
from tests.oracles import tensor_to_polynomial


def test_zero_coefficients_dropped():
    p = Polynomial(2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}
    assert Polynomial(2).terms == {}


def test_validation():
    long_negative = (0,) * 2002 + (-1,)
    for nvars, exps in [(2, (1,)), (2, (1, -1)), (2, (1, 1.5)), (2, (1, "1")),
                        (2, (1, None)), (2003, long_negative)]:
        with pytest.raises(ValueError):
            Polynomial(nvars, {exps: Fraction(1)})


def rebuilt_by_constructor(q: Polynomial) -> bool:
    """A derived polynomial is one the public constructor would accept as is."""
    return (Polynomial(q.nvars, q.terms).terms == q.terms
            and all(type(c) is Fraction for c in q.terms.values()))


def test_derived_results_pass_the_constructor():
    p = Polynomial(3, {(1, 0, 0): 2, (0, 1, 1): Fraction(-1, 3)})
    q = Polynomial(3, {(1, 0, 0): -2, (0, 0, 2): 5})
    derived = [
        p + q,
        p + p.scaled(-1),
        p.scaled(0),
        p.scaled(Fraction(3, 4)),
        p.times_var(2),
        tensor_to_polynomial(build_e_adjacency(Hypergraph(3, ((1,), (1, 3)))).to_sparse()),
    ]
    assert derived[1].terms == {} and derived[2].terms == {}
    assert all(rebuilt_by_constructor(r) for r in derived)
    for h in corpus():
        assert all(rebuilt_by_constructor(r) for r in php_polynomials(h))


def test_addition_cancels():
    p = Polynomial(2, {(1, 1): Fraction(2)})
    q = Polynomial(2, {(1, 1): Fraction(-2), (2, 0): Fraction(1)})
    assert (p + q).terms == {(2, 0): Fraction(1)}
    with pytest.raises(ValueError):
        p + Polynomial(3, {})


def test_times_var_shifts_exponent():
    p = Polynomial(3, {(1, 0, 0): Fraction(5)})
    assert p.times_var(3).terms == {(1, 0, 1): Fraction(5)}
    assert p.times_var(1).terms == {(2, 0, 0): Fraction(5)}
    with pytest.raises(ValueError):
        p.times_var(4)


def test_scaled():
    p = Polynomial(1, {(2,): Fraction(3)})
    assert p.scaled(Fraction(1, 3)).terms == {(2,): Fraction(1)}
    assert p.scaled(0).terms == {}
