"""Exact, polynomial and dense views of a ``SymSparseTensor``, for the
test oracles."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from hgtensor import Polynomial, SymSparseTensor

DENSE_LIMIT = 1_000_000


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
    return Polynomial(t.dim, terms)


def value_at(t: SymSparseTensor, indices: Sequence[int]) -> Fraction:
    """Semantic lookup: any permutation resolves to the sorted tuple."""
    if len(indices) != t.order:
        raise ValueError(f"need {t.order} indices, got {len(indices)}")
    return t.entries.get(tuple(sorted(indices)), Fraction(0))


def to_dense(t: SymSparseTensor):
    """Dense float array of the tensor (small tensors only)."""
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
