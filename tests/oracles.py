"""Exact and dense views of a ``SymSparseTensor``, for the test oracles."""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np

from hgtensor import SymSparseTensor

DENSE_LIMIT = 1_000_000


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
