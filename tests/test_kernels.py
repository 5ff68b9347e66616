"""The tensor-vector product kernel against an exact semantic oracle."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from hgtensor import SymSparseTensor
from hgtensor.kernels import apply_coords
from tests.oracles import value_at


def semantic_apply(t: SymSparseTensor, x: list[Fraction]) -> list[Fraction]:
    """Brute-force oracle: enumerate all dim**order tuples exactly."""
    out = [Fraction(0)] * t.dim
    for tup in itertools.product(range(1, t.dim + 1), repeat=t.order):
        v = value_at(t, tup)
        if v == 0:
            continue
        prod = Fraction(1)
        for i in tup[1:]:
            prod *= x[i - 1]
        out[tup[0] - 1] += v * prod
    return out


def random_square_free_tensor(rng: random.Random, dim: int, order: int) -> SymSparseTensor:
    entries = {}
    for _ in range(rng.randint(1, 8)):
        tup = tuple(sorted(rng.sample(range(1, dim + 1), order)))
        entries[tup] = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return SymSparseTensor(order, dim, entries)


def test_kernel_matches_exact_enumeration():
    rng = random.Random(101)
    for _ in range(12):
        order = rng.randint(1, 5)
        dim = rng.randint(order, 7)
        t = random_square_free_tensor(rng, dim, order)
        xq = [Fraction(rng.randint(0, 5), 2) for _ in range(dim)]
        expected = [float(v) for v in semantic_apply(t, xq)]
        indices = np.array(list(t.entries), dtype=np.int64).reshape(-1, order) - 1
        # the kernel's weight is the entry times (order-1)!
        scale = math.factorial(order - 1)
        values = np.array([float(v * scale) for v in t.entries.values()])
        got = apply_coords(indices, values, np.array([float(v) for v in xq]))
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12), t


def test_kernel_empty_tensor():
    indices = np.empty((0, 3), dtype=np.int64)
    values = np.empty(0, dtype=np.float64)
    out = apply_coords(indices, values, np.ones(4))
    assert np.array_equal(out, np.zeros(4))

