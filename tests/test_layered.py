"""The array-backed layered tensor: its checks, conversions, and scale."""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hgtensor import (
    Hypergraph,
    LayeredTensor,
    build_e_adjacency,
    degrees_from_tensor,
    reconstruct,
)
from hgtensor.errors import MalformedTensor
from hgtensor.fileio import parse_tensor, write_tensor
from tests.gen import large_hypergraph


def test_rows_are_private_and_read_only():
    rows = np.array([[1, 5, 6], [1, 2, 6], [2, 3, 4]])
    t = LayeredTensor(4, 3, rows)
    rows[0, 0] = 2
    assert t.rows.tolist() == [[1, 5, 6], [1, 2, 6], [2, 3, 4]]
    assert t.rows.dtype == np.int64 and not t.rows.flags.writeable
    assert (t.dim, t.nnz, t.value) == (6, 3, Fraction(1, 2))
    assert t.canonical_rows().tolist() == [[1, 2, 6], [1, 5, 6], [2, 3, 4]]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[1, 5, 6], [0, 5, 6]], "row 1: entry (0, 5, 6) has an index below 1"),
        ([[2, 1, 6]], "row 0: entry (2, 1, 6) is not non-decreasing"),
        ([[5, 6, 6]], "row 0: entry (5, 6, 6) holds no original vertex (n=4)"),
        ([[1, 1, 6]], "row 0: entry (1, 1, 6) repeats an original vertex"),
        ([[1, 6, 6]], "not the suffix (5, 6) for origin size 1"),
        ([[1, 2, 5]], "not the suffix (6,) for origin size 2"),
        ([[1, 5, 7]], "not the suffix (5, 6) for origin size 1"),  # 7 > dim
        ([[1, 5, 6], [2, 3, 4], [1, 5, 6]], "rows 0 and 2 hold the same entry (1, 5, 6)"),
        ([[1, 5]], "shape"),
        ([[1.0, 5.0, 6.0]], "dtype"),
        # compared, not subtracted: -2**63 - 5 would wrap to a positive step
        ([[1, 5, -2**63]], "row 0: entry (1, 5, -9223372036854775808) is not non-decreasing"),
        # checked before the cast to int64, which would wrap it to -1
        (np.array([[1, 5, 6], [2**64 - 1, 5, 6]], np.uint64),
         "row 1: entry (18446744073709551615, 5, 6) has index "
         "18446744073709551615 above the int64 range"),
    ],
)
def test_constructor_names_the_first_bad_row(rows, message):
    with pytest.raises(MalformedTensor) as exc:
        LayeredTensor(4, 3, np.array(rows))
    assert message in str(exc.value)


def test_constructor_rejects_bad_sizes():
    with pytest.raises(MalformedTensor):
        LayeredTensor(0, 2, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(MalformedTensor):
        LayeredTensor(3, 0, np.empty((0, 0), dtype=np.int64))
    with pytest.raises(TypeError):
        LayeredTensor(2.5, 2, np.empty((0, 2), dtype=np.int64))
    with pytest.raises(TypeError):
        LayeredTensor(3, True, np.empty((0, 1), dtype=np.int64))
    # dim = n + order - 1 must index as int64
    with pytest.raises(MalformedTensor, match="exceeds the int64 index range"):
        LayeredTensor(10**20, 2, np.array([[1, 2]]))
    with pytest.raises(MalformedTensor, match="exceeds the int64 index range"):
        LayeredTensor(2**63 - 1, 2, np.empty((0, 2), dtype=np.int64))
    top = 2**63 - 1
    assert LayeredTensor(top - 1, 2, np.array([[1, top]])).dim == top
    with pytest.raises(MalformedTensor, match="exceeds the int64 index range"):
        build_e_adjacency(Hypergraph(top, ((1, 2),)))


def test_empty_tensor_converts_both_ways():
    t = LayeredTensor(3, 2, np.empty((0, 2), dtype=np.int64))
    assert t.to_sparse().entries == {}
    assert reconstruct(t) == Hypergraph(3, ())


def test_coo_roundtrip_at_scale():
    h = large_hypergraph()
    t = build_e_adjacency(h)
    text = write_tensor(t)
    back = parse_tensor(text)
    assert (back.n, back.order, back.dim) == (t.n, t.order, t.dim) and t.dim >= 10_000
    assert np.array_equal(back.canonical_rows(), t.canonical_rows())
    assert write_tensor(back) == text
    assert reconstruct(back) == reconstruct(t)
    assert sorted(reconstruct(back).edges) == sorted(h.edges)


def test_array_path_at_scale():
    h = large_hypergraph()
    t = build_e_adjacency(h)
    k = t.order
    assert t.dim >= 10_000 and t.nnz == len(h.edges) and k == 5

    # per-edge padding oracle, in edge order
    value = Fraction(1, math.factorial(k - 1))
    oracle = {e + tuple(range(h.n + len(e), h.n + k)): value for e in h.edges}
    exact = t.to_sparse()
    assert exact.entries == oracle
    assert list(exact.entries) == list(oracle)
    assert sorted(reconstruct(t).edges) == sorted(h.edges)

    report = degrees_from_tensor(t)
    sizes = Counter(len(e) for e in h.edges)
    specials = [sum(sizes[j] for j in range(1, level + 1)) for level in range(1, k)]
    assert report.degrees == h.degrees() + tuple(specials)
    assert report.layer_counts == tuple(sizes[j] for j in range(1, k + 1))
