"""Degree report, spectral bound, multilinear product, eigensolver."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgtensor import (
    DegreeReport,
    Hypergraph,
    LayeredTensor,
    apply,
    build_e_adjacency,
    degrees_from_tensor,
    largest_h_eigenvalue,
    reconstruct,
    spectral_bound,
    to_dense,
)
from hgtensor.errors import (
    DimensionMismatch,
    MalformedTensor,
    NoConvergence,
    OrderTooSmall,
    ParseError,
)
from hgtensor.fileio import parse_tensor, write_tensor
from tests.gen import corpus, graph_corpus

EXAMPLE = Hypergraph(4, ((1,), (1, 2), (2, 3, 4)))
C3 = Hypergraph(3, ((1, 2), (2, 3), (1, 3)))


def direct_report(h: Hypergraph, k_max: int | None = None) -> DegreeReport:
    """Oracle: degrees and layer counts counted on the hypergraph itself,
    for a tensor of order ``k_max`` (default: the range of ``h``)."""
    k_max = k_max or h.range()
    degrees = list(h.degrees())
    for level in range(1, k_max):
        degrees.append(sum(1 for e in h.edges if len(e) <= level))
    counts = tuple(
        sum(1 for e in h.edges if len(e) == j) for j in range(1, k_max + 1)
    )
    return DegreeReport(h.n, k_max, tuple(degrees), counts)


# --- degrees -----------------------------------------------------------------


def test_degrees_worked_example():
    report = degrees_from_tensor(build_e_adjacency(EXAMPLE))
    assert report.degrees == (2, 2, 1, 1, 1, 2)
    assert report.layer_counts == (1, 1, 1)
    assert report.n_edges == 3
    assert report == direct_report(EXAMPLE)


def test_degrees_2_uniform():
    h = Hypergraph(4, ((1, 2), (3, 4)))
    report = degrees_from_tensor(build_e_adjacency(h))
    assert report.degrees[4] == 0  # y1
    assert report.layer_counts == (0, 2)


def test_degrees_single_3_edge():
    report = degrees_from_tensor(build_e_adjacency(Hypergraph(3, ((1, 2, 3),))))
    assert report.degrees == (1, 1, 1, 0, 0)
    assert report.layer_counts == (0, 0, 1)


def test_degrees_k_max_1():
    report = degrees_from_tensor(build_e_adjacency(Hypergraph(2, ((1,), (2,)))))
    assert report.degrees == (1, 1)
    assert report.layer_counts == (2,)


def test_degrees_match_direct_counting_on_corpus():
    for h in corpus(count=60, seed=31):
        t = build_e_adjacency(h)
        report = degrees_from_tensor(t)
        assert report == direct_report(h)
        # row sums of the tensor equal the degrees
        ones = apply(t, np.ones(t.dim))
        assert np.allclose(ones, np.array(report.degrees, dtype=float), atol=1e-12)


def test_degrees_rejects_malformed():
    # A degree report is only made from a LayeredTensor, and both ways to
    # make one reject a tensor that is not layered.
    t = build_e_adjacency(EXAMPLE)
    text = write_tensor(t)
    with pytest.raises(ParseError, match="incompatible with n=3"):
        parse_tensor(text.replace(" n=4 ", " n=3 ", 1))
    with pytest.raises(ParseError, match="no original vertex"):
        parse_tensor(text.replace("\n1 5 6 ", "\n5 6 6 ", 1))
    with pytest.raises(MalformedTensor):
        LayeredTensor(3, 3, t.rows)
    with pytest.raises(MalformedTensor):
        LayeredTensor(4, 3, np.array([[5, 6, 6]]))


@st.composite
def maybe_corrupted_rows(draw):
    """A small hypergraph's padded rows, in edge order, with at most one
    index moved (the row staying non-decreasing)."""
    n = draw(st.integers(1, 6))
    edges = draw(st.lists(st.frozensets(st.integers(1, n), min_size=1, max_size=4),
                          min_size=1, max_size=8, unique=True))
    t = build_e_adjacency(Hypergraph(n, tuple(tuple(sorted(e)) for e in edges)))
    rows = [tuple(row) for row in t.rows.tolist()]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        tup = rows[i]
        p = draw(st.integers(0, t.order - 1))
        lo = tup[p - 1] if p > 0 else 1
        hi = tup[p + 1] if p + 1 < t.order else t.dim
        moves = [v for v in range(lo, hi + 1) if v != tup[p]]
        if moves:
            rows[i] = tup[:p] + (draw(st.sampled_from(moves)),) + tup[p + 1 :]
    return n, t.order, rows


def layered_oracle(rows: list[tuple[int, ...]], n: int, k: int) -> Hypergraph | None:
    """Oracle: the hypergraph the non-decreasing ``rows`` encode, checked
    row by row, or None when some row is not a padded edge or two rows
    are equal."""
    if len(set(rows)) != len(rows):
        return None
    edges = []
    for tup in rows:
        j = sum(1 for i in tup if i <= n)
        originals = tup[:j]
        if j == 0 or len(set(originals)) != j or tup[j:] != tuple(range(n + j, n + k)):
            return None
        edges.append(originals)
    return Hypergraph(n, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(maybe_corrupted_rows())
def test_degrees_agree_with_reconstruction(case):
    n, k, rows = case
    h = layered_oracle(rows, n, k)
    if h is None:
        with pytest.raises(MalformedTensor):
            LayeredTensor(n, k, np.array(rows))
        return
    layered = LayeredTensor(n, k, np.array(rows))
    value = Fraction(1, math.factorial(k - 1))
    assert layered.to_sparse().entries == dict.fromkeys(rows, value)
    assert reconstruct(layered).canonical() == h.canonical()
    report = degrees_from_tensor(layered)
    assert report == direct_report(h, k)
    assert np.allclose(apply(layered, np.ones(layered.dim)), report.degrees, atol=1e-12)


# --- bound -------------------------------------------------------------------


def test_bound_examples():
    assert spectral_bound(direct_report(EXAMPLE)) == 2

    k4 = Hypergraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    report = direct_report(k4)
    assert report.delta == 3 and report.delta_star == 0
    assert spectral_bound(report) == 3

    singleton = direct_report(Hypergraph(1, ((1,),)))
    assert singleton.delta == 1 and singleton.delta_star == 0
    assert spectral_bound(singleton) == 1


# --- multilinear product -----------------------------------------------------


def test_apply_examples():
    t = build_e_adjacency(Hypergraph(2, ((1, 2),)))
    assert np.allclose(apply(t, [1.0, 1.0, 0.0]), [1.0, 1.0, 0.0])

    t3 = build_e_adjacency(EXAMPLE)
    assert np.array_equal(apply(t3, np.zeros(6)), np.zeros(6))
    assert np.allclose(apply(t3, np.ones(6)), [2, 2, 1, 1, 1, 2], atol=1e-12)


def test_apply_dimension_mismatch():
    t = build_e_adjacency(EXAMPLE)
    with pytest.raises(DimensionMismatch):
        apply(t, np.ones(5))


# --- eigensolver -------------------------------------------------------------


def test_eigen_triangle_reaches_bound():
    result = largest_h_eigenvalue(build_e_adjacency(C3))
    assert abs(result.eigenvalue - 2.0) <= 1e-8
    assert result.residual <= 1e-8
    assert abs(result.vector.sum() - 1.0) <= 1e-12
    assert (result.vector >= 0).all()


def test_eigen_single_pair_is_matrix_case():
    result = largest_h_eigenvalue(build_e_adjacency(Hypergraph(2, ((1, 2),))))
    assert abs(result.eigenvalue - 1.0) <= 1e-8


def test_eigen_single_3_edge_respects_bound():
    # x = (1, 1, 1, 0, 0) solves x_j x_k = lambda x_i^2 with lambda = 1; the
    # y1 and y2 slots are zero rows
    t = build_e_adjacency(Hypergraph(3, ((1, 2, 3),)))
    result = largest_h_eigenvalue(t)
    assert abs(result.eigenvalue - 1.0) <= 1e-8
    assert result.residual <= 1e-8


@pytest.mark.parametrize(
    "h, expected",
    [
        # even cycle C6: bipartite, so the unshifted iteration is periodic
        (Hypergraph(6, tuple((i, i % 6 + 1) for i in range(1, 7))), 2.0),
        (Hypergraph(3, ((1, 2), (2, 3))), math.sqrt(2)),  # path P3
        # K_{2,3}: graph spectral radius sqrt(2 * 3)
        (Hypergraph(5, tuple((a, b) for a in (1, 2) for b in (3, 4, 5))),
         math.sqrt(6)),
        # {1,2}, {1,2,3}: slot y1 (no singleton edge) is a zero row; on the
        # rest x1 = x2 = a, x3 = x_y2 = b gives 2b = lambda a and
        # a^2 = lambda b^2, so lambda^3 = 4
        (Hypergraph(3, ((1, 2), (1, 2, 3))), 4 ** (1 / 3)),
    ],
    ids=["C6", "P3", "K2,3", "zero-y1-row"],
)
def test_eigen_periodic_and_reducible_cases(h, expected):
    result = largest_h_eigenvalue(build_e_adjacency(h))
    assert abs(result.eigenvalue - expected) <= 1e-8
    assert result.residual <= 1e-8


def test_eigen_rejects_order_1():
    with pytest.raises(OrderTooSmall):
        largest_h_eigenvalue(build_e_adjacency(Hypergraph(1, ((1,),))))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_iter": 0},
        {"max_iter": -1},
        {"tol": -1.0},
        {"tol": float("nan")},
        {"residual_tol": -1e-12},
        {"residual_tol": float("nan")},
        {"shift": 0.0},
        {"shift": float("nan")},
    ],
)
def test_eigen_rejects_bad_arguments(kwargs):
    with pytest.raises(ValueError):
        largest_h_eigenvalue(build_e_adjacency(C3), **kwargs)


def test_eigen_no_convergence_carries_bracket():
    t = build_e_adjacency(EXAMPLE)
    with pytest.raises(NoConvergence) as exc:
        largest_h_eigenvalue(t, tol=0.0, max_iter=2, residual_tol=0.0)
    assert exc.value.iterations == 2
    assert exc.value.lambda_min <= exc.value.lambda_max


def test_eigen_bound_on_corpus():
    for h in corpus(count=60, seed=37):
        t = build_e_adjacency(h)
        if t.order < 2:
            continue
        bound = spectral_bound(degrees_from_tensor(t))
        result = largest_h_eigenvalue(t)
        assert result.eigenvalue <= bound + 1e-6
        assert result.residual <= 1e-8


def test_eigen_regular_uniform_equality():
    cases = [
        Hypergraph(4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),  # K4
        Hypergraph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))),  # C5
        Hypergraph(4, ((1, 2), (2, 3), (3, 4), (1, 4))),  # C4, bipartite
        # 5-uniform 5-regular cycle {i, ..., i+4} mod n at dim 10^4, where a
        # 1-norm-normalised iterate meets the absolute residual_tol at once
        Hypergraph(
            10_000,
            tuple(tuple(sorted((i + j) % 10_000 + 1 for j in range(5)))
                  for i in range(10_000)),
        ),
    ]
    for h in cases:
        t = build_e_adjacency(h)
        bound = spectral_bound(degrees_from_tensor(t))
        result = largest_h_eigenvalue(t)
        assert abs(result.eigenvalue - bound) <= 1e-6


def test_eigen_matches_dense_matrix_solver():
    for h in graph_corpus(count=15, seed=41):
        t = build_e_adjacency(h)
        lam_dense = float(np.linalg.eigvalsh(to_dense(t.to_sparse())).max())
        result = largest_h_eigenvalue(t)
        assert abs(result.eigenvalue - lam_dense) <= 1e-8
